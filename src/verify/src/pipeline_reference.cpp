#include "urmem/verify/pipeline_reference.hpp"

#include <algorithm>
#include <memory>

#include "urmem/common/contracts.hpp"
#include "urmem/scheme/protected_memory.hpp"

namespace urmem {

std::vector<word_t> store_and_readback_words_reference(
    std::span<const word_t> words, const storage_config& config,
    const scheme_factory& factory, const fault_injector& inject, rng& gen,
    pipeline_stats* stats) {
  expects(config.rows_per_tile >= 1, "tiles need at least one row");
  expects(config.regions.empty() || config.spare_rows_per_tile == 0,
          "a region table replaces spare_rows_per_tile");
  std::vector<word_t> restored(words.size());
  pipeline_stats local;
  std::size_t cursor = 0;
  while (cursor < words.size()) {
    const auto tile_words = std::min<std::size_t>(config.rows_per_tile,
                                                  words.size() - cursor);
    std::unique_ptr<protection_scheme> scheme = factory(config.rows_per_tile);
    expects(scheme != nullptr, "scheme factory returned null");
    expects(scheme->data_bits() == config.word_bits,
            "scheme word width must match the storage config");
    protected_memory memory =
        config.regions.empty()
            ? protected_memory(config.rows_per_tile, std::move(scheme),
                               config.spare_rows_per_tile)
            : protected_memory(config.rows_per_tile, std::move(scheme),
                               config.regions);

    fault_map faults = inject(memory.storage_geometry(), gen);
    local.injected_faults += faults.fault_count();
    memory.set_fault_map(std::move(faults));

    memory.write_block(0, words.subspan(cursor, tile_words));
    protected_memory::block_stats block;
    memory.read_block(
        0, std::span<word_t>(restored).subspan(cursor, tile_words), &block);
    local.corrected_words += block.corrected;
    local.uncorrectable_words += block.uncorrectable;
    ++local.tiles;
    cursor += tile_words;
  }
  if (stats != nullptr) *stats = local;
  return restored;
}

}  // namespace urmem
