#include "urmem/sim/memory_pipeline.hpp"

#include <algorithm>
#include <span>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

matrix store_and_readback(const matrix& input, const storage_config& config,
                          const scheme_factory& factory, const fault_injector& inject,
                          rng& gen, pipeline_stats* stats) {
  expects(config.rows_per_tile >= 1, "tiles need at least one row");
  const matrix_quantizer quantizer(
      fixed_point_codec(config.word_bits, config.frac_bits));
  const std::vector<word_t> words = quantizer.to_words(input);

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

    // Stream the whole tile through the batched block-codec +
    // fault-map plane path: one scheme call and one row op per direction
    // instead of per-word virtual calls.
    memory.write_block(0, std::span<const word_t>(words).subspan(cursor, tile_words));
    protected_memory::block_stats block;
    memory.read_block(0, std::span<word_t>(restored).subspan(cursor, tile_words),
                      &block);
    local.corrected_words += block.corrected;
    local.uncorrectable_words += block.uncorrectable;
    ++local.tiles;
    cursor += tile_words;
  }
  if (stats != nullptr) *stats = local;
  return quantizer.from_words(restored, input.rows(), input.cols());
}

fault_injector exact_fault_injector(std::uint64_t n, fault_polarity polarity) {
  return [n, polarity](const array_geometry& geometry, rng& gen) {
    return sample_fault_map_exact(geometry, std::min(n, geometry.cells()), gen,
                                  polarity);
  };
}

fault_injector binomial_fault_injector(double pcell, fault_polarity polarity) {
  return [pcell, polarity](const array_geometry& geometry, rng& gen) {
    const binomial_distribution dist(geometry.cells(), pcell);
    return sample_fault_map_binomial(geometry, dist, gen, polarity);
  };
}

fault_injector no_fault_injector() {
  return [](const array_geometry& geometry, rng&) { return fault_map(geometry); };
}

namespace {

/// Rebases one region's sub-map (data rows, then its spares) into the
/// tile map using protected_memory's region-order spare layout.
void merge_region_faults(fault_map& tile, const fault_map& drawn,
                         const memory_region& region,
                         std::uint32_t spare_base) {
  for (const fault& f : drawn.all_faults()) {
    const bool is_spare = f.row >= region.rows();
    const std::uint32_t row = is_spare ? spare_base + (f.row - region.rows())
                                       : region.first_row + f.row;
    tile.add({row, f.col, f.kind});
  }
}

std::uint32_t checked_region_tile_rows(const std::vector<memory_region>& regions,
                                       const array_geometry& geometry) {
  std::uint32_t data_rows = 0;
  std::uint32_t spares = 0;
  for (const memory_region& region : regions) {
    data_rows += region.rows();
    spares += region.spare_rows;
  }
  expects(geometry.rows == data_rows + spares,
          "tile geometry must match the region table (data + spares)");
  return data_rows;
}

}  // namespace

fault_injector region_fault_injector(std::vector<region_operating_point> points,
                                     fault_polarity polarity) {
  expects(!points.empty(), "region injector needs at least one region");
  return [points = std::move(points),
          polarity](const array_geometry& geometry, rng& gen) {
    std::vector<memory_region> regions;
    regions.reserve(points.size());
    for (const region_operating_point& point : points) {
      regions.push_back(point.region);
    }
    std::uint32_t spare_base = checked_region_tile_rows(regions, geometry);
    fault_map faults(geometry);
    // Regions draw in table order on the shared trial stream, so the
    // map is deterministic for a fixed seed regardless of scheduling.
    for (const region_operating_point& point : points) {
      const array_geometry sub{point.region.rows() + point.region.spare_rows,
                               geometry.width};
      const binomial_distribution dist(sub.cells(), point.pcell);
      merge_region_faults(faults,
                          sample_fault_map_binomial(sub, dist, gen, polarity),
                          point.region, spare_base);
      spare_base += point.region.spare_rows;
    }
    return faults;
  };
}

fault_injector region_exact_fault_injector(std::vector<memory_region> regions,
                                           std::vector<std::uint64_t> counts,
                                           fault_polarity polarity) {
  expects(!regions.empty(), "region injector needs at least one region");
  expects(regions.size() == counts.size(),
          "need exactly one fault count per region");
  return [regions = std::move(regions), counts = std::move(counts),
          polarity](const array_geometry& geometry, rng& gen) {
    std::uint32_t spare_base = checked_region_tile_rows(regions, geometry);
    fault_map faults(geometry);
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const array_geometry sub{regions[r].rows() + regions[r].spare_rows,
                               geometry.width};
      // "Exactly counts[r]" is the contract; silently clamping would
      // let reports claim counts that were never injected.
      expects(counts[r] <= sub.cells(),
              "exact region fault count exceeds the region's cells");
      merge_region_faults(faults,
                          sample_fault_map_exact(sub, counts[r], gen, polarity),
                          regions[r], spare_base);
      spare_base += regions[r].spare_rows;
    }
    return faults;
  };
}

}  // namespace urmem
