// Reference tile store/readback — the oracle store_and_readback_words
// (src/sim) is checked against by tests/pipeline_sweep_test.cpp and
// bench/micro_memory. It is the straightforward loop the row-sparse
// production path replaced: every tile's every row is encoded, written
// through the faulty array, read back and decoded in one
// write_block/read_block pair, whether a fault can reach it or not.
#pragma once

#include <span>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

/// store_and_readback_words with every row of every tile streamed
/// through the scheme's codecs. Same tiles, same fault maps drawn on
/// `gen` in tile order, same statistics.
[[nodiscard]] std::vector<word_t> store_and_readback_words_reference(
    std::span<const word_t> words, const storage_config& config,
    const scheme_factory& factory, const fault_injector& inject, rng& gen,
    pipeline_stats* stats = nullptr);

}  // namespace urmem
