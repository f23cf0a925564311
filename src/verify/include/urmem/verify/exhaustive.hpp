// Exhaustive nCr fault-pattern verification of protection schemes.
//
// For narrow storage widths it is feasible to enumerate *every* k-bit
// error pattern across the data+check columns (k up to the scheme's
// guaranteed correction strength plus one) and prove, pattern by
// pattern, the properties the rest of the repo merely samples:
//
//   * block == reference bit-identity, data and status, for encode and
//     decode — both the tile-wide block call and the one-element block
//     call behind scalar encode()/decode();
//   * corrected / detected_uncorrectable classification: <= t-bit
//     patterns decode back to the written data, (t+1)-bit patterns are
//     flagged and never miscorrected (for schemes advertising a
//     guarantee via guaranteed_correctable_bits());
//   * the analytic residual model is *exact*, row by row: decoded ^ data
//     equals the bit set residual_fault_bits(row, ...) predicts for that
//     very row (tiered schemes route rows to different tiers), for every
//     enumerated data word, and the derived worst_case_row_cost(row, ...)
//     equals sum 4^b over exactly those bits — so analytic_mse matches
//     the enumerated truth, not just an upper bound.
//
// Patterns are enumerated by unranking trial indices through the
// combinatorial number system (the mat_ecc_ram-style nCr walk), which
// makes the sweep a plain 0..N-1 trial range: the existing
// campaign_runner parallelizes it deterministically, and any failure
// reproduces from its pattern index alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

class campaign_runner;

/// Binomial coefficient C(n, k) (exact; the widths here keep it tiny).
[[nodiscard]] std::uint64_t choose_nk(unsigned n, unsigned k);

/// Number of error patterns of weight 0..max_bits over `columns`
/// columns (the empty pattern included as index 0).
[[nodiscard]] std::uint64_t pattern_count(unsigned columns, unsigned max_bits);

/// Unranks pattern `index` (in [0, pattern_count)) into its ascending
/// column list: index 0 is the empty pattern, then all weight-1
/// patterns in lexicographic order, then weight-2, ...
void unrank_pattern(std::uint64_t index, unsigned columns, unsigned max_bits,
                    std::vector<std::uint32_t>& cols);

/// Tuning knobs of one exhaustive sweep.
struct exhaustive_config {
  /// Deepest pattern weight; 0 = guaranteed_correctable_bits() + 1,
  /// floored at 2 so no-guarantee schemes still see multi-bit patterns.
  unsigned max_pattern_bits = 0;
  /// Every data word is enumerated when data_bits <= this...
  unsigned full_data_width_limit = 8;
  /// ...otherwise this many words: 0, all-ones, 0xAA.., 0x55.., rest
  /// drawn from the trial's deterministic stream.
  std::size_t data_words = 8;
  /// Rows per scheme instance; patterns are verified through block
  /// calls spanning all of them (row-dependent schemes get coverage).
  std::uint32_t rows = 8;
  /// Failure messages kept verbatim; the rest only counted.
  std::size_t max_failures = 8;
};

/// Outcome of one scheme x width sweep.
struct exhaustive_report {
  std::string label;
  unsigned data_bits = 0;
  unsigned storage_bits = 0;
  unsigned guaranteed_bits = 0;
  unsigned max_pattern_bits = 0;
  std::uint64_t patterns = 0;       ///< fault patterns enumerated
  std::uint64_t decodes = 0;        ///< pattern x data-word decodes checked
  std::uint64_t clean = 0;          ///< decodes reporting ecc_status::clean
  std::uint64_t corrected = 0;      ///< decodes reporting corrected
  std::uint64_t uncorrectable = 0;  ///< decodes reporting uncorrectable
  std::uint64_t failure_count = 0;  ///< total property violations
  std::vector<std::string> failures;  ///< first max_failures, verbatim

  [[nodiscard]] bool ok() const { return failure_count == 0; }
  /// One table row: label, sizes, pattern/decode counts, verdict.
  [[nodiscard]] std::string summary() const;
};

/// Runs the exhaustive sweep for one scheme (built fresh per pattern
/// from `factory` and configured with that pattern as its BIST fault
/// map, so BIST-dependent schemes are verified against the very map the
/// analytic model assumes). Deterministic for a fixed seed at any
/// thread count.
[[nodiscard]] exhaustive_report verify_scheme_exhaustive(
    const std::string& label, const scheme_factory& factory,
    campaign_runner& pool, const exhaustive_config& config = {});

}  // namespace urmem
