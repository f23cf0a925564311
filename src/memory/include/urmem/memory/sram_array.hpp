// Functional model of an unreliable SRAM array (paper Fig. 1).
//
// The array stores one word per row and applies its fault map on every
// read — the software equivalent of reading through failing bit-cells.
// Reads and writes go straight through the fault_map's dense per-row
// bit-plane masks (see fault_map.hpp); set_faults just swaps in a new
// map. The per-cell reference walk is kept as a switchable debug oracle
// (fault_path::reference, or process-wide via URMEM_FAULT_PATH=reference)
// and is bit-identical to the fast path.
// A fault-free back door (read_ideal / raw word access) is provided for
// test oracles and for the BIST engine's expected-data comparison.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/common/thread_safety.hpp"
#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// Which fault machinery serves reads and writes.
enum class fault_path : std::uint8_t {
  compiled,   ///< dense fault_map plane masks (the fast path, default)
  reference,  ///< per-cell fault walk (debug oracle, bit-identical)
};

/// R x W bit SRAM with persistent stuck-at / flip / transition faults.
///
/// Thread-safety audit (no locks by design): the array itself is not
/// synchronized — callers serialize same-row access externally (the
/// serving tier's per-row stripe locks) and must not overlap
/// set_faults/set_fault_path/fill with traffic (the serving tier's
/// exclusive epoch gate guarantees that). Distinct-row reads/writes
/// touch disjoint words_ slots and are safe. The one internally
/// synchronized member is the access counter, kept in per-thread-slot
/// relaxed atomic shards, so the energy tally stays exact under
/// concurrent traffic without every access writing one shared line.
class sram_array {
 public:
  /// Fault-free array of the given geometry.
  explicit sram_array(array_geometry geometry);

  /// Array with the given fault map (geometry taken from the map).
  explicit sram_array(fault_map faults);

  [[nodiscard]] const array_geometry& geometry() const {
    return faults_.geometry();
  }
  [[nodiscard]] const fault_map& faults() const { return faults_; }

  /// Replaces the fault map (e.g. after re-running BIST at a new supply
  /// voltage). Geometry must match; stored data is preserved.
  void set_faults(fault_map faults);

  /// Selects the compiled fast path or the per-cell reference oracle for
  /// subsequent reads/writes. Both produce bit-identical results.
  void set_fault_path(fault_path path) { path_ = path; }
  [[nodiscard]] fault_path path() const { return path_; }

  /// Process-wide default path: fault_path::reference when the
  /// URMEM_FAULT_PATH environment variable is "reference" (read once),
  /// fault_path::compiled otherwise.
  [[nodiscard]] static fault_path default_fault_path();

  /// Number of rows R.
  [[nodiscard]] std::uint32_t rows() const { return geometry().rows; }

  /// Word width W in bits.
  [[nodiscard]] unsigned width() const { return geometry().width; }

  /// Stores `value` (low W bits) into `row`.
  void write(std::uint32_t row, word_t value);

  /// Reads `row` through the faulty cells.
  [[nodiscard]] word_t read(std::uint32_t row) const;

  /// Batched write of rows [first, first + values.size()): one word per
  /// row, streamed through the fault map's planes. Counts one access per
  /// word, added once for the whole row op.
  void write_rows(std::uint32_t first, std::span<const word_t> values);

  /// Batched read of rows [first, first + out.size()) through the
  /// faulty cells. Counts one access per word, added once per row op.
  void read_rows(std::uint32_t first, std::span<word_t> out) const;

  /// Reads `row` bypassing the faults (test/BIST oracle only; a real
  /// array has no such port).
  [[nodiscard]] word_t read_ideal(std::uint32_t row) const;

  /// Fills every row with `value`.
  void fill(word_t value);

  /// Total accesses performed so far (reads + writes), for the energy
  /// accounting in the hardware model examples. Batched row ops count
  /// exactly one access per word touched. Each thread counts into its
  /// own ts_thread_shard() slot of relaxed atomics, so concurrent
  /// serving traffic (distinct rows from many threads) tallies exactly
  /// without a data race or a shared cache line; the sum imposes no
  /// ordering on the data itself.
  [[nodiscard]] std::uint64_t access_count() const {
    std::uint64_t total = 0;
    for (const access_shard& shard : accesses_) {
      total += shard.count.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  fault_map faults_;
  std::vector<word_t> data_;
  fault_path path_ = default_fault_path();
  struct alignas(ts_cache_line) access_shard {
    std::atomic<std::uint64_t> count{0};
  };
  void count_accesses(std::uint64_t words) const {
    accesses_[ts_thread_shard()].count.fetch_add(words,
                                                 std::memory_order_relaxed);
  }
  mutable std::array<access_shard, ts_shard_count> accesses_;
};

}  // namespace urmem
