// Deterministic fault timeline — the aging half of the fault-lifecycle
// subsystem.
//
// A manufactured fault map is a snapshot; a deployed part keeps
// degrading. The timeline steps a fault population through discrete
// epochs: each advance() draws a configured number of new persistent
// faults on previously healthy cells (the in-field arrival process),
// and a fixed set of *intermittent* cells flips between active and
// quiescent from epoch to epoch (aged cells near their critical
// voltage, the reason a read retry can succeed where the first access
// failed). The installed fault_map for an epoch is always rebuilt from
// the persistent population plus the epoch's active intermittents, so
// the fault_map mask path and the per-cell reference path see the same
// injected reality.
//
// Everything is counter-based or stream-split off one seed: the same
// (seed, epoch, attempt) triple always yields the same arrivals and the
// same intermittent activity, independent of thread count or call
// interleaving across other components.
#pragma once

#include <cstdint>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/memory/fault_map_io.hpp"
#include "urmem/memory/fault_sampler.hpp"

namespace urmem {

/// Arrival and intermittency knobs of one timeline.
struct timeline_config {
  /// New persistent faults injected per advance() (distinct healthy
  /// cells, uniform over the array).
  std::uint32_t arrivals_per_epoch = 0;
  /// Cells that flip between active and quiescent each epoch; drawn
  /// once at construction, disjoint from every persistent fault.
  std::uint32_t intermittent_cells = 0;
  fault_polarity polarity = fault_polarity::mixed;
  std::uint64_t seed = 0;
};

/// Steps a fault population through epochs; see the header comment.
class fault_timeline {
 public:
  /// Starts at epoch 0 from `initial` (the manufactured map, persistent
  /// birth-epoch-0 faults) and draws the intermittent population.
  fault_timeline(fault_map initial, timeline_config config);

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] const array_geometry& geometry() const { return geometry_; }

  /// The installed fault map of the current epoch: every persistent
  /// fault plus the intermittents active this epoch.
  [[nodiscard]] const fault_map& current() const { return current_; }

  /// Persistent faults accumulated so far (manufactured + arrived).
  [[nodiscard]] std::uint64_t persistent_faults() const {
    return persistent_.size();
  }

  /// Advances one epoch: injects the configured arrivals on distinct
  /// healthy cells and re-rolls intermittent activity. Returns the
  /// number of new persistent faults (always arrivals_per_epoch; the
  /// array running out of healthy cells is a contract violation).
  std::uint32_t advance();

  /// Re-corrupts `stored` as one raw read of physical row `row` at the
  /// current epoch. Attempt 0 is bit-identical to
  /// current().corrupt(row, stored); attempts >= 1 re-roll only the
  /// intermittent cells' activity — the read-retry model: a retry
  /// succeeds exactly when the offending intermittent happens to be
  /// quiescent on that attempt.
  [[nodiscard]] word_t corrupt_read(std::uint32_t row, word_t stored,
                                    std::uint32_t attempt) const;

  /// Full population with lifecycle annotations, ascending (row, col) —
  /// the v2 fault_map_io payload.
  [[nodiscard]] timeline_fault_set export_faults() const;

  /// Rebuilds a timeline from an exported set at epoch =
  /// max(birth_epoch). The population is taken verbatim (config's
  /// arrivals/intermittent counts only shape *future* epochs) and the
  /// arrival stream restarts fresh; the hash-based intermittent
  /// activity — and with it corrupt_read — resumes exactly.
  [[nodiscard]] static fault_timeline restore(const timeline_fault_set& set,
                                              timeline_config config);

 private:
  fault_timeline(array_geometry geometry, timeline_config config);

  [[nodiscard]] bool cell_occupied(std::uint32_t row, std::uint32_t col) const;
  [[nodiscard]] bool intermittent_active(std::uint64_t cell_index,
                                         std::uint32_t epoch,
                                         std::uint32_t attempt) const;
  void rebuild_current();

  array_geometry geometry_{};
  timeline_config config_{};
  std::uint32_t epoch_ = 0;
  rng arrivals_gen_;
  std::uint64_t activity_seed_ = 0;
  /// Persistent faults (insertion order); membership lives in
  /// persistent_map_ for O(1) occupied-cell checks.
  std::vector<timeline_fault> persistent_;
  fault_map persistent_map_;
  /// Intermittent cells, ascending (row, col); membership (any epoch)
  /// mirrored in intermittent_map_.
  std::vector<timeline_fault> intermittent_;
  fault_map intermittent_map_;
  fault_map current_;
};

}  // namespace urmem
