// memory_service — the resident serving tier over protected-memory
// tiles (the "millions of users" half of the roadmap's north star).
//
// A service is built from an ordinary scenario_spec: every resolved
// scheme recipe (tiered/HRM region tables included) becomes one hot
// tile — fault-map planes, LUT codecs, spare pools and a
// lifecycle_manager — and every request is applied to all tiles, so a
// serving run compares protection schemes under identical traffic the
// same way the batch workloads do.
//
// Thread-safety and the determinism contract
// ------------------------------------------
// The service is designed so that every *integer* counter it reports
// is bit-identical at any client count, while stores, readbacks,
// quality queries and the background scrub genuinely overlap:
//
//  * An epoch gate orders traffic against maintenance. Requests and
//    scrub passes hold it shared; step_epoch's mutation window — apply
//    deferred retirements/degradation, age the timeline, install the
//    new fault map — holds it exclusive, as do drain, stats_snapshot
//    and set_fault_path. The logical->physical mapping and the fault
//    map are therefore constant within an epoch, and any request's
//    outcome is a pure function of (row, epoch). The gate is a
//    ts_shared_mutex, which is reader-sharded: a request locks only its
//    thread's shard, and the exclusive side locks every shard in index
//    order. Sharding changes which cache lines readers touch, not what
//    the gate excludes, so outcomes keep the same (row, epoch) purity.
//
//  * Quality answers are cached per epoch. Each tile computes
//    protected_memory::residual_rows() at construction and again at the
//    end of every boundary window, under the exclusive gate — the only
//    place the fault map or the remap table changes (the concurrent
//    scrub pass only records findings). quality_query adds that cached
//    value, which is exactly what a rescan inside the same epoch would
//    return, so the counter it feeds stays a pure function of the epoch.
//
//  * Stores always write the service's canonical word for the row (the
//    authoritative copy a real serving tier refreshes from), and the
//    scrubber/lifecycle write-backs are routed through the same copy
//    (scrub_hooks::rewrite_word, lifecycle_manager::set_data_source).
//    With a write-idempotent fault population — stuck-at and flip
//    faults corrupt reads, not stores — every write of a row stores
//    the same bits, so concurrent stores, readbacks and scrub rewrites
//    commute. Transition-fault populations (polarity "mixed") are
//    rejected at construction: they latch write history and would make
//    outcomes interleaving-dependent.
//
//  * Per-row stripe locks (one cache line each) serialize touching the
//    *same* row from two threads (a data race even when idempotent).
//    Outcome counters live in per-slot, cache-line-aligned shards keyed
//    by the same thread slot as the gate (as do the arrays' access
//    tallies); stats_snapshot sums them under the exclusive gate. Every
//    counter is a relaxed atomic integer sum, so it totals the same
//    whichever shard each increment landed in, and threads beyond the
//    slot count only share a shard.
//
// Retirement is deliberately deferred maintenance: a scrub pass runs
// concurrently with traffic and records findings, but spares are spent
// (and rows marked / fail-stopped) only inside the next epoch
// boundary's exclusive window — the way a deployed fleet schedules
// page-retirement at a quiesce point instead of yanking a mapping
// mid-request.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/common/thread_safety.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scheme/protected_memory.hpp"

namespace urmem {

/// Exact integer outcomes of one tile's request traffic. Plain struct
/// (snapshot form); the service accumulates the live values in per-slot
/// shards of relaxed atomics.
struct tile_traffic_counters {
  std::uint64_t stores = 0;
  std::uint64_t readbacks = 0;
  std::uint64_t clean_reads = 0;
  std::uint64_t corrected_reads = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t word_errors = 0;        ///< readback != canonical word
  std::uint64_t quality_queries = 0;
  std::uint64_t degraded_rows_seen = 0; ///< sum of residual_rows() per query
};

/// Deterministic integer snapshot of the whole service — the golden
/// counter section of the serve report. Latency and wall-clock live in
/// the driver's report, never here.
struct service_snapshot {
  std::uint64_t requests = 0;  ///< stores + readbacks + quality queries
  std::uint64_t stores = 0;
  std::uint64_t readbacks = 0;
  std::uint64_t quality_queries = 0;
  std::uint64_t epoch_steps = 0;
  std::uint64_t snapshots = 0;  ///< stats_snapshot calls (this one included)

  struct tile_entry {
    std::string scheme;
    tile_traffic_counters traffic;
    lifecycle_counters life;
    std::uint64_t spares_left = 0;
    bool failed = false;  ///< fail-stopped (failstop degrade policy)
  };
  std::vector<tile_entry> tiles;

  /// Stable JSON form (ordered keys, exact integers) for goldens.
  [[nodiscard]] json_value to_json() const;
};

/// The serving tier; see the header comment for the concurrency and
/// determinism design.
class memory_service {
 public:
  /// Builds one tile per resolved scheme recipe. Throws spec_error for
  /// configurations that cannot serve deterministically (operating
  /// points on the fault section, transition-fault polarity) — the
  /// exact fault population comes from serve.initial_faults /
  /// serve.arrivals_per_epoch instead, seeded by named streams of
  /// seeds.root.
  explicit memory_service(const scenario_spec& spec);
  ~memory_service();

  memory_service(const memory_service&) = delete;
  memory_service& operator=(const memory_service&) = delete;

  /// Logical rows every tile serves.
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  /// Epochs stepped so far (0 until the first step_epoch).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_steps_.load(std::memory_order_acquire);
  }

  /// Request ops (thread-safe, shared on the epoch gate). quality_query
  /// adds each tile's residual_rows() of the current epoch, cached at
  /// the last boundary, so it costs O(tiles).
  void store(std::uint32_t row) URMEM_EXCLUDES(gate_);
  void readback(std::uint32_t row) URMEM_EXCLUDES(gate_);
  void quality_query() URMEM_EXCLUDES(gate_);

  /// Admin op: applies the previous epoch's deferred scrub findings,
  /// ages every live tile one epoch (new fault arrivals installed),
  /// then runs the due scrub passes concurrently with traffic under
  /// the shared gate. Call from one maintenance thread only.
  void step_epoch() URMEM_EXCLUDES(gate_);

  /// Admin op: applies any still-deferred scrub findings (call once
  /// after traffic stops so the final snapshot includes the last
  /// pass's retirements).
  void drain() URMEM_EXCLUDES(gate_);

  /// Admin op: exact counter snapshot. Counts itself. Only a snapshot
  /// taken while no request is in flight (e.g. after drain) is
  /// deterministic; mid-run snapshots are exact sums of whatever
  /// completed, which is timing-dependent.
  [[nodiscard]] service_snapshot stats_snapshot() URMEM_EXCLUDES(gate_);

  /// Forwards to every tile (test hook: compiled vs reference oracle).
  void set_fault_path(fault_path path) URMEM_EXCLUDES(gate_);

  /// Canonical word the service stores for `row` (test oracle).
  [[nodiscard]] word_t canonical_word(std::uint32_t row) const {
    return words_[row];
  }

 private:
  struct tile;  // protected_memory + lifecycle_manager + counters

  /// One stripe lock per cache line, so threads on different stripes do
  /// not contend on a shared line.
  struct alignas(ts_cache_line) stripe {
    ts_mutex mutex;
  };

  // Stripe hooks handed to the scrubber. The stripe index is computed
  // at runtime and the matching unlock arrives through a different
  // callback, so the capability analysis cannot pair the acquire with
  // its release — opted out, with the pairing enforced by the scrubber's
  // RAII row guard and the TSan lane.
  void lock_row(std::uint32_t row) URMEM_NO_THREAD_SAFETY_ANALYSIS {
    stripes_[row & stripe_mask_].mutex.lock();
  }
  void unlock_row(std::uint32_t row) URMEM_NO_THREAD_SAFETY_ANALYSIS {
    stripes_[row & stripe_mask_].mutex.unlock();
  }

  /// Boundary maintenance: spend each live tile's deferred findings,
  /// (when `advance` is set) age it one epoch, and refresh its cached
  /// residual_rows(). Tile lifecycle state (`alive`, the manager's fault
  /// map, the residual cache) mutates here, so the caller holds the
  /// gate exclusively.
  void apply_boundary(bool advance) URMEM_REQUIRES(gate_);

  /// Runs the due scrub passes, recording findings for the next
  /// boundary. Concurrent with traffic under the shared gate; called
  /// from the single admin thread only.
  void run_due_scrubs() URMEM_REQUIRES_SHARED(gate_);

  std::uint32_t rows_ = 0;
  std::vector<word_t> words_;  ///< canonical per-row data (seeds.app)
  std::vector<std::unique_ptr<tile>> tiles_;

  ts_shared_mutex gate_;  ///< shared = traffic/scrub, exclusive = boundary
  static constexpr std::uint32_t stripe_mask_ = 63;
  std::array<stripe, stripe_mask_ + 1> stripes_;

  std::atomic<std::uint64_t> epoch_steps_{0};
  std::atomic<std::uint64_t> snapshots_{0};
};

}  // namespace urmem
