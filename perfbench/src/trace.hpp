// Measurement primitives of the benchmark harness: a steady clock, an
// interpolating log-linear histogram, and an in-memory span tracer.
//
// The harness owns these instead of reusing the program's
// latency_histogram: a change to the program must never change how the
// benchmark measures it. Quantiles interpolate inside a bucket so that
// two runs of the same code report values with all their digits rather
// than the same bucket bound.
//
// Spans record (name, start, end, parent, key) where key is the trial
// or request id. Each thread keeps its own span stack, per-name
// statistics and a bounded span buffer; nothing is shared on the hot
// path. Statistics are merged and the buffers written as Chrome
// trace-event JSON only after every traced thread has stopped.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock; never the wall clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Log-linear histogram of non-negative integer samples: exact below
/// 128, then 64 sub-buckets per octave (relative bucket width <= 1/64).
class histogram {
 public:
  void record(std::uint64_t value);
  void merge(const histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Value at quantile q in [0, 1], interpolated linearly by rank inside
  /// its bucket and clamped to the observed [min, max]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr unsigned sub_bits = 6;
  static constexpr std::size_t table_size = (64 - sub_bits + 1) << sub_bits;
  static std::size_t index_of(std::uint64_t value);
  static std::uint64_t lower_of(std::size_t index);
  static std::uint64_t width_of(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // sized on first record
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Quantile of a small sample (linear interpolation between order
/// statistics, as numpy's default); 0 when empty.
[[nodiscard]] double sample_quantile(std::vector<double> values, double q);

/// What a span's time counts as when self times are summed per layer.
enum class span_kind : std::uint8_t {
  layer,  ///< work inside a program layer (name prefix = layer)
  wait,   ///< a thread blocked on other threads; reported on its own
  root,   ///< harness frame; its uncovered time is the unattributed remainder
  probe,  ///< extra timing-only calls the traced run adds (overhead)
};

/// Merged per-name statistics.
struct span_stats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;     ///< total minus same-thread children
  std::uint64_t last_end_ns = 0; ///< latest end over all threads
  histogram durations;
};

/// Process-wide span tracer. Names are registered (single-threaded)
/// before any traced work runs; spans are opened only while enabled.
class tracer {
 public:
  static tracer& instance();

  /// Registers `name` (idempotent) and returns its id. Its layer is the
  /// text before the first '.'.
  std::uint32_t id(std::string_view name, span_kind kind);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Clears every thread's statistics (span buffers are kept). Call only
  /// while no traced thread is running.
  void reset_stats();

  /// Per-name statistics merged over all threads, indexed by id. Call
  /// only while no traced thread is running.
  [[nodiscard]] std::vector<span_stats> merged() const;

  /// Latest end time of a span named `id` on any thread. Call only while
  /// the threads that record it are idle.
  [[nodiscard]] std::uint64_t latest_end(std::uint32_t id) const;

  [[nodiscard]] const std::string& layer(std::uint32_t id) const {
    return names_[id].layer;
  }
  [[nodiscard]] span_kind kind(std::uint32_t id) const {
    return names_[id].kind;
  }

  /// Spans kept in memory vs. counted but not kept (buffer cap reached).
  [[nodiscard]] std::uint64_t kept_spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

  /// Writes every kept span as Chrome trace-event JSON ("X" events, µs
  /// since the tracer was created), openable in Perfetto.
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class span;

  struct frame {
    std::uint32_t name;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t key;
  };
  struct record {
    std::uint32_t name;
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t key;
  };
  struct thread_state {
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 1;
    std::vector<frame> stack;
    std::vector<record> spans;
    std::size_t span_cap = 0;
    std::uint64_t dropped = 0;
    std::vector<span_stats> stats;
  };
  struct name_info {
    std::string name;
    std::string layer;
    span_kind kind;
  };

  tracer();
  thread_state& local();

  // Kept-span budget: the first few threads keep their first spans
  // (enough to read a trace in Perfetto); every span still counts in
  // the statistics.
  static constexpr std::size_t spans_per_thread = 10'000;
  static constexpr std::size_t threads_keeping_spans = 12;

  bool enabled_ = false;
  std::uint64_t origin_ns_;
  std::vector<name_info> names_;
  mutable std::mutex mutex_;  // guards threads_ (registration)
  std::vector<std::unique_ptr<thread_state>> threads_;
};

/// RAII span on the calling thread. `parent` 0 = the innermost open
/// span of this thread; pass a span id to link across threads. A span
/// without a key inherits the innermost open span's key.
class span {
 public:
  static constexpr std::uint64_t no_key = ~std::uint64_t{0};

  explicit span(std::uint32_t name, std::uint64_t key = no_key,
                std::uint64_t parent = 0);
  ~span() { finish(); }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// Ends the span now (idempotent) and returns its duration in ns.
  std::uint64_t finish();

 private:
  tracer::thread_state* state_;
  std::uint64_t id_ = 0;
  std::uint64_t duration_ = 0;
  bool open_;
};

}  // namespace perfbench
