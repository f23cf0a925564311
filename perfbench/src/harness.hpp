// The benchmark's view of one workload: set up from a scenario spec,
// run timed passes over the program's public entry points, and run the
// single-thread (or single-client) reference the passes are checked
// against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"
#include "urmem/common/json.hpp"
#include "urmem/scenario/scenario_spec.hpp"

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed unit of work: a whole experiment pass (batch) or one
/// fixed request budget on a fresh service (serve).
struct pass_result {
  double wall_s = 0.0;
  std::uint64_t ops = 0;          ///< trials or requests completed
  std::uint64_t fingerprint = 0;  ///< hash of every simulated output
  histogram latency_ns;           ///< per-request latency (serve only)
  std::vector<double> campaign_us;  ///< per-campaign wall time (batch only)
};

/// Times the named steps of one set-up and opens a span around each
/// (recorded only while the tracer is enabled).
class setup_steps {
 public:
  template <typename F>
  void run(std::string_view name, F&& step) {
    span s(tracer::instance().id(name, span_kind::layer));
    const std::uint64_t start = now_ns();
    step();
    seconds_[std::string(name)] += seconds_between(start, now_ns());
  }
  [[nodiscard]] const std::map<std::string, double>& seconds() const {
    return seconds_;
  }

 private:
  std::map<std::string, double> seconds_;
};

class workload {
 public:
  virtual ~workload() = default;

  /// Runs one timed unit; `traced` selects the span-instrumented path,
  /// whose simulated outputs must equal the untraced path's.
  virtual pass_result run_pass(bool traced) = 0;

  /// Fingerprint of the same unit at 1 thread / 1 client, untimed.
  virtual std::uint64_t reference_fingerprint() = 0;

  /// Appends the workload's per-layer metrics, computed from the span
  /// statistics of `passes` traced passes.
  virtual void layer_metrics(const std::vector<span_stats>& stats,
                             std::size_t passes,
                             std::vector<metric>& out) const = 0;

  /// Simulated statistics of the last pass (deterministic per seed).
  [[nodiscard]] virtual urmem::json_value simulated() const = 0;
};

[[nodiscard]] std::unique_ptr<workload> make_batch_workload(
    const urmem::scenario_spec& spec, setup_steps& steps);
[[nodiscard]] std::unique_ptr<workload> make_serve_workload(
    const urmem::scenario_spec& spec, setup_steps& steps);

/// FNV-1a step over the 8 bytes of `value`.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t hash,
                                       std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}
inline constexpr std::uint64_t fingerprint_seed = 0xcbf29ce484222325ull;

/// Per-word cost in ns; 0 when nothing was measured.
[[nodiscard]] inline double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

}  // namespace perfbench
