#include "urmem/serve/service_driver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/common/thread_safety.hpp"

namespace urmem {

namespace {

/// Shared pacing state: the completed-request count, the admin
/// thread's published epoch and the deadline stop flag. All three are
/// atomics so a client's per-request checks are plain loads of
/// read-mostly lines; each is *changed* under `mutex` (or, for
/// `completed`, followed by taking it) before a notify, so a waiter
/// that checked its predicate under the mutex cannot miss the wakeup.
/// Clients add to `completed` once per epoch they leave, not per
/// request.
struct pacing {
  ts_mutex mutex;
  ts_condition_variable cv;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> epoch_done{0};
  std::atomic<bool> stop{false};  ///< deadline reached
};

/// Request kinds, indexing each client's per-kind latency histograms.
enum request_kind : std::size_t { store_op, readback_op, quality_op, op_kinds };
using kind_histograms = std::array<latency_histogram, op_kinds>;

}  // namespace

driver_config driver_config_from(const scenario_spec& spec) {
  driver_config config;
  config.clients = spec.serve.clients;
  config.requests = spec.serve.requests;
  config.requests_per_epoch = spec.serve.requests_per_epoch;
  config.store_percent = spec.serve.store_percent;
  config.quality_percent = spec.serve.quality_percent;
  config.seed_root = spec.seeds.root;
  return config;
}

drive_report drive(memory_service& service, const driver_config& config) {
  const std::uint64_t total = config.requests;
  const std::uint64_t per_epoch = config.requests_per_epoch;
  const std::uint32_t clients = std::max<std::uint32_t>(1, config.clients);
  const std::uint64_t traffic_seed =
      stream_seed(config.seed_root, stream_tag("serve.traffic"));
  const std::uint32_t rows = service.rows();
  const bool timed = config.duration_seconds > 0.0;

  pacing pace;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      timed ? config.duration_seconds : 0.0));

  std::vector<kind_histograms> histograms(clients);

  auto client_loop = [&](std::uint32_t client) {
    kind_histograms& by_kind = histograms[client];
    // Requests this client finished but has not added to pace.completed
    // yet. It publishes them before it waits for a later epoch and when
    // it stops: the admin needs epoch e's requests only once every
    // client has moved past epoch e, and a client cannot move past it
    // without publishing, so the boundary still fires exactly when the
    // first e*per_epoch requests are done.
    std::uint64_t unpublished = 0;
    const auto publish = [&] {
      const std::uint64_t done =
          pace.completed.fetch_add(unpublished, std::memory_order_acq_rel) +
          unpublished;
      unpublished = 0;
      if (done == total || (per_epoch > 0 && done % per_epoch == 0)) {
        {
          ts_lock_guard lock(pace.mutex);  // no lost wakeup; see pacing
        }
        pace.cv.notify_all();
      }
    };

    for (std::uint64_t index = client; index < total; index += clients) {
      const std::uint64_t target = per_epoch > 0 ? index / per_epoch : 0;
      if (pace.epoch_done.load(std::memory_order_acquire) < target) {
        publish();
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop.load(std::memory_order_acquire) &&
               pace.epoch_done.load(std::memory_order_acquire) < target) {
          pace.cv.wait(pace.mutex);
        }
      }
      if (pace.stop.load(std::memory_order_acquire)) break;

      rng gen = make_stream_rng(traffic_seed, index);
      const std::uint64_t draw = gen.uniform_below(100);
      const auto row = static_cast<std::uint32_t>(gen.uniform_below(rows));

      request_kind kind = store_op;
      const auto issued = std::chrono::steady_clock::now();
      if (draw < config.store_percent) {
        service.store(row);
      } else if (draw < config.store_percent + config.quality_percent) {
        service.quality_query();
        kind = quality_op;
      } else {
        service.readback(row);
        kind = readback_op;
      }
      const auto finished = std::chrono::steady_clock::now();
      by_kind[kind].record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                               issued)
              .count()));
      ++unpublished;

      if (timed && finished >= deadline) {
        {
          ts_lock_guard lock(pace.mutex);
          pace.stop.store(true, std::memory_order_release);
        }
        pace.cv.notify_all();
        break;
      }
    }
    publish();
  };

  // Epoch boundaries strictly inside the budget: boundary e (stepping
  // the service to epoch e) fires once the first e*per_epoch requests
  // completed, for every e with e*per_epoch < total.
  auto admin_loop = [&] {
    const std::uint64_t boundaries =
        (per_epoch == 0 || total == 0) ? 0 : (total - 1) / per_epoch;
    for (std::uint64_t epoch = 1; epoch <= boundaries; ++epoch) {
      {
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop.load(std::memory_order_acquire) &&
               pace.completed.load(std::memory_order_acquire) <
                   epoch * per_epoch) {
          pace.cv.wait(pace.mutex);
        }
        if (pace.stop.load(std::memory_order_acquire)) return;
      }
      service.step_epoch();
      {
        ts_lock_guard lock(pace.mutex);
        pace.epoch_done.store(epoch, std::memory_order_release);
      }
      pace.cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(clients + 1);
  if (per_epoch > 0) workers.emplace_back(admin_loop);
  for (std::uint32_t client = 0; client < clients; ++client) {
    workers.emplace_back(client_loop, client);
  }
  for (std::thread& worker : workers) worker.join();

  service.drain();

  drive_report report;
  report.counters = service.stats_snapshot();
  for (const kind_histograms& by_kind : histograms) {
    report.store_latency.merge(by_kind[store_op]);
    report.readback_latency.merge(by_kind[readback_op]);
    report.quality_latency.merge(by_kind[quality_op]);
  }
  report.latency.merge(report.store_latency);
  report.latency.merge(report.readback_latency);
  report.latency.merge(report.quality_latency);
  report.executed = pace.completed.load(std::memory_order_acquire);
  const auto end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  report.requests_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.executed) / report.wall_seconds
          : 0.0;
  return report;
}

json_value drive_report::to_json() const {
  json_value doc = json_value::make_object();
  doc.set("counters", counters.to_json());

  json_value latency_json = json_value::make_object();
  latency_json.set("samples", latency.count());
  latency_json.set("wall_seconds", wall_seconds);
  latency_json.set("requests_per_second", requests_per_second);
  latency_json.set("mean_ns", latency.mean());
  latency_json.set("p50_ns", latency.quantile(0.5));
  latency_json.set("p99_ns", latency.quantile(0.99));
  latency_json.set("p999_ns", latency.quantile(0.999));
  latency_json.set("min_ns", latency.min());
  latency_json.set("max_ns", latency.max());
  const auto split = [&](const char* key, const latency_histogram& kind) {
    json_value kind_json = json_value::make_object();
    kind_json.set("samples", kind.count());
    kind_json.set("p50_ns", kind.quantile(0.5));
    kind_json.set("p99_ns", kind.quantile(0.99));
    kind_json.set("p999_ns", kind.quantile(0.999));
    latency_json.set(key, std::move(kind_json));
  };
  split("store", store_latency);
  split("readback", readback_latency);
  split("quality_query", quality_latency);
  doc.set("latency", std::move(latency_json));
  return doc;
}

}  // namespace urmem
