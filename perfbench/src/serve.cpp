// Serve workloads: memory_service under closed-loop clients.
//
// The benchmark is the load generator. It draws every request (kind and
// row) from its own per-request stream of --seed, assigns request i to
// client i mod N, and paces lifecycle epochs itself: request i belongs
// to epoch i / requests_per_epoch, a client waits until the admin
// thread has stepped the service to that epoch, and the admin steps
// boundary e once the first e * requests_per_epoch requests completed.
// The executed request set per epoch is therefore the same at any
// client count, and memory_service's integer counters must equal the
// single-client reference exactly.
//
// The loop is closed because a memory client waits for each reply
// before it issues the next request.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "urmem/common/hash.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/serve/memory_service.hpp"

namespace perfbench {
namespace {

enum class op : std::uint8_t { store, readback, quality };

class serve_workload final : public workload {
 public:
  serve_workload(const urmem::scenario_spec& spec, setup_steps& steps)
      : spec_(spec) {
    auto& t = tracer::instance();
    op_ids_[0] = t.id("serve.store", span_kind::layer);
    op_ids_[1] = t.id("serve.readback", span_kind::layer);
    op_ids_[2] = t.id("serve.quality_query", span_kind::layer);
    wait_id_ = t.id("serve.epoch_wait", span_kind::wait);
    snapshot_id_ = t.id("serve.stats_snapshot", span_kind::layer);
    step_id_ = t.id("lifecycle.step_epoch", span_kind::layer);
    drain_id_ = t.id("lifecycle.drain", span_kind::layer);
    client_id_ = t.id("bench.client", span_kind::root);
    admin_id_ = t.id("bench.admin", span_kind::root);
    admin_wait_id_ = t.id("bench.admin_wait", span_kind::wait);
    join_id_ = t.id("bench.join", span_kind::wait);

    steps.run("scenario.resolve", [&] {
      if (urmem::resolve_schemes(spec_).empty()) {
        throw std::invalid_argument("no schemes");
      }
      if (spec_.serve.requests == 0) {
        throw std::invalid_argument("serve.requests must be positive");
      }
    });
    steps.run("serve.build", [&] {
      service_ = std::make_unique<urmem::memory_service>(spec_);
    });
  }

  pass_result run_pass(bool traced) override {
    if (!service_) service_ = std::make_unique<urmem::memory_service>(spec_);
    pass_result result = traced ? drive<true>(*service_, spec_.serve.clients)
                                : drive<false>(*service_, spec_.serve.clients);
    service_.reset();  // every unit starts from a freshly built service
    return result;
  }

  std::uint64_t reference_fingerprint() override {
    urmem::memory_service reference(spec_);
    return drive<false>(reference, 1).fingerprint;
  }

  void layer_metrics(const std::vector<span_stats>& stats, std::size_t passes,
                     std::vector<metric>& out) const override {
    const double n = static_cast<double>(std::max<std::size_t>(passes, 1));
    const char* names[] = {"serve.store_ns", "serve.readback_ns",
                           "serve.quality_query_us"};
    const double scale[] = {1.0, 1.0, 1e-3};
    const char* units[] = {"ns", "ns", "us"};
    for (int k = 0; k < 3; ++k) {
      const histogram& h = stats[op_ids_[k]].durations;
      const std::string base = names[k];
      out.push_back({base + ".p50", h.quantile(0.5) * scale[k], units[k]});
      out.push_back({base + ".p99", h.quantile(0.99) * scale[k], units[k]});
      out.push_back({base + ".p999", h.quantile(0.999) * scale[k], units[k]});
      out.push_back({base + ".count", static_cast<double>(h.count()), "count"});
    }
    out.push_back({"serve.epoch_wait_s",
                   static_cast<double>(stats[wait_id_].total_ns) * 1e-9 / n,
                   "s"});
    const histogram& steps = stats[step_id_].durations;
    out.push_back({"lifecycle.step_epoch_ms.p50", steps.quantile(0.5) * 1e-6,
                   "ms"});
    out.push_back({"lifecycle.step_epoch_ms.max",
                   static_cast<double>(steps.max()) * 1e-6, "ms"});
    out.push_back({"lifecycle.drain_ms",
                   stats[drain_id_].durations.mean() * 1e-6, "ms"});

    std::uint64_t retirements = 0, rewrites = 0, word_errors = 0, degraded = 0;
    for (const auto& tile : last_snapshot_.tiles) {
      retirements += tile.life.ce_retirements + tile.life.ue_retirements;
      rewrites += tile.life.corrected_rewrites;
      word_errors += tile.traffic.word_errors;
      degraded += tile.traffic.degraded_rows_seen;
    }
    out.push_back({"lifecycle.retirements", static_cast<double>(retirements),
                   "count"});
    out.push_back({"lifecycle.scrub_rewrites", static_cast<double>(rewrites),
                   "count"});
    out.push_back({"lifecycle.word_errors", static_cast<double>(word_errors),
                   "count"});
    out.push_back({"lifecycle.degraded_rows_seen",
                   static_cast<double>(degraded), "count"});
  }

  urmem::json_value simulated() const override {
    return last_snapshot_.to_json();
  }

 private:
  /// Epoch pacing shared by the clients and the admin thread.
  struct pacing {
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> epoch_done{0};
    std::atomic<bool> go{false};
  };

  template <bool Traced>
  pass_result drive(urmem::memory_service& service, std::uint32_t clients) {
    const std::uint64_t total = spec_.serve.requests;
    const std::uint64_t per_epoch = spec_.serve.requests_per_epoch;
    const std::uint64_t boundaries =
        per_epoch == 0 ? 0 : (total - 1) / per_epoch;
    const std::uint64_t traffic_seed =
        urmem::stream_seed(spec_.seeds.root, urmem::stream_tag("perfbench.traffic"));
    const std::uint32_t rows = service.rows();
    const std::uint32_t store_below = spec_.serve.store_percent;
    const std::uint32_t quality_below = store_below + spec_.serve.quality_percent;

    pacing pace;
    std::vector<histogram> latency(clients);
    std::vector<std::uint64_t> finished(clients, 0);

    const auto client_loop = [&](std::uint32_t client) {
      while (!pace.go.load(std::memory_order_acquire)) std::this_thread::yield();
      span root(client_id_);
      histogram& hist = latency[client];
      for (std::uint64_t index = client; index < total; index += clients) {
        const std::uint64_t epoch = per_epoch == 0 ? 0 : index / per_epoch;
        if (pace.epoch_done.load(std::memory_order_acquire) < epoch) {
          span wait(wait_id_, index);
          std::unique_lock<std::mutex> lock(pace.mutex);
          pace.cv.wait(lock, [&] {
            return pace.epoch_done.load(std::memory_order_acquire) >= epoch;
          });
        }
        urmem::rng gen = urmem::make_stream_rng(traffic_seed, index);
        const std::uint64_t draw = gen.uniform_below(100);
        const auto row = static_cast<std::uint32_t>(gen.uniform_below(rows));
        const op kind = draw < store_below     ? op::store
                        : draw < quality_below ? op::quality
                                               : op::readback;
        if constexpr (Traced) {
          span call(op_ids_[static_cast<int>(kind)], index);
          issue(service, kind, row);
          hist.record(call.finish());
        } else {
          const std::uint64_t start = now_ns();
          issue(service, kind, row);
          hist.record(now_ns() - start);
        }
        const std::uint64_t done =
            pace.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (per_epoch != 0 && done % per_epoch == 0) {
          const std::lock_guard<std::mutex> lock(pace.mutex);
          pace.cv.notify_all();
        }
      }
      finished[client] = now_ns();
    };

    const auto admin_loop = [&] {
      while (!pace.go.load(std::memory_order_acquire)) std::this_thread::yield();
      span root(admin_id_);
      for (std::uint64_t epoch = 1; epoch <= boundaries; ++epoch) {
        {
          span wait(admin_wait_id_, epoch);
          std::unique_lock<std::mutex> lock(pace.mutex);
          pace.cv.wait(lock, [&] {
            return pace.completed.load(std::memory_order_acquire) >=
                   epoch * per_epoch;
          });
        }
        {
          span step(step_id_, epoch);
          service.step_epoch();
        }
        {
          const std::lock_guard<std::mutex> lock(pace.mutex);
          pace.epoch_done.store(epoch, std::memory_order_release);
        }
        pace.cv.notify_all();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(clients + 1);
    if (boundaries > 0) threads.emplace_back(admin_loop);
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back(client_loop, c);
    }
    const std::uint64_t start = now_ns();
    pace.go.store(true, std::memory_order_release);
    {
      span join(join_id_);
      for (std::thread& thread : threads) thread.join();
    }

    pass_result result;
    result.wall_s =
        seconds_between(start, *std::max_element(finished.begin(), finished.end()));
    result.ops = pace.completed.load();
    for (const histogram& h : latency) result.latency_ns.merge(h);
    {
      span drain(drain_id_);
      service.drain();
    }
    {
      span snapshot(snapshot_id_);
      last_snapshot_ = service.stats_snapshot();
    }
    result.fingerprint = urmem::fnv1a64(last_snapshot_.to_json().dump(0));
    return result;
  }

  static void issue(urmem::memory_service& service, op kind,
                    std::uint32_t row) {
    switch (kind) {
      case op::store:
        service.store(row);
        break;
      case op::readback:
        service.readback(row);
        break;
      case op::quality:
        service.quality_query();
        break;
    }
  }

  urmem::scenario_spec spec_;
  std::unique_ptr<urmem::memory_service> service_;
  urmem::service_snapshot last_snapshot_;
  std::uint32_t op_ids_[3];
  std::uint32_t wait_id_, snapshot_id_, step_id_, drain_id_, client_id_,
      admin_id_, admin_wait_id_, join_id_;
};

}  // namespace

std::unique_ptr<workload> make_serve_workload(const urmem::scenario_spec& spec,
                                              setup_steps& steps) {
  return std::make_unique<serve_workload>(spec, steps);
}

}  // namespace perfbench
