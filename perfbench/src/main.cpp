// perfbench_harness: runs one benchmark workload and prints one JSON
// result line. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_harness --spec FILE --seed N --seconds S --trace 0|1
//                     [--trace-out FILE]
//   perfbench_harness --spec FILE --seed N --setup-only 1
//
// A run sets the workload up once (--setup-only stops there and prints
// the set-up time; run.py starts several such processes and reports the
// median), then repeats whole timed passes until S seconds have elapsed, then
// runs the 1-thread / 1-client reference and checks every pass's
// simulated outputs against it. With --trace 1 the first half of the
// time runs untraced passes and the second half traced ones; the
// per-layer metrics come from the traced passes, and the difference
// between the halves is the tracing overhead.
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "urmem/common/hash.hpp"
#include "urmem/common/json.hpp"

namespace perfbench {
namespace {

struct options {
  std::string spec_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

options parse_args(int argc, char** argv) {
  options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--spec") {
      opts.spec_path = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--setup-only") {
      opts.setup_only = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opts.spec_path.empty() || !have_seed ||
      !(opts.setup_only || opts.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perfbench_harness --spec FILE --seed N "
        "(--seconds S --trace 0|1 [--trace-out FILE] | --setup-only 1)");
  }
  return opts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Spec parse with seeds.root = --seed (the scenario layer's own parse
/// and override path).
urmem::scenario_spec load_spec(const std::string& text, std::uint64_t seed) {
  urmem::json_value doc = urmem::json_value::parse(text);
  urmem::apply_spec_override(doc, "seed", std::to_string(seed));
  return urmem::scenario_spec::from_json(doc);
}

std::unique_ptr<workload> set_up(const std::string& spec_text,
                                 std::uint64_t seed, setup_steps& steps) {
  urmem::scenario_spec spec;
  steps.run("scenario.parse", [&] { spec = load_spec(spec_text, seed); });
  return spec.workload.name.empty() ? make_serve_workload(spec, steps)
                                    : make_batch_workload(spec, steps);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct phase {
  std::vector<pass_result> passes;
  double ops_per_s = 0.0;
};

/// Each campaign's median time (µs) across passes; every batch pass runs
/// the same campaigns in the same order. Empty for serve.
std::vector<double> campaign_medians(const std::vector<pass_result>& passes) {
  std::vector<double> medians(passes.front().campaign_us.size());
  for (std::size_t k = 0; k < medians.size(); ++k) {
    std::vector<double> times;
    for (const pass_result& r : passes) times.push_back(r.campaign_us.at(k));
    medians[k] = sample_quantile(times, 0.5);
  }
  return medians;
}

/// Throughput of a phase. Serve: the median over units of requests per
/// second. Batch: a pass's time is estimated as the sum of its
/// campaigns' median times, so a noise burst on the shared host costs
/// one campaign sample instead of a whole pass.
double throughput(const std::vector<pass_result>& passes) {
  const std::vector<double> medians = campaign_medians(passes);
  if (medians.empty()) {
    std::vector<double> rates;
    for (const pass_result& r : passes) {
      rates.push_back(static_cast<double>(r.ops) / r.wall_s);
    }
    return sample_quantile(rates, 0.5);
  }
  double pass_us = 0.0;
  for (const double us : medians) pass_us += us;
  return static_cast<double>(passes.front().ops) / (pass_us * 1e-6);
}

phase run_phase(workload& w, bool traced, double seconds) {
  phase p;
  const std::uint32_t pass_id = tracer::instance().id("bench.pass", span_kind::root);
  const std::uint64_t start = now_ns();
  do {
    span root(pass_id, p.passes.size());
    p.passes.push_back(w.run_pass(traced));
  } while (seconds_between(start, now_ns()) < seconds);
  p.ops_per_s = throughput(p.passes);
  return p;
}

urmem::json_value metrics_json(const std::vector<metric>& metrics) {
  urmem::json_value doc = urmem::json_value::make_object();
  for (const metric& m : metrics) {
    urmem::json_value entry = urmem::json_value::make_object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    doc.set(m.name, std::move(entry));
  }
  return doc;
}

/// End-to-end metrics of the untraced passes. Serve latency is per
/// request. Batch latency is per campaign (the time to one scheme's
/// CDF): quantiles over the workload's campaigns of each campaign's
/// median time across passes, so p99 is in effect the slowest campaign
/// and a noise burst in one pass does not become the tail.
std::vector<metric> end_to_end(const phase& p, double setup_s, double rss_mb,
                               std::uint64_t& latency_samples) {
  histogram requests;
  for (const pass_result& r : p.passes) requests.merge(r.latency_ns);
  const std::vector<double> campaigns = campaign_medians(p.passes);
  const bool per_request = campaigns.empty();
  latency_samples =
      per_request ? requests.count() : campaigns.size() * p.passes.size();
  const auto latency = [&](double q) {
    return per_request ? requests.quantile(q) * 1e-3
                       : sample_quantile(campaigns, q);
  };
  return {
      {"ops_per_s", p.ops_per_s, "1/s"},
      {"latency_p50_us", latency(0.5), "us"},
      {"latency_p99_us", latency(0.99), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Self time per layer, the unattributed remainder (time inside harness
/// frames not covered by any layer span) and the probes' cost, per pass.
void accounting_metrics(const std::vector<span_stats>& stats,
                        std::size_t passes, std::vector<metric>& out) {
  const tracer& t = tracer::instance();
  const double n = static_cast<double>(std::max<std::size_t>(passes, 1));
  // The layers a timed pass runs through (scenario and datasets work
  // only during set-up and are reported by their set-up steps).
  std::map<std::string, double> self;
  for (const char* layer :
       {"sim", "memory", "scheme", "yield", "ml", "serve", "lifecycle"}) {
    self[layer] = 0.0;
  }
  double unattributed = 0.0;
  double probe = 0.0;
  for (std::uint32_t id = 0; id < stats.size(); ++id) {
    const double s = static_cast<double>(stats[id].self_ns) * 1e-9 / n;
    switch (t.kind(id)) {
      case span_kind::layer:
        if (self.contains(t.layer(id))) self[t.layer(id)] += s;
        break;
      case span_kind::root:
        unattributed += s;
        break;
      case span_kind::probe:
        probe += static_cast<double>(stats[id].total_ns) * 1e-9 / n;
        break;
      case span_kind::wait:
        break;
    }
  }
  for (const auto& [layer, seconds] : self) {
    out.push_back({layer + ".self_s", seconds, "s"});
  }
  out.push_back({"unattributed_s", unattributed, "s"});
  out.push_back({"trace.probe_s", probe, "s"});
}

double step_seconds(const setup_steps& steps, const std::string& name) {
  const auto it = steps.seconds().find(name);
  return it == steps.seconds().end() ? 0.0 : it->second;
}

int run(const options& opts, std::uint64_t process_start) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    std::cerr << "perfbench_harness: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  const std::string spec_text = read_file(opts.spec_path);
  tracer& t = tracer::instance();
  t.set_enabled(opts.trace);

  // Set-up, timed from the start of main(): spec parse and resolve,
  // dataset generation, scheme/tile build and pool spawn.
  setup_steps steps;
  std::unique_ptr<workload> w = set_up(spec_text, opts.seed, steps);
  const double setup_s = seconds_between(process_start, now_ns());
  t.set_enabled(false);
  if (opts.setup_only) {
    urmem::json_value out = urmem::json_value::make_object();
    out.set("setup_s", setup_s);
    std::cout << out.dump(0) << "\n";
    return 0;
  }

  // Timed passes.
  const phase untraced =
      run_phase(*w, false, opts.trace ? opts.seconds / 2 : opts.seconds);
  const double rss_mb = peak_rss_mb();
  phase traced;
  std::vector<span_stats> stats;
  if (opts.trace) {
    t.reset_stats();
    t.set_enabled(true);
    traced = run_phase(*w, true, opts.seconds / 2);
    t.set_enabled(false);
    stats = t.merged();
  }

  // Output check against the reference at 1 thread / 1 client.
  const std::uint64_t reference = w->reference_fingerprint();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const phase* p : {&untraced, static_cast<const phase*>(&traced)}) {
    for (const pass_result& r : p->passes) {
      attempted += r.ops;
      if (r.fingerprint != reference) failed += r.ops;
    }
  }

  urmem::json_value out = urmem::json_value::make_object();
  out.set("build_type", build_type);
  out.set("compiler", PERFBENCH_COMPILER);
  out.set("seed", opts.seed);
  out.set("spec", load_spec(spec_text, opts.seed).to_json());
  out.set("correct", failed == 0 && attempted > 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("reference_fingerprint", urmem::to_hex16(reference));

  std::uint64_t latency_samples = 0;
  out.set("end_to_end",
          metrics_json(end_to_end(untraced, setup_s, rss_mb, latency_samples)));
  out.set("latency_samples", latency_samples);
  urmem::json_value passes = urmem::json_value::make_object();
  const std::pair<const char*, const phase*> phases[] = {
      {"untraced", &untraced}, {"traced", &traced}};
  for (const auto& [name, p] : phases) {
    urmem::json_value list = urmem::json_value::make_array();
    for (const pass_result& r : p->passes) {
      urmem::json_value entry = urmem::json_value::make_object();
      entry.set("wall_s", r.wall_s);
      entry.set("ops", r.ops);
      entry.set("fingerprint", urmem::to_hex16(r.fingerprint));
      urmem::json_value campaigns = urmem::json_value::make_array();
      for (const double us : r.campaign_us) campaigns.push_back(us);
      entry.set("campaign_us", std::move(campaigns));
      list.push_back(std::move(entry));
    }
    passes.set(name, std::move(list));
  }
  out.set("passes", std::move(passes));
  urmem::json_value setup = urmem::json_value::make_object();
  for (const auto& [name, seconds] : steps.seconds()) setup.set(name, seconds);
  out.set("setup_steps", std::move(setup));
  out.set("simulated", w->simulated());

  if (opts.trace) {
    std::vector<metric> layers;
    w->layer_metrics(stats, traced.passes.size(), layers);
    accounting_metrics(stats, traced.passes.size(), layers);
    layers.push_back({"scenario.resolve_ms",
                      (step_seconds(steps, "scenario.parse") +
                       step_seconds(steps, "scenario.resolve")) *
                          1e3,
                      "ms"});
    layers.push_back({"datasets.build_s",
                      step_seconds(steps, "datasets.build"), "s"});
    layers.push_back({"trace.overhead_ops_per_s",
                      traced.ops_per_s - untraced.ops_per_s, "1/s"});
    layers.push_back({"trace.overhead_share",
                      1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio"});
    out.set("per_layer", metrics_json(layers));
    out.set("spans_kept", t.kept_spans());
    out.set("spans_dropped", t.dropped_spans());
    if (!opts.trace_out.empty()) {
      t.write_chrome_trace(opts.trace_out);
      out.set("trace_file", opts.trace_out);
    }
  }
  std::cout << out.dump(0) << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t process_start = perfbench::now_ns();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv), process_start);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    return 2;
  }
}
