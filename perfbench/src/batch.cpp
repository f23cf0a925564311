// Batch workloads: the paper's Fig. 7 application-quality sweep and the
// Fig. 5 MSE/yield sweep.
//
// Untraced passes call the program the way the scenario workloads do:
// Fig. 7 through sim's run_quality_experiment per (application, scheme),
// Fig. 5 through yield's mse_strata/sample_mse on sim's campaign pool.
// Traced passes make the same calls one level down (the steps of
// run_quality_experiment and store_and_readback, each behind a span);
// their CDFs must equal the untraced ones bit for bit, which also proves
// that the traced decomposition still matches the program.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <span>
#include <stdexcept>
#include <tuple>

#include "harness.hpp"
#include "urmem/common/binomial.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace perfbench {
namespace {

using urmem::word_t;

std::uint64_t mix_double(std::uint64_t hash, double value) {
  return mix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t mix_cdf(std::uint64_t hash, const urmem::empirical_cdf& cdf) {
  hash = mix(hash, cdf.size());
  for (const double v : cdf.support()) hash = mix_double(hash, v);
  for (const double c : cdf.cumulative()) hash = mix_double(hash, c);
  return hash;
}

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

/// Shared part of both batch workloads: the campaign pool and the
/// campaign-level accounting of traced passes.
class batch_workload : public workload {
 protected:
  explicit batch_workload(const urmem::scenario_spec& spec) : spec_(spec) {
    auto& t = tracer::instance();
    campaign_id_ = t.id("sim.campaign", span_kind::wait);
    trial_id_ = t.id("sim.trial", span_kind::layer);
    probe_id_ = t.id("bench.probe", span_kind::probe);
  }

  void spawn_pool(setup_steps& steps) {
    steps.run("sim.pool_spawn", [&] {
      runner_ = std::make_unique<urmem::campaign_runner>(
          urmem::campaign_config{.threads = spec_.run.threads,
                                 .batch_size = spec_.run.batch,
                                 .seed = spec_.seeds.root});
    });
  }

  [[nodiscard]] urmem::campaign_runner reference_runner() const {
    return urmem::campaign_runner({.threads = 1,
                                   .batch_size = spec_.run.batch,
                                   .seed = spec_.seeds.root});
  }

  /// map_weighted with a span around the call (main thread, waiting)
  /// and one per trial (workers). Reduction time is measured from the
  /// last trial's end to the call's return.
  template <typename Body>
  urmem::empirical_cdf traced_campaign(std::uint64_t trials, Body&& body) {
    span call(campaign_id_);
    const std::uint64_t parent = call.id();
    const std::uint64_t start = now_ns();
    urmem::empirical_cdf cdf = runner_->map_weighted(
        trials, [&](std::uint64_t trial, urmem::rng& gen) {
          span s(trial_id_, trial, parent);
          return body(trial, gen);
        });
    const std::uint64_t returned = now_ns();
    const std::uint64_t last =
        std::clamp(tracer::instance().latest_end(trial_id_), start, returned);
    reduce_s_ += seconds_between(last, returned);
    phase_thread_s_ += runner_->threads() * seconds_between(start, last);
    return cdf;
  }

  void campaign_metrics(const std::vector<span_stats>& stats,
                        std::size_t passes, std::vector<metric>& out) const {
    const double n = static_cast<double>(std::max<std::size_t>(passes, 1));
    const double busy = static_cast<double>(stats[trial_id_].total_ns) * 1e-9;
    out.push_back({"sim.campaign.trial_busy_s", busy / n, "s"});
    out.push_back({"sim.campaign.reduce_s", reduce_s_ / n, "s"});
    out.push_back({"sim.campaign.idle_share",
                   phase_thread_s_ > 0.0 ? 1.0 - busy / phase_thread_s_ : 0.0,
                   "ratio"});
  }

  urmem::scenario_spec spec_;
  std::unique_ptr<urmem::campaign_runner> runner_;
  std::uint32_t campaign_id_;
  std::uint32_t trial_id_;
  std::uint32_t probe_id_;
  double reduce_s_ = 0.0;
  double phase_thread_s_ = 0.0;
};

// ------------------------------------------------------------ fig7-apps

class quality_workload final : public batch_workload {
 public:
  quality_workload(const urmem::scenario_spec& spec, setup_steps& steps)
      : batch_workload(spec) {
    auto& t = tracer::instance();
    experiment_id_ = t.id("sim.experiment", span_kind::layer);
    baseline_id_ = t.id("sim.baseline", span_kind::layer);
    store_id_ = t.id("sim.store_and_readback", span_kind::layer);
    quantize_id_ = t.id("sim.quantize", span_kind::layer);
    dequantize_id_ = t.id("sim.dequantize", span_kind::layer);
    build_id_ = t.id("scheme.build", span_kind::layer);
    sample_id_ = t.id("memory.sample_fault_map", span_kind::layer);
    set_map_id_ = t.id("scheme.set_fault_map", span_kind::layer);
    write_id_ = t.id("scheme.write_block", span_kind::layer);
    read_id_ = t.id("scheme.read_block", span_kind::layer);

    steps.run("scenario.resolve", [&] {
      recipes_ = urmem::resolve_schemes(spec_);
      if (recipes_.empty()) throw std::invalid_argument("no schemes");
      const urmem::option_map& options = spec_.workload.options;
      config_.pcell = spec_.resolved_pcell("fig7-quality");
      config_.storage = spec_.storage();
      config_.samples_per_count = options.get_u32("samples", 10);
      config_.coverage = options.get_double("coverage", 0.99);
      config_.polarity = spec_.fault.polarity;
      config_.seed = spec_.seeds.root;
    });
    steps.run("datasets.build", [&] {
      apps_ = urmem::make_all_applications(spec_.seeds.app);
    });
    for (const auto& app : apps_) {
      eval_ids_.push_back(t.id("ml.evaluate." + lowercase(app->name()),
                               span_kind::layer));
    }
    spawn_pool(steps);
  }

  pass_result run_pass(bool traced) override {
    const std::uint64_t start = now_ns();
    pass_result result = traced ? traced_pass() : untraced_pass(*runner_);
    result.wall_s = seconds_between(start, now_ns());
    return result;
  }

  std::uint64_t reference_fingerprint() override {
    urmem::campaign_runner reference = reference_runner();
    return untraced_pass(reference).fingerprint;
  }

  void layer_metrics(const std::vector<span_stats>& stats, std::size_t passes,
                     std::vector<metric>& out) const override {
    const double n = static_cast<double>(std::max<std::size_t>(passes, 1));
    campaign_metrics(stats, passes, out);
    const auto us = [&](std::uint32_t id, double q) {
      return stats[id].durations.quantile(q) * 1e-3;
    };
    out.push_back({"sim.store_and_readback_us.p50", us(store_id_, 0.5), "us"});
    out.push_back({"sim.store_and_readback_us.p99", us(store_id_, 0.99), "us"});
    out.push_back({"sim.quantize_us.p50", us(quantize_id_, 0.5), "us"});
    out.push_back({"memory.sample_fault_map_us.p50", us(sample_id_, 0.5), "us"});
    out.push_back({"memory.sample_fault_map_us.p99", us(sample_id_, 0.99), "us"});
    out.push_back({"memory.faults_per_map",
                   per(static_cast<double>(faults_), static_cast<double>(maps_)),
                   "count"});
    out.push_back({"memory.read_rows_ns_per_word",
                   per(static_cast<double>(probe_read_ns_),
                       static_cast<double>(probe_words_)),
                   "ns"});
    out.push_back({"scheme.set_fault_map_us.p50", us(set_map_id_, 0.5), "us"});
    const auto words = static_cast<double>(words_);
    out.push_back({"scheme.write_block_ns_per_word",
                   per(static_cast<double>(stats[write_id_].total_ns), words),
                   "ns"});
    out.push_back({"scheme.read_block_ns_per_word",
                   per(static_cast<double>(stats[read_id_].total_ns), words),
                   "ns"});
    out.push_back({"scheme.encode_block_ns_per_word",
                   per(static_cast<double>(probe_encode_ns_),
                       static_cast<double>(probe_words_)),
                   "ns"});
    out.push_back({"scheme.decode_block_ns_per_word",
                   per(static_cast<double>(probe_decode_ns_),
                       static_cast<double>(probe_words_)),
                   "ns"});
    out.push_back({"scheme.corrected_words",
                   static_cast<double>(corrected_) / n, "count"});
    out.push_back({"scheme.uncorrectable_words",
                   static_cast<double>(uncorrectable_) / n, "count"});
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      const std::string base = "ml.evaluate_ms." + lowercase(apps_[a]->name());
      const histogram& h = stats[eval_ids_[a]].durations;
      out.push_back({base + ".p50", h.quantile(0.5) * 1e-6, "ms"});
      out.push_back({base + ".p99", h.quantile(0.99) * 1e-6, "ms"});
    }
  }

  urmem::json_value simulated() const override {
    urmem::json_value doc = urmem::json_value::make_array();
    for (const auto& [name, clean, cdf] : last_results_) {
      urmem::json_value entry = urmem::json_value::make_object();
      entry.set("experiment", name);
      entry.set("clean_metric", clean);
      entry.set("trials", static_cast<std::uint64_t>(cdf.size()));
      entry.set("q01", cdf.quantile(0.01));
      entry.set("q50", cdf.quantile(0.50));
      doc.push_back(std::move(entry));
    }
    return doc;
  }

 private:
  struct stratum {
    std::uint64_t n;
    double weight_each;
  };

  [[nodiscard]] urmem::quality_experiment_config config_for(
      const urmem::scheme_recipe& recipe) const {
    urmem::quality_experiment_config config = config_;
    config.storage.spare_rows_per_tile = recipe.spare_rows;
    config.storage.regions = recipe.regions;
    return config;
  }

  pass_result untraced_pass(urmem::campaign_runner& runner) {
    pass_result result;
    result.fingerprint = fingerprint_seed;
    last_results_.clear();
    for (const auto& app : apps_) {
      for (const urmem::scheme_recipe& recipe : recipes_) {
        const std::uint64_t start = now_ns();
        urmem::quality_result q = urmem::run_quality_experiment(
            *app, recipe.factory, recipe.display_name, config_for(recipe),
            runner);
        result.campaign_us.push_back(seconds_between(start, now_ns()) * 1e6);
        result.ops += runner.last_stats().trials;
        result.fingerprint = mix_cdf(mix_double(result.fingerprint,
                                                q.clean_metric),
                                     q.cdf);
        last_results_.push_back({app->name() + "/" + recipe.display_name,
                                 q.clean_metric, std::move(q.cdf)});
      }
    }
    return result;
  }

  pass_result traced_pass() {
    pass_result result;
    result.fingerprint = fingerprint_seed;
    last_results_.clear();
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (const urmem::scheme_recipe& recipe : recipes_) {
        span experiment(experiment_id_);
        const std::uint64_t start = now_ns();
        const auto [clean, cdf, trials] =
            traced_experiment(*apps_[a], eval_ids_[a], recipe);
        result.campaign_us.push_back(seconds_between(start, now_ns()) * 1e6);
        result.ops += trials;
        result.fingerprint =
            mix_cdf(mix_double(result.fingerprint, clean), cdf);
        last_results_.push_back(
            {apps_[a]->name() + "/" + recipe.display_name, clean, cdf});
      }
    }
    return result;
  }

  /// run_quality_experiment's steps, in its order and on its streams.
  std::tuple<double, urmem::empirical_cdf, std::uint64_t> traced_experiment(
      const urmem::application& app, std::uint32_t eval_id,
      const urmem::scheme_recipe& recipe) {
    const urmem::quality_experiment_config config = config_for(recipe);
    double clean_metric = 0.0;
    {
      span baseline(baseline_id_);
      urmem::rng gen = urmem::named_stream_rng(runner_->seed(),
                                               "quality.baseline");
      const urmem::matrix stored =
          store_and_readback(app.train_features(), config.storage,
                             recipe.factory, urmem::no_fault_injector(), gen,
                             /*trial=*/false, /*probe=*/false);
      span evaluate(eval_id);
      clean_metric = app.evaluate(stored);
    }

    const std::uint64_t n_max = urmem::failure_count_limit(config);
    const urmem::array_geometry geometry{config.storage.rows_per_tile,
                                         config.storage.word_bits};
    const urmem::binomial_distribution dist(geometry.cells(), config.pcell);
    std::vector<stratum> strata;
    for (std::uint64_t n = 1; n <= n_max; ++n) {
      const double pn = dist.pmf(n);
      if (pn <= 0.0) continue;
      strata.push_back({n, pn / config.samples_per_count});
    }
    const std::uint64_t trials = strata.size() * config.samples_per_count;

    urmem::empirical_cdf cdf = traced_campaign(
        trials, [&](std::uint64_t trial, urmem::rng& gen) {
          const stratum& s = strata[trial / config.samples_per_count];
          const urmem::fault_injector inject =
              urmem::exact_fault_injector(s.n, config.polarity);
          const urmem::matrix stored =
              store_and_readback(app.train_features(), config.storage,
                                 recipe.factory, inject, gen, /*trial=*/true,
                                 trial % probe_stride == 0);
          double metric = 0.0;
          {
            span evaluate(eval_id, trial);
            metric = app.evaluate(stored);
          }
          const double normalized = std::clamp(
              std::isfinite(metric) ? metric / clean_metric : 0.0, 0.0, 1.0);
          return urmem::weighted_sample{normalized, s.weight_each};
        });
    return {clean_metric, std::move(cdf), trials};
  }

  static urmem::protected_memory make_tile(const urmem::storage_config& config,
                                           const urmem::scheme_factory& factory) {
    std::unique_ptr<urmem::protection_scheme> scheme =
        factory(config.rows_per_tile);
    return config.regions.empty()
               ? urmem::protected_memory(config.rows_per_tile,
                                         std::move(scheme),
                                         config.spare_rows_per_tile)
               : urmem::protected_memory(config.rows_per_tile,
                                         std::move(scheme), config.regions);
  }

  /// sim's store_and_readback, one span per step.
  urmem::matrix store_and_readback(const urmem::matrix& input,
                                   const urmem::storage_config& config,
                                   const urmem::scheme_factory& factory,
                                   const urmem::fault_injector& inject,
                                   urmem::rng& gen, bool trial, bool probe) {
    span whole(store_id_);
    const urmem::matrix_quantizer quantizer(
        urmem::fixed_point_codec(config.word_bits, config.frac_bits));
    std::vector<word_t> words;
    {
      span s(quantize_id_);
      words = quantizer.to_words(input);
    }
    std::vector<word_t> restored(words.size());
    std::size_t cursor = 0;
    while (cursor < words.size()) {
      const auto tile_words = std::min<std::size_t>(config.rows_per_tile,
                                                    words.size() - cursor);
      span build(build_id_);
      urmem::protected_memory memory = make_tile(config, factory);
      build.finish();

      span sample(sample_id_);
      urmem::fault_map faults = inject(memory.storage_geometry(), gen);
      sample.finish();
      if (trial) {
        faults_.fetch_add(faults.fault_count(), std::memory_order_relaxed);
        maps_.fetch_add(1, std::memory_order_relaxed);
      }
      {
        span s(set_map_id_);
        memory.set_fault_map(std::move(faults));
      }
      const auto data = std::span<const word_t>(words).subspan(cursor, tile_words);
      const auto out = std::span<word_t>(restored).subspan(cursor, tile_words);
      {
        span s(write_id_);
        memory.write_block(0, data);
      }
      urmem::protected_memory::block_stats block;
      {
        span s(read_id_);
        memory.read_block(0, out, &block);
      }
      words_.fetch_add(tile_words, std::memory_order_relaxed);
      corrected_.fetch_add(block.corrected, std::memory_order_relaxed);
      uncorrectable_.fetch_add(block.uncorrectable, std::memory_order_relaxed);
      if (probe) probe_codec(memory, data);
      cursor += tile_words;
    }
    span s(dequantize_id_);
    return quantizer.from_words(restored, input.rows(), input.cols());
  }

  /// Splits write_block/read_block where the public calls allow it: the
  /// scheme's block codec alone, and the array's raw row reads alone,
  /// on scratch buffers (the tile's state is left untouched).
  void probe_codec(const urmem::protected_memory& memory,
                   std::span<const word_t> data) {
    span p(probe_id_);
    thread_local std::vector<word_t> encoded;
    thread_local std::vector<word_t> raw;
    encoded.resize(data.size());
    raw.resize(data.size());
    const std::uint64_t t0 = now_ns();
    memory.scheme().encode_block(0, data, encoded);
    const std::uint64_t t1 = now_ns();
    memory.array().read_rows(0, raw);
    const std::uint64_t t2 = now_ns();
    (void)memory.scheme().decode_block(0, raw, raw);
    const std::uint64_t t3 = now_ns();
    probe_encode_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    probe_read_ns_.fetch_add(t2 - t1, std::memory_order_relaxed);
    probe_decode_ns_.fetch_add(t3 - t2, std::memory_order_relaxed);
    probe_words_.fetch_add(data.size(), std::memory_order_relaxed);
  }

  static constexpr std::uint64_t probe_stride = 8;

  std::vector<urmem::scheme_recipe> recipes_;
  urmem::quality_experiment_config config_;
  std::vector<std::unique_ptr<urmem::application>> apps_;
  std::vector<std::uint32_t> eval_ids_;
  std::uint32_t experiment_id_, baseline_id_, store_id_, quantize_id_,
      dequantize_id_, build_id_, sample_id_, set_map_id_, write_id_, read_id_;

  struct experiment_result {
    std::string name;
    double clean_metric;
    urmem::empirical_cdf cdf;
  };
  std::vector<experiment_result> last_results_;

  // Traced-pass counters (trial bodies run on the pool's workers).
  std::atomic<std::uint64_t> faults_{0}, maps_{0}, words_{0}, corrected_{0},
      uncorrectable_{0};
  std::atomic<std::uint64_t> probe_encode_ns_{0}, probe_read_ns_{0},
      probe_decode_ns_{0}, probe_words_{0};
};

// ----------------------------------------------------------- fig5-yield

class mse_workload final : public batch_workload {
 public:
  mse_workload(const urmem::scenario_spec& spec, setup_steps& steps)
      : batch_workload(spec) {
    sample_id_ = tracer::instance().id("yield.sample_mse", span_kind::layer);
    steps.run("scenario.resolve", [&] {
      recipes_ = urmem::resolve_word_transform_schemes(spec_, "fig5-mse");
      if (recipes_.empty()) throw std::invalid_argument("no schemes");
      pcell_ = spec_.resolved_pcell("fig5-mse");
      rows_ = spec_.geometry.rows_per_tile;
      const urmem::option_map& options = spec_.workload.options;
      config_.total_runs = options.get_u64("runs", 10'000'000);
      config_.n_max = options.get_u64("nmax", 150);
      config_.seed = spec_.seeds.root;
    });
    steps.run("scheme.build", [&] {
      for (const urmem::scheme_recipe& recipe : recipes_) {
        schemes_.push_back(recipe.factory(rows_));
      }
    });
    spawn_pool(steps);
  }

  pass_result run_pass(bool traced) override {
    const std::uint64_t start = now_ns();
    pass_result result =
        traced ? pass<true>(*runner_) : pass<false>(*runner_);
    result.wall_s = seconds_between(start, now_ns());
    return result;
  }

  std::uint64_t reference_fingerprint() override {
    urmem::campaign_runner reference = reference_runner();
    return pass<false>(reference).fingerprint;
  }

  void layer_metrics(const std::vector<span_stats>& stats, std::size_t passes,
                     std::vector<metric>& out) const override {
    campaign_metrics(stats, passes, out);
    out.push_back({"yield.sample_mse_ns.p50",
                   stats[sample_id_].durations.quantile(0.5), "ns"});
    out.push_back({"scheme.row_cost_ns",
                   per(static_cast<double>(row_cost_ns_),
                       static_cast<double>(row_cost_rows_)),
                   "ns"});
  }

  urmem::json_value simulated() const override {
    urmem::json_value doc = urmem::json_value::make_object();
    // Probed trials whose redraw disagreed with sample_mse (their row
    // cost timings are discarded).
    doc.set("probe_mismatches", probe_mismatches_.load());
    urmem::json_value& results =
        doc.set("results", urmem::json_value::make_array());
    for (std::size_t i = 0; i < last_cdfs_.size(); ++i) {
      urmem::json_value entry = urmem::json_value::make_object();
      entry.set("scheme", schemes_[i]->name());
      entry.set("trials", static_cast<std::uint64_t>(last_cdfs_[i].size()));
      entry.set("mse_at_yield_99", urmem::mse_for_yield(last_cdfs_[i], 0.99));
      entry.set("yield_at_mse_1e6", urmem::yield_at_mse(last_cdfs_[i], 1e6));
      results.push_back(std::move(entry));
    }
    return doc;
  }

 private:
  /// One pass over every scheme: the stratified campaign of the
  /// fig5-mse scenario workload, trial i in the stratum covering i.
  /// Traced passes always run on the set-up pool (traced_campaign).
  template <bool Traced>
  pass_result pass(urmem::campaign_runner& runner) {
    pass_result result;
    result.fingerprint = fingerprint_seed;
    last_cdfs_.clear();
    for (const auto& scheme : schemes_) {
      const std::uint64_t start = now_ns();
      const urmem::array_geometry geometry{rows_, scheme->storage_bits()};
      const std::vector<urmem::mse_stratum> strata =
          urmem::mse_strata(geometry, pcell_, config_);
      std::vector<std::uint64_t> starts;
      std::uint64_t trials = 0;
      for (const urmem::mse_stratum& s : strata) {
        starts.push_back(trials);
        trials += s.count;
      }
      const auto body = [&](std::uint64_t trial, urmem::rng& gen) {
        const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
        const urmem::mse_stratum& s = strata[static_cast<std::size_t>(
            std::distance(starts.begin(), it) - 1)];
        if constexpr (Traced) {
          const bool probed = trial % probe_stride == 0;
          const urmem::rng probe_gen = gen;
          double value = 0.0;
          {
            span sample(sample_id_, trial);
            value = urmem::sample_mse(*scheme, geometry, s.n, gen);
          }
          if (probed) probe_row_cost(*scheme, geometry, s.n, probe_gen, value);
          return urmem::weighted_sample{value, s.weight_each};
        } else {
          return urmem::weighted_sample{
              urmem::sample_mse(*scheme, geometry, s.n, gen), s.weight_each};
        }
      };
      urmem::empirical_cdf cdf;
      if constexpr (Traced) {
        cdf = traced_campaign(trials, body);
      } else {
        cdf = runner.map_weighted(trials, body);
      }
      result.campaign_us.push_back(seconds_between(start, now_ns()) * 1e6);
      result.ops += trials;
      result.fingerprint = mix_cdf(result.fingerprint, cdf);
      last_cdfs_.push_back(std::move(cdf));
    }
    return result;
  }

  /// Times the scheme's Eq. 6 hook alone: redraws the trial's fault
  /// cells from a copy of its stream (sample_mse's Floyd sampling) and
  /// times worst_case_row_cost_at over the faulty rows. The redraw must
  /// reproduce sample_mse's value; a mismatch means the program's
  /// sampling changed and the probe no longer applies.
  void probe_row_cost(const urmem::protection_scheme& scheme,
                      const urmem::array_geometry& geometry, std::uint64_t n,
                      urmem::rng gen, double expected) {
    span p(probe_id_);
    thread_local std::vector<std::uint64_t> cells;
    thread_local std::vector<std::uint32_t> cols;
    cells.clear();
    const std::uint64_t total = geometry.cells();
    for (std::uint64_t j = total - n; j < total; ++j) {
      const std::uint64_t t = gen.uniform_below(j + 1);
      const bool taken = std::find(cells.begin(), cells.end(), t) != cells.end();
      cells.push_back(taken ? j : t);
    }
    std::sort(cells.begin(), cells.end());
    double cost = 0.0;
    std::uint64_t rows = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < cells.size();) {
      const std::uint64_t row = cells[i] / geometry.width;
      cols.clear();
      for (; i < cells.size() && cells[i] / geometry.width == row; ++i) {
        cols.push_back(static_cast<std::uint32_t>(cells[i] % geometry.width));
      }
      cost += scheme.worst_case_row_cost_at(static_cast<std::uint32_t>(row),
                                            cols);
      ++rows;
    }
    const std::uint64_t elapsed = now_ns() - start;
    if (cost / static_cast<double>(geometry.rows) != expected) {
      probe_mismatches_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    row_cost_ns_.fetch_add(elapsed, std::memory_order_relaxed);
    row_cost_rows_.fetch_add(rows, std::memory_order_relaxed);
  }

  static constexpr std::uint64_t probe_stride = 256;

  std::vector<urmem::scheme_recipe> recipes_;
  std::vector<std::unique_ptr<urmem::protection_scheme>> schemes_;
  double pcell_ = 0.0;
  std::uint32_t rows_ = 0;
  urmem::mse_cdf_config config_;
  std::uint32_t sample_id_;
  std::vector<urmem::empirical_cdf> last_cdfs_;
  std::atomic<std::uint64_t> row_cost_ns_{0}, row_cost_rows_{0},
      probe_mismatches_{0};
};

}  // namespace

std::unique_ptr<workload> make_batch_workload(const urmem::scenario_spec& spec,
                                              setup_steps& steps) {
  if (spec.workload.name == "fig7-quality") {
    return std::make_unique<quality_workload>(spec, steps);
  }
  if (spec.workload.name == "fig5-mse") {
    return std::make_unique<mse_workload>(spec, steps);
  }
  throw std::invalid_argument("unsupported batch workload '" +
                              spec.workload.name + "'");
}

}  // namespace perfbench
