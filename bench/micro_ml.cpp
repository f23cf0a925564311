// Micro-benchmarks of the Fig. 7 application kernels: one quality trial
// costs one evaluate() (fit on the faulty readback + score on the clean
// test set) of each Table 1 application.
//
// Before timing anything the bench checks the production kernels
// against the reference implementations in src/verify on faulty Fig. 7-
// shaped inputs (the PCA app's 400 x 60 features and HAR-like 1200 x 6
// KNN features, stored through none / nFM=1 tiles at 0..150 faults per
// tile) and exits nonzero on any mismatch:
//   1. covariance() == covariance_reference(), bit for bit;
//   2. symmetric_eigen eigenvalues within 1e-10 (relative to the largest)
//      of jacobi_eigen's, and the PCA score within 1e-10 of the
//      Jacobi-based score;
//   3. knn_classifier::predict == knn_predict_one_reference, every query;
//   4. the KNN app's trial evaluator (knn_delta_classifier, fed the rows
//      that differ from the clean readback) == its full evaluate(),
//      bit for bit;
//   5. the covariance-form elasticnet::fit against the residual-form
//      elasticnet_fit_reference on wine-like 1279 x 11 readbacks:
//      coefficients and intercept within 1e-9, equal sweep counts.
// Then it times each app's evaluate(), the eigensolver against Jacobi,
// covariance, KNN predict and the elastic-net fit against their
// references, and the KNN trial evaluator against the full evaluate().
// It reports speedup_pca_vs_jacobi (symmetric_eigen vs jacobi_eigen on
// the 60 x 60 covariance), speedup_knn_delta_vs_full and
// speedup_elasticnet_fit_vs_reference, which the CI perf job gates.
// Emits BENCH_micro_ml.json (see README "Bench telemetry").
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/ml/elasticnet.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/matrix.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/verify/ml_reference.hpp"

namespace {

using namespace urmem;

constexpr std::size_t kComponents = 5;  // the PCA app's component count
constexpr std::size_t kNeighbors = 5;   // the KNN app's k

bool same_bits(const matrix& a, const matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

matrix faulty_readback(const matrix& clean, bool shuffle, std::uint64_t faults,
                       rng& gen) {
  const scheme_factory factory = [shuffle](std::uint32_t rows) {
    return shuffle ? make_scheme_shuffle(rows, 32, 1) : make_scheme_none(32);
  };
  return store_and_readback(clean, storage_config{}, factory,
                            exact_fault_injector(faults), gen);
}

struct knn_data {
  matrix train;
  std::vector<int> labels;
  matrix queries;
};

// The KNN app's shapes: HAR-like features standardized, 1200 training
// rows and 300 queries.
knn_data make_knn_data() {
  const dataset data = make_har_like();
  standard_scaler scaler;
  const matrix all = scaler.fit_transform(data.features);
  std::vector<std::size_t> train_rows(1200);
  std::vector<std::size_t> query_rows(data.size() - train_rows.size());
  std::iota(train_rows.begin(), train_rows.end(), std::size_t{0});
  std::iota(query_rows.begin(), query_rows.end(), train_rows.size());
  return {take_rows(all, train_rows), take(data.labels, train_rows),
          take_rows(all, query_rows)};
}

std::vector<int> knn_reference_predict(const matrix& train,
                                       const std::vector<int>& labels,
                                       const matrix& queries) {
  std::vector<int> out;
  out.reserve(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    out.push_back(
        knn_predict_one_reference(train, labels, kNeighbors, queries.row(q)));
  }
  return out;
}

// Rows in which `stored` differs from `clean`, ascending.
std::vector<std::size_t> changed_rows(const matrix& clean,
                                      const matrix& stored) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < clean.rows(); ++r) {
    const auto a = clean.row(r);
    const auto b = stored.row(r);
    if (!std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
          return std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        })) {
      rows.push_back(r);
    }
  }
  return rows;
}

struct regression_data {
  matrix train;
  std::vector<double> targets;
};

// The Elasticnet app's shapes: wine-like features standardized, 1279
// training rows and their quality targets.
regression_data make_regression_data() {
  const dataset data = make_wine_like();
  standard_scaler scaler;
  const matrix all = scaler.fit_transform(data.features);
  std::vector<std::size_t> rows(1279);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return {take_rows(all, rows), take(data.targets, rows)};
}

const elasticnet_config kElasticnet{.alpha = 0.01, .l1_ratio = 0.5};

// Covariance-form fit vs the residual-form oracle: coefficients within
// 1e-9 of the coefficient vector's scale, intercept within 1e-9
// relative, equal sweep counts.
bool verify_elasticnet(const matrix& stored, const std::vector<double>& y,
                       const std::string& label) {
  elasticnet model(kElasticnet);
  model.fit(stored, y);
  const elasticnet_fit_result ref =
      elasticnet_fit_reference(stored, y, kElasticnet);
  double scale = 0.0;
  for (const double w : ref.coefficients) scale = std::max(scale, std::abs(w));
  bool ok = model.iterations() == ref.iterations &&
            std::abs(model.intercept() - ref.intercept) <=
                1e-9 * std::abs(ref.intercept);
  for (std::size_t j = 0; j < ref.coefficients.size(); ++j) {
    ok = ok && std::abs(model.coefficients()[j] - ref.coefficients[j]) <=
                   1e-9 * scale;
  }
  if (!ok) {
    std::cerr << "ELASTICNET MISMATCH " << label << ": " << model.iterations()
              << " vs " << ref.iterations << " sweeps, intercept "
              << model.intercept() << " vs " << ref.intercept << "\n";
  }
  return ok;
}

// Checks every fast kernel against its oracle on one faulty input pair.
bool verify_against_oracles(const matrix& pca_stored, const matrix& pca_holdout,
                            const knn_data& knn, const matrix& knn_stored,
                            const std::string& label) {
  const matrix cov = covariance(pca_stored);
  if (!same_bits(cov, covariance_reference(pca_stored))) {
    std::cerr << "COVARIANCE MISMATCH " << label << "\n";
    return false;
  }
  const eigen_decomposition fast = symmetric_eigen(cov);
  const eigen_decomposition ref = jacobi_eigen(cov);
  const double scale = std::abs(ref.values.front());
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    if (std::abs(fast.values[i] - ref.values[i]) > 1e-10 * scale) {
      std::cerr << "EIGENVALUE MISMATCH " << label << " index " << i << ": "
                << fast.values[i] << " vs " << ref.values[i] << "\n";
      return false;
    }
  }
  pca model(kComponents);
  model.fit(pca_stored);
  const double score = model.score(pca_holdout);
  const double ref_score =
      pca_score_reference(pca_stored, pca_holdout, kComponents);
  if (!(std::abs(score - ref_score) <= 1e-10)) {
    std::cerr << "PCA SCORE MISMATCH " << label << ": " << score << " vs "
              << ref_score << "\n";
    return false;
  }
  knn_classifier classifier(kNeighbors);
  classifier.fit(knn_stored, knn.labels);
  if (classifier.predict(knn.queries) !=
      knn_reference_predict(knn_stored, knn.labels, knn.queries)) {
    std::cerr << "KNN PREDICTION MISMATCH " << label << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags args(
      argc, argv,
      {{"seed", "fault-injection seed (default 1)"},
       {"faults", "faults per tile for the timed inputs (default 80)"},
       {"min-time-ms", "min wall time per timed bench (default 200)"}});
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t faults = args.u64("faults", 80);
  const double min_ms = args.real("min-time-ms", 200.0);

  bench::banner("micro_ml — Fig. 7 application kernels vs reference oracles",
                "per-trial retrain + score of the Fig. 7 quality experiment");

  const auto apps = make_all_applications();
  const auto pca_app = make_pca_app();
  const matrix& pca_clean = pca_app->train_features();
  const knn_data knn = make_knn_data();
  const auto knn_app = make_knn_app();
  const matrix knn_app_clean = storage_config{}.quantizer().roundtrip(
      knn_app->train_features());
  const auto knn_trials = knn_app->prepare_trials(knn_app_clean);
  const regression_data wine = make_regression_data();

  rng gen(seed);
  std::size_t checked = 0;
  for (const bool shuffle : {false, true}) {
    for (const std::uint64_t n : {0u, 1u, 10u, 50u, 150u}) {
      const std::string label = std::string(shuffle ? "nFM=1" : "none") +
                                " faults=" + std::to_string(n);
      const matrix pca_stored = faulty_readback(pca_clean, shuffle, n, gen);
      const matrix knn_stored = faulty_readback(knn.train, shuffle, n, gen);
      if (!verify_against_oracles(pca_stored, pca_clean, knn, knn_stored,
                                  label)) {
        return 1;
      }
      const matrix app_stored =
          faulty_readback(knn_app->train_features(), shuffle, n, gen);
      const double full = knn_app->evaluate(app_stored);
      const double delta = knn_trials->evaluate(
          app_stored, changed_rows(knn_app_clean, app_stored));
      if (std::bit_cast<std::uint64_t>(full) !=
          std::bit_cast<std::uint64_t>(delta)) {
        std::cerr << "KNN DELTA MISMATCH " << label << ": " << delta
                  << " vs " << full << "\n";
        return 1;
      }
      if (!verify_elasticnet(faulty_readback(wine.train, shuffle, n, gen),
                             wine.targets, label)) {
        return 1;
      }
      ++checked;
    }
  }
  std::cout << "kernels match the reference oracles on " << checked
            << " faulty input pairs: covariance, KNN and the KNN trial "
               "evaluator bit-identical, eigenvalues and PCA score within "
               "1e-10, elastic-net coefficients within 1e-9 with equal "
               "sweeps\n\n";

  std::vector<bench::micro_result> results;
  for (const auto& app : apps) {
    const matrix stored =
        faulty_readback(app->train_features(), true, faults, gen);
    results.push_back(bench::run_micro(
        app->name() + " evaluate", 1,
        [&] {
          bench::keep(std::bit_cast<std::uint64_t>(app->evaluate(stored)));
        },
        min_ms));
  }

  const matrix pca_stored = faulty_readback(pca_clean, true, faults, gen);
  const matrix cov = covariance(pca_stored);
  const auto first_value = [](const eigen_decomposition& eig) {
    return std::bit_cast<std::uint64_t>(eig.values.front());
  };
  results.push_back(bench::run_micro(
      "pca eigen symmetric_eigen 60x60", 1,
      [&] { bench::keep(first_value(symmetric_eigen(cov))); }, min_ms));
  const std::size_t fast_eigen = results.size() - 1;
  results.push_back(bench::run_micro(
      "pca eigen jacobi 60x60", 1,
      [&] { bench::keep(first_value(jacobi_eigen(cov))); }, min_ms));
  const std::size_t jacobi = results.size() - 1;

  const auto first_entry = [](const matrix& m) {
    return std::bit_cast<std::uint64_t>(m(0, 0));
  };
  results.push_back(bench::run_micro(
      "covariance 400x60", 1,
      [&] { bench::keep(first_entry(covariance(pca_stored))); }, min_ms));
  const std::size_t fast_cov = results.size() - 1;
  results.push_back(bench::run_micro(
      "covariance reference 400x60", 1,
      [&] { bench::keep(first_entry(covariance_reference(pca_stored))); },
      min_ms));
  const std::size_t ref_cov = results.size() - 1;

  const matrix knn_stored = faulty_readback(knn.train, true, faults, gen);
  knn_classifier classifier(kNeighbors);
  classifier.fit(knn_stored, knn.labels);
  const std::uint64_t queries = knn.queries.rows();
  results.push_back(bench::run_micro(
      "knn predict 1200x6 (per query)", queries,
      [&] {
        bench::keep(
            static_cast<std::uint64_t>(classifier.predict(knn.queries)[0]));
      },
      min_ms));
  const std::size_t fast_knn = results.size() - 1;
  results.push_back(bench::run_micro(
      "knn predict reference (per query)", queries,
      [&] {
        bench::keep(static_cast<std::uint64_t>(
            knn_reference_predict(knn_stored, knn.labels, knn.queries)[0]));
      },
      min_ms));
  const std::size_t ref_knn = results.size() - 1;

  const matrix app_stored =
      faulty_readback(knn_app->train_features(), true, faults, gen);
  const std::vector<std::size_t> app_changed =
      changed_rows(knn_app_clean, app_stored);
  results.push_back(bench::run_micro(
      "KNN evaluate (full)", 1,
      [&] {
        bench::keep(
            std::bit_cast<std::uint64_t>(knn_app->evaluate(app_stored)));
      },
      min_ms));
  const std::size_t full_trial = results.size() - 1;
  results.push_back(bench::run_micro(
      "KNN trial evaluator (changed rows)", 1,
      [&] {
        bench::keep(std::bit_cast<std::uint64_t>(
            knn_trials->evaluate(app_stored, app_changed)));
      },
      min_ms));
  const std::size_t delta_trial = results.size() - 1;

  const matrix wine_stored = faulty_readback(wine.train, true, faults, gen);
  results.push_back(bench::run_micro(
      "elasticnet fit 1279x11", 1,
      [&] {
        elasticnet model(kElasticnet);
        model.fit(wine_stored, wine.targets);
        bench::keep(std::bit_cast<std::uint64_t>(model.intercept()));
      },
      min_ms));
  const std::size_t fast_fit = results.size() - 1;
  results.push_back(bench::run_micro(
      "elasticnet fit reference 1279x11", 1,
      [&] {
        bench::keep(std::bit_cast<std::uint64_t>(
            elasticnet_fit_reference(wine_stored, wine.targets, kElasticnet)
                .intercept));
      },
      min_ms));
  const std::size_t ref_fit = results.size() - 1;

  bench::print_micro_table(results);

  const auto speedup = [&](std::size_t slow, std::size_t fast) {
    return results[slow].ns_per_item / results[fast].ns_per_item;
  };
  const double speedup_pca = speedup(jacobi, fast_eigen);
  const double speedup_cov = speedup(ref_cov, fast_cov);
  const double speedup_knn = speedup(ref_knn, fast_knn);
  const double speedup_delta = speedup(full_trial, delta_trial);
  const double speedup_fit = speedup(ref_fit, fast_fit);
  std::cout << "\nspeedup vs reference: eigensolver " << speedup_pca
            << "x, covariance " << speedup_cov << "x, knn predict "
            << speedup_knn << "x\n"
            << "knn trial evaluator vs full evaluate: " << speedup_delta
            << "x (" << app_changed.size() << " of "
            << app_stored.rows() << " rows changed)\n"
            << "elastic-net fit vs residual-form reference: " << speedup_fit
            << "x\n";

  bench::json_object payload = bench::bench_envelope("micro_ml");
  bench::json_object config;
  config.add("seed", seed)
      .add("faults_per_tile", faults)
      .add("min_time_ms", min_ms)
      .add("verified_input_pairs", std::uint64_t{checked});
  payload.add_raw("config", config.str());
  std::vector<std::string> entries;
  entries.reserve(results.size());
  for (const auto& r : results) entries.push_back(bench::micro_json(r));
  payload.add_raw("results", bench::json_array(entries));
  payload.add("speedup_pca_vs_jacobi", speedup_pca);
  payload.add("speedup_covariance_vs_reference", speedup_cov);
  payload.add("speedup_knn_vs_reference", speedup_knn);
  payload.add("speedup_knn_delta_vs_full", speedup_delta);
  payload.add("speedup_elasticnet_fit_vs_reference", speedup_fit);
  return bench::write_bench_json("micro_ml", payload);
}
