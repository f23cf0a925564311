#include "urmem/yield/mse_distribution.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

std::vector<mse_stratum> mse_strata(const array_geometry& geometry,
                                    double pcell,
                                    const mse_cdf_config& config) {
  expects(pcell > 0.0 && pcell < 1.0, "pcell must be in (0,1)");
  expects(config.n_min >= 1 && config.n_min <= config.n_max, "bad stratum range");
  expects(config.total_runs >= 1, "total_runs must be positive");

  const binomial_distribution dist(geometry.cells(), pcell);
  std::vector<mse_stratum> strata;
  for (std::uint64_t n = config.n_min; n <= config.n_max; ++n) {
    const double pn = dist.pmf(n);
    const auto count = static_cast<std::uint64_t>(
        std::llround(pn * static_cast<double>(config.total_runs)));
    if (count == 0) continue;  // paper: samples per count = Pr(N=n) * Trun
    strata.push_back({n, count, pn / static_cast<double>(count)});
  }
  return strata;
}

double sample_mse(const protection_scheme& scheme,
                  const array_geometry& geometry, std::uint64_t n, rng& gen) {
  // Scratch is thread-local so concurrent campaign trials do not share
  // state (each trial brings its own rng).
  thread_local std::vector<std::uint64_t> cells;
  thread_local std::vector<std::uint32_t> cols;
  thread_local std::unordered_set<std::uint64_t> chosen;
  cells.clear();
  chosen.clear();
  const std::uint64_t total = geometry.cells();
  // Robert Floyd's distinct sampling.
  for (std::uint64_t j = total - n; j < total; ++j) {
    const std::uint64_t t = gen.uniform_below(j + 1);
    const std::uint64_t pick = chosen.contains(t) ? j : t;
    chosen.insert(pick);
    cells.push_back(pick);
  }
  std::sort(cells.begin(), cells.end());

  double total_cost = 0.0;
  std::size_t i = 0;
  while (i < cells.size()) {
    const std::uint64_t row = cells[i] / geometry.width;
    cols.clear();
    while (i < cells.size() && cells[i] / geometry.width == row) {
      cols.push_back(static_cast<std::uint32_t>(cells[i] % geometry.width));
      ++i;
    }
    total_cost +=
        scheme.worst_case_row_cost(static_cast<std::uint32_t>(row), cols);
  }
  return total_cost / static_cast<double>(geometry.rows);
}

empirical_cdf compute_mse_cdf(const protection_scheme& scheme, std::uint32_t rows,
                              double pcell, const mse_cdf_config& config) {
  expects(rows >= 1, "memory needs at least one row");

  const array_geometry geometry{rows, scheme.storage_bits()};
  const std::vector<mse_stratum> strata = mse_strata(geometry, pcell, config);
  rng gen(config.seed);

  std::vector<double> values;
  std::vector<double> weights;
  if (config.include_fault_free) {
    const binomial_distribution dist(geometry.cells(), pcell);
    values.push_back(0.0);
    weights.push_back(dist.pmf(0));
  }
  for (const mse_stratum& stratum : strata) {
    for (std::uint64_t s = 0; s < stratum.count; ++s) {
      values.push_back(sample_mse(scheme, geometry, stratum.n, gen));
      weights.push_back(stratum.weight_each);
    }
  }
  ensures(!values.empty(),
          "no stratum received samples; increase total_runs or the n range");
  return empirical_cdf(std::move(values), std::move(weights));
}

double yield_at_mse(const empirical_cdf& cdf, double mse_target) {
  return cdf.at(mse_target);
}

double mse_for_yield(const empirical_cdf& cdf, double yield_target) {
  return cdf.quantile(yield_target);
}

double analytic_mse(const protection_scheme& scheme, const fault_map& faults) {
  double total = 0.0;
  std::vector<std::uint32_t> cols;
  for (const std::uint32_t row : faults.faulty_rows()) {
    cols.clear();
    for (const fault& f : faults.faults_in_row(row)) cols.push_back(f.col);
    total += scheme.worst_case_row_cost(row, cols);
  }
  return total / static_cast<double>(faults.geometry().rows);
}

}  // namespace urmem
