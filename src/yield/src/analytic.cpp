#include "urmem/yield/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

std::vector<std::pair<double, double>> single_fault_cost_distribution(
    const protection_scheme& scheme) {
  const unsigned columns = scheme.storage_bits();
  const double p = 1.0 / static_cast<double>(columns);
  std::map<double, double> merged;
  for (unsigned col = 0; col < columns; ++col) {
    const std::uint32_t cols[] = {col};
    merged[scheme.worst_case_row_cost(0, cols)] += p;
  }
  return {merged.begin(), merged.end()};
}

empirical_cdf analytic_single_fault_mse_cdf(const protection_scheme& scheme,
                                            std::uint32_t rows) {
  expects(rows >= 1, "need at least one row");
  std::vector<double> values;
  std::vector<double> weights;
  for (const auto& [cost, prob] : single_fault_cost_distribution(scheme)) {
    values.push_back(cost / static_cast<double>(rows));
    weights.push_back(prob);
  }
  return empirical_cdf(std::move(values), std::move(weights));
}

double expected_single_fault_cost(const protection_scheme& scheme) {
  double mean = 0.0;
  for (const auto& [cost, prob] : single_fault_cost_distribution(scheme)) {
    mean += cost * prob;
  }
  return mean;
}

namespace {

/// Geometric-grid accumulator: values within a relative `merge_rel` of
/// one another share a bucket, so an n-fold convolution cannot grow
/// combinatorially — sums dominated by the same leading terms collapse.
/// Bucket representatives are probability-weighted means.
class geometric_accumulator {
 public:
  explicit geometric_accumulator(double merge_rel)
      : scale_(1.0 / std::log1p(merge_rel)) {}

  void add(double value, double mass) {
    // Bucket 0 is reserved for exact zero; log-bucket otherwise.
    const std::int64_t key =
        value <= 0.0 ? std::numeric_limits<std::int64_t>::min()
                     : static_cast<std::int64_t>(std::floor(std::log(value) * scale_));
    bucket& b = buckets_[key];
    b.mass += mass;
    b.weighted_value += mass * value;
  }

  [[nodiscard]] discrete_distribution finish() const {
    std::map<double, double> ordered;
    for (const auto& [key, b] : buckets_) {
      const double value = b.mass > 0.0 ? b.weighted_value / b.mass : 0.0;
      ordered[value] += b.mass;
    }
    discrete_distribution out(ordered.begin(), ordered.end());
    double total = 0.0;
    for (const auto& [value, prob] : out) total += prob;
    ensures(total > 0.0, "accumulator holds no mass");
    for (auto& [value, prob] : out) prob /= total;
    return out;
  }

 private:
  struct bucket {
    double mass = 0.0;
    double weighted_value = 0.0;
  };
  double scale_;
  std::unordered_map<std::int64_t, bucket> buckets_;
};

}  // namespace

discrete_distribution convolve(const discrete_distribution& x,
                               const discrete_distribution& y, double prune) {
  // Relative merge width: coarse enough to keep the support compact
  // (the bucket count scales combinatorially with the width), fine
  // enough that CDF quantiles on the log-decade MSE axis are unaffected.
  constexpr double merge_rel = 1e-3;
  geometric_accumulator acc(merge_rel);
  for (const auto& [vx, px] : x) {
    for (const auto& [vy, py] : y) {
      const double mass = px * py;
      if (mass < prune) continue;
      acc.add(vx + vy, mass);
    }
  }
  return acc.finish();
}

empirical_cdf analytic_mse_cdf(const protection_scheme& scheme, std::uint32_t rows,
                               double pcell, const analytic_cdf_config& config) {
  expects(rows >= 1, "need at least one row");
  expects(config.n_min >= 1 && config.n_min <= config.n_max, "bad stratum range");
  const array_geometry geometry{rows, scheme.storage_bits()};
  const binomial_distribution count_dist(geometry.cells(), pcell);

  const discrete_distribution single = single_fault_cost_distribution(scheme);

  // Mixture weights over the considered strata; strata beyond the point
  // where the remaining binomial mass is negligible are skipped, which
  // also caps the number of convolutions.
  std::vector<double> weights;
  double weight_total = 0.0;
  std::uint64_t n_stop = config.n_max;
  for (std::uint64_t n = config.n_min; n <= config.n_max; ++n) {
    const double pn = count_dist.pmf(n);
    weights.push_back(pn);
    weight_total += pn;
    if (pn > 0.0 && count_dist.cdf(n) > 1.0 - 1e-10) {
      n_stop = n;
      break;
    }
  }
  const double zero_mass = config.include_fault_free ? count_dist.pmf(0) : 0.0;
  weight_total += zero_mass;
  expects(weight_total > 0.0, "no probability mass in the stratum range");

  std::map<double, double> mixture;
  if (config.include_fault_free) mixture[0.0] += zero_mass / weight_total;

  discrete_distribution n_fold{{0.0, 1.0}};  // zero-fold convolution
  for (std::uint64_t k = 1; k < config.n_min; ++k) {
    n_fold = convolve(n_fold, single, config.prune);
  }
  for (std::uint64_t n = config.n_min; n <= n_stop; ++n) {
    n_fold = convolve(n_fold, single, config.prune);
    const double wn = weights[n - config.n_min] / weight_total;
    if (wn <= 0.0) continue;
    for (const auto& [cost, prob] : n_fold) {
      mixture[cost / static_cast<double>(rows)] += wn * prob;
    }
  }

  std::vector<double> values;
  std::vector<double> probs;
  values.reserve(mixture.size());
  probs.reserve(mixture.size());
  for (const auto& [value, prob] : mixture) {
    values.push_back(value);
    probs.push_back(prob);
  }
  return empirical_cdf(std::move(values), std::move(probs));
}

}  // namespace urmem
