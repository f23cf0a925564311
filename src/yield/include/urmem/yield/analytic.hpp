// Closed-form single-fault quality distributions.
//
// For exactly one fault at a uniform storage column, the Eq. (6) row
// cost takes one of storage_bits() values with probability
// 1/storage_bits each — no Monte Carlo needed. These exact
// distributions serve two purposes: they cross-validate the stratified
// sampler of mse_distribution.hpp (the n = 1 stratum must agree), and
// they make the scheme's error profile inspectable (which columns cost
// what). They describe homogeneous schemes, charging every row as row
// 0; a tiered scheme has one such distribution per tier.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "urmem/common/stats.hpp"
#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {

/// Exact distribution of the row cost of one uniform fault: sorted
/// (cost, probability) pairs with duplicate costs merged.
[[nodiscard]] std::vector<std::pair<double, double>> single_fault_cost_distribution(
    const protection_scheme& scheme);

/// Exact CDF of the array MSE (Eq. 6) conditioned on exactly one fault:
/// MSE = cost / rows.
[[nodiscard]] empirical_cdf analytic_single_fault_mse_cdf(
    const protection_scheme& scheme, std::uint32_t rows);

/// Expected row cost of one uniform fault (the mean of the distribution
/// above) — the per-fault "price" of a scheme.
[[nodiscard]] double expected_single_fault_cost(const protection_scheme& scheme);

/// Sorted discrete probability distribution: (value, probability) pairs.
using discrete_distribution = std::vector<std::pair<double, double>>;

/// Distribution of X + Y for independent X, Y. Values are accumulated
/// on a geometric grid (relative width 1e-6, bucket representative =
/// probability-weighted mean), which keeps repeated convolutions from
/// growing combinatorially; point masses below `prune` are dropped and
/// the kept mass renormalized.
[[nodiscard]] discrete_distribution convolve(const discrete_distribution& x,
                                             const discrete_distribution& y,
                                             double prune = 1e-15);

/// Closed-form Fig. 5 CDF: the binomial mixture over failure counts of
/// n-fold convolutions of the single-fault cost distribution,
///
///   Pr(MSE <= q) = sum_n Pr(N = n | n_min <= N <= n_max)
///                  * Pr(C_1 + ... + C_n <= q * rows)
///
/// exact under the independent-fault approximation (faults land in
/// distinct rows — the same regime where Eq. 5's per-count sampling is
/// meaningful; at Pcell = 5e-6 the same-row collision probability is
/// < 1% for every stratum that carries mass). Replaces the 1e7-run
/// Monte Carlo with milliseconds of arithmetic.
struct analytic_cdf_config {
  std::uint64_t n_min = 1;
  std::uint64_t n_max = 40;          ///< strata beyond carry ~0 mass at Fig. 5's Pcell
  bool include_fault_free = false;   ///< add the Pr(N=0) mass at MSE 0
  double prune = 1e-15;              ///< per-point mass pruning in convolutions
};
[[nodiscard]] empirical_cdf analytic_mse_cdf(const protection_scheme& scheme,
                                             std::uint32_t rows, double pcell,
                                             const analytic_cdf_config& config = {});

}  // namespace urmem
