// Reference construction of the weighted empirical CDF — the oracle
// empirical_cdf (src/common) is checked against by
// tests/campaign_runner_test.cpp. It is the straightforward algorithm
// the tally-based construction replaced: one index sort of every sample
// by value, total = sum of the weights in input order, then
// running += weight / total per sample in sorted order. Tied values
// are left in whatever order the (unstable) sort produced, so its last
// bits can depend on the input order; the support points cannot.
#pragma once

#include <span>
#include <vector>

namespace urmem {

/// Support points and cumulative probabilities of a reference CDF.
struct reference_cdf {
  std::vector<double> support;     // sorted, unique
  std::vector<double> cumulative;  // matching cumulative probabilities
};

/// Weighted empirical CDF of (values[i], weights[i]) built sample by
/// sample. Weights must be nonnegative with a positive sum.
[[nodiscard]] reference_cdf empirical_cdf_reference(
    std::span<const double> values, std::span<const double> weights);

}  // namespace urmem
