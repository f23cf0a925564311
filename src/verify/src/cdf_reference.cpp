#include "urmem/verify/cdf_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "urmem/common/contracts.hpp"

namespace urmem {

reference_cdf empirical_cdf_reference(std::span<const double> values,
                                      std::span<const double> weights) {
  expects(!values.empty(), "empirical_cdf requires at least one sample");
  expects(weights.size() == values.size(), "values/weights size mismatch");

  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t r) { return values[l] < values[r]; });

  double total = 0.0;
  for (const double w : weights) {
    expects(w >= 0.0, "weights must be nonnegative");
    total += w;
  }
  expects(total > 0.0, "total weight must be positive");

  reference_cdf cdf;
  double running = 0.0;
  for (const std::size_t idx : order) {
    running += weights[idx] / total;
    if (!cdf.support.empty() && cdf.support.back() == values[idx]) {
      cdf.cumulative.back() = running;  // merge duplicate support points
    } else {
      cdf.support.push_back(values[idx]);
      cdf.cumulative.push_back(running);
    }
  }
  cdf.cumulative.back() = 1.0;  // absorb rounding
  return cdf;
}

}  // namespace urmem
