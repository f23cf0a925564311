#include "urmem/verify/ml_reference.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

eigen_decomposition jacobi_eigen(const matrix& a, double tol,
                                 std::size_t max_sweeps) {
  expects(a.rows() == a.cols() && a.rows() >= 1,
          "jacobi needs a square matrix");
  const std::size_t p = a.rows();
  matrix m = a;
  matrix v(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) v(i, i) = 1.0;

  const double total_scale = std::max(frobenius_norm_squared(a), 1e-300);

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) off += 2.0 * m(i, j) * m(i, j);
    }
    if (off / total_scale < tol) break;

    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        const double apq = m(i, j);
        if (apq == 0.0) continue;
        const double app = m(i, i);
        const double aqq = m(j, j);
        // Classic Jacobi rotation choosing the smaller-angle root.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < p; ++k) {
          const double mki = m(k, i);
          const double mkj = m(k, j);
          m(k, i) = c * mki - s * mkj;
          m(k, j) = s * mki + c * mkj;
        }
        for (std::size_t k = 0; k < p; ++k) {
          const double mik = m(i, k);
          const double mjk = m(j, k);
          m(i, k) = c * mik - s * mjk;
          m(j, k) = s * mik + c * mjk;
        }
        for (std::size_t k = 0; k < p; ++k) {
          const double vki = v(k, i);
          const double vkj = v(k, j);
          v(k, i) = c * vki - s * vkj;
          v(k, j) = s * vki + c * vkj;
        }
      }
    }
  }

  eigen_decomposition result;
  result.values.resize(p);
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(p);
  for (std::size_t i = 0; i < p; ++i) diag[i] = m(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t r) { return diag[l] > diag[r]; });

  result.vectors = matrix(p, p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    result.values[rank] = diag[order[rank]];
    for (std::size_t k = 0; k < p; ++k) {
      result.vectors(k, rank) = v(k, order[rank]);
    }
  }
  return result;
}

int knn_predict_one_reference(const matrix& train,
                              const std::vector<int>& labels, std::size_t k,
                              std::span<const double> query) {
  expects(train.rows() == labels.size(), "feature/label count mismatch");
  expects(k >= 1 && k <= train.rows(), "k must be in 1..n");
  expects(query.size() == train.cols(), "query dimension mismatch");

  std::vector<std::pair<double, std::size_t>> distances;
  distances.reserve(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    const auto row = train.row(i);
    double d2 = 0.0;
    for (std::size_t j = 0; j < query.size(); ++j) {
      const double d = row[j] - query[j];
      d2 += d * d;
    }
    distances.emplace_back(d2, i);
  }
  std::partial_sort(distances.begin(),
                    distances.begin() + static_cast<std::ptrdiff_t>(k),
                    distances.end());

  std::map<int, std::size_t> votes;  // ordered: ties resolve to smaller label
  for (std::size_t i = 0; i < k; ++i) ++votes[labels[distances[i].second]];
  int best_label = votes.begin()->first;
  std::size_t best_count = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best_label = label;
    }
  }
  return best_label;
}

matrix covariance_reference(const matrix& a) {
  expects(a.rows() >= 2, "covariance needs at least two rows");
  matrix centered = a;
  center_columns(centered, column_means(a));
  matrix cov(a.cols(), a.cols(), 0.0);
  for (std::size_t i = 0; i < centered.rows(); ++i) {
    const auto row = centered.row(i);
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const double v = row[p];
      if (v == 0.0) continue;
      for (std::size_t q = p; q < a.cols(); ++q) cov(p, q) += v * row[q];
    }
  }
  const double denom = static_cast<double>(a.rows() - 1);
  for (std::size_t p = 0; p < a.cols(); ++p) {
    for (std::size_t q = p; q < a.cols(); ++q) {
      cov(p, q) /= denom;
      cov(q, p) = cov(p, q);
    }
  }
  return cov;
}

double pca_score_reference(const matrix& train, const matrix& holdout,
                           std::size_t n_components) {
  expects(n_components >= 1 && n_components <= train.cols(),
          "n_components must be in 1..p");
  const eigen_decomposition eig = jacobi_eigen(covariance_reference(train));
  matrix components(train.cols(), n_components);
  for (std::size_t c = 0; c < n_components; ++c) {
    for (std::size_t r = 0; r < train.cols(); ++r) {
      components(r, c) = eig.vectors(r, c);
    }
  }
  return explained_variance_score(components, holdout);
}

elasticnet_fit_result elasticnet_fit_reference(
    const matrix& x, const std::vector<double>& y,
    const elasticnet_config& config) {
  expects(x.rows() == y.size(), "row count mismatch between x and y");
  expects(x.rows() >= 2, "need at least two samples");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const double n_d = static_cast<double>(n);

  const std::vector<double> x_means = column_means(x);
  matrix xc = x;
  center_columns(xc, x_means);
  double y_mean = 0.0;
  for (const double v : y) y_mean += v;
  y_mean /= n_d;

  std::vector<double> z(p, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = xc.row(i);
    for (std::size_t j = 0; j < p; ++j) z[j] += row[j] * row[j];
  }
  for (double& v : z) v /= n_d;

  elasticnet_fit_result fit;
  std::vector<double>& coef = fit.coefficients;
  coef.assign(p, 0.0);
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - y_mean;

  const double l1 = config.alpha * config.l1_ratio;
  const double l2 = config.alpha * (1.0 - config.l1_ratio);
  const auto soft_threshold = [](double value, double threshold) {
    if (value > threshold) return value - threshold;
    if (value < -threshold) return value + threshold;
    return 0.0;
  };

  for (std::size_t sweep = 0; sweep < config.max_iter; ++sweep) {
    ++fit.iterations;
    double max_delta = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      if (z[j] == 0.0) continue;
      double rho = 0.0;
      for (std::size_t i = 0; i < n; ++i) rho += xc(i, j) * residual[i];
      rho = rho / n_d + z[j] * coef[j];

      const double updated = soft_threshold(rho, l1) / (z[j] + l2);
      const double delta = updated - coef[j];
      if (delta != 0.0) {
        for (std::size_t i = 0; i < n; ++i) residual[i] -= delta * xc(i, j);
        coef[j] = updated;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < config.tol) break;
  }

  fit.intercept = y_mean;
  for (std::size_t j = 0; j < p; ++j) fit.intercept -= coef[j] * x_means[j];
  return fit;
}

}  // namespace urmem
