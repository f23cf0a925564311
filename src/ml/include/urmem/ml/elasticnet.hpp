// Elastic-net regression via cyclic coordinate descent — the paper's
// regression benchmark (Table 1, wine-quality dataset, R^2 metric).
//
// Minimizes the scikit-learn objective
//
//   (1/2n) ||y - Xw - b||^2 + alpha * l1_ratio * ||w||_1
//                           + (alpha/2) * (1 - l1_ratio) * ||w||^2
//
// with soft-threshold coordinate updates and an intercept handled by
// centering. Hyper-parameter semantics match sklearn.linear_model
// ElasticNet, so alpha = 0 reduces to OLS and l1_ratio = 1 to the Lasso.
//
// The updates run in covariance form: one pass over the n x p samples
// builds the centered Gram matrix G = Xc^T Xc and c = Xc^T yc, and the
// sweeps keep q = G w, so rho_j = (c_j - q_j)/n + z_j w_j and every
// sweep costs O(p^2) instead of O(n p). Update order, stopping rule
// and results match the residual-form oracle elasticnet_fit_reference
// (src/verify) to rounding.
#pragma once

#include <cstddef>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

/// Elastic-net hyper-parameters and stopping rule.
struct elasticnet_config {
  double alpha = 0.01;      ///< overall regularization strength
  double l1_ratio = 0.5;    ///< 1 = lasso, 0 = ridge
  std::size_t max_iter = 1000;
  double tol = 1e-6;        ///< max coefficient change per sweep
};

/// Coordinate-descent elastic net.
class elasticnet {
 public:
  explicit elasticnet(elasticnet_config config = {});

  /// Fits on features `x` (n x p) and targets `y` (n).
  void fit(const matrix& x, const std::vector<double>& y);

  /// Predicted targets for `x`; fit() must have been called.
  [[nodiscard]] std::vector<double> predict(const matrix& x) const;

  [[nodiscard]] const std::vector<double>& coefficients() const { return coef_; }
  [[nodiscard]] double intercept() const { return intercept_; }

  /// Sweeps executed by the last fit (convergence diagnostics).
  [[nodiscard]] std::size_t iterations() const { return iterations_; }

 private:
  elasticnet_config config_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  std::size_t iterations_ = 0;
};

}  // namespace urmem
