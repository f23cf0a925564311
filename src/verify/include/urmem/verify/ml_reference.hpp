// Reference implementations of the ML kernels behind Fig. 7 — the
// oracles the production kernels in src/ml are checked against (by
// tests/ml_test.cpp and bench/micro_ml). They are the straightforward
// algorithms the fast kernels replaced, kept deliberately simple:
//
//   * jacobi_eigen — cyclic Jacobi rotations; the accuracy oracle for
//     symmetric_eigen (eigenvalues, vectors, PCA scores within 1e-10);
//   * knn_predict_one_reference — one brute-force distance pass, a
//     partial_sort on (d^2, index) and an ordered-map vote; the
//     bit-identity oracle for knn_classifier::predict;
//   * covariance_reference — one row per pass over the upper triangle;
//     the bit-identity oracle for covariance();
//   * pca_score_reference — mean, covariance, Jacobi, explained-variance
//     score: the PCA application's metric computed the old way;
//   * elasticnet_fit_reference — residual-form cyclic coordinate
//     descent, one pass over the n samples per coordinate update; the
//     accuracy oracle for the covariance-form elasticnet::fit
//     (coefficients and intercept within 1e-9, equal sweep counts).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "urmem/ml/elasticnet.hpp"
#include "urmem/ml/matrix.hpp"
#include "urmem/ml/pca.hpp"

namespace urmem {

/// Symmetric eigendecomposition by the cyclic Jacobi method, sweeping
/// until the off-diagonal Frobenius mass drops below `tol` (relative)
/// or `max_sweeps` is hit. Eigenvalues descending, vectors as columns.
[[nodiscard]] eigen_decomposition jacobi_eigen(const matrix& a,
                                               double tol = 1e-24,
                                               std::size_t max_sweeps = 64);

/// Brute-force k-NN vote for one query over `train` (n x p) and its
/// `labels`: ties in distance go to the smaller training index, vote
/// ties to the smaller label.
[[nodiscard]] int knn_predict_one_reference(const matrix& train,
                                            const std::vector<int>& labels,
                                            std::size_t k,
                                            std::span<const double> query);

/// Sample covariance (n-1 denominator), accumulated one row at a time.
[[nodiscard]] matrix covariance_reference(const matrix& a);

/// Explained-variance score on `holdout` of the top `n_components`
/// Jacobi eigenvectors of covariance_reference(train).
[[nodiscard]] double pca_score_reference(const matrix& train,
                                         const matrix& holdout,
                                         std::size_t n_components);

/// Coefficients, intercept and sweep count of one elastic-net fit.
struct elasticnet_fit_result {
  std::vector<double> coefficients;
  double intercept = 0.0;
  std::size_t iterations = 0;
};

/// Elastic net on features `x` (n x p) and targets `y` by cyclic
/// coordinate descent over an explicit residual vector: the same
/// objective, update order and stopping rule as elasticnet::fit.
[[nodiscard]] elasticnet_fit_result elasticnet_fit_reference(
    const matrix& x, const std::vector<double>& y,
    const elasticnet_config& config);

}  // namespace urmem
