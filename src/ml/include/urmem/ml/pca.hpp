// Principal component analysis via a symmetric Householder + QL
// eigensolver — the paper's dimensionality-reduction benchmark
// (Table 1, Madelon dataset, explained-variance metric).
#pragma once

#include <cstddef>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

/// Symmetric eigendecomposition: eigenvalues (descending) and matching
/// unit eigenvectors as the columns of `vectors`.
struct eigen_decomposition {
  std::vector<double> values;
  matrix vectors;
};

/// Full eigendecomposition of the symmetric matrix `a` (only its lower
/// triangle is read): Householder reduction to tridiagonal form, then
/// implicit QL with the transformations accumulated into the vectors
/// (the EISPACK tred2/tql2 pair). Every eigenvalue is computed, since
/// explained-variance ratios need the whole spectrum. Throws
/// std::logic_error if an eigenvalue fails to converge within
/// `max_iterations_per_value` QL steps (1-2 are typical).
[[nodiscard]] eigen_decomposition symmetric_eigen(
    const matrix& a, std::size_t max_iterations_per_value = 60);

/// Explained-variance score of the orthonormal basis `components`
/// (p x k, as columns) on `x` (n x p): 1 - ||Xc - Xc V V^T||_F^2 /
/// ||Xc||_F^2, with Xc centered by x's own mean (so a corrupted
/// training mean cannot inflate the variance the basis is scored
/// against). 1 for constant data.
[[nodiscard]] double explained_variance_score(const matrix& components,
                                              const matrix& x);

/// PCA fitted on the covariance of the training features.
class pca {
 public:
  /// Keeps the top `n_components` principal directions.
  explicit pca(std::size_t n_components);

  /// Fits mean and components on `x` (n x p), n >= 2, n_components <= p.
  void fit(const matrix& x);

  /// Projects rows of `x` onto the component basis (n x k).
  [[nodiscard]] matrix transform(const matrix& x) const;

  /// Reconstructs from the projection back to feature space (n x p).
  [[nodiscard]] matrix inverse_transform(const matrix& projected) const;

  /// Fraction of total variance captured by each kept component.
  [[nodiscard]] const std::vector<double>& explained_variance_ratio() const {
    return explained_ratio_;
  }

  /// Component directions as columns (p x k), orthonormal.
  [[nodiscard]] const matrix& components() const { return components_; }

  /// explained_variance_score of the fitted basis on a holdout set.
  /// Equals the captured variance fraction on the training set;
  /// degrades when the basis was fitted on corrupted data.
  [[nodiscard]] double score(const matrix& x) const;

 private:
  std::size_t n_components_;
  std::vector<double> mean_;
  matrix components_;  // p x k
  std::vector<double> explained_ratio_;
};

}  // namespace urmem
