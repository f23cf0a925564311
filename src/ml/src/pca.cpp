#include "urmem/ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Working state of the eigensolver. The accumulated transform V is
/// kept column-major (`z[c * n + r]` is V(r, c)), so every inner loop of
/// tred2/tql2 — column updates and the QL plane rotations of two
/// eigenvector columns — walks contiguous memory.
struct eigen_work {
  std::size_t n;
  std::vector<double> z;  // V, column-major
  std::vector<double> d;  // diagonal, then eigenvalues
  std::vector<double> e;  // subdiagonal

  double& v(std::size_t r, std::size_t c) { return z[c * n + r]; }
  double* col(std::size_t c) { return z.data() + c * n; }
};

/// a[0..n) . b[0..n) over four interleaved partial sums: independent
/// add chains instead of one latency-bound chain.
double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += a[k] * b[k];
    s1 += a[k + 1] * b[k + 1];
    s2 += a[k + 2] * b[k + 2];
    s3 += a[k + 3] * b[k + 3];
  }
  for (; k < n; ++k) s0 += a[k] * b[k];
  return (s0 + s1) + (s2 + s3);
}

/// Householder reduction of the symmetric matrix held in `w.z` (lower
/// triangle) to tridiagonal form (d, e), accumulating the orthogonal
/// transform into `w.z` (EISPACK tred2).
void tridiagonalize(eigen_work& w) {
  const std::size_t n = w.n;
  auto& d = w.d;
  auto& e = w.e;
  for (std::size_t j = 0; j < n; ++j) d[j] = w.v(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = w.v(i - 1, j);
        w.v(i, j) = 0.0;
        w.v(j, i) = 0.0;
      }
    } else {
      // Householder vector for row i, scaled against under/overflow.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill_n(e.begin(), i, 0.0);

      // e = A u over the active lower triangle.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        w.v(j, i) = f;
        const double* col_j = w.col(j);
        const std::size_t below = i - j - 1;
        e[j] += col_j[j] * f + dot(col_j + j + 1, d.data() + j + 1, below);
        for (std::size_t k = j + 1; k < i; ++k) e[k] += col_j[k] * f;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-2 update A -= u e^T + e u^T.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* col_j = w.col(j);
        for (std::size_t k = j; k < i; ++k) col_j[k] -= f * e[k] + g * d[k];
        d[j] = w.v(i - 1, j);
        w.v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the Householder transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    w.v(n - 1, i) = w.v(i, i);
    w.v(i, i) = 1.0;
    const double h = d[i + 1];
    double* u = w.col(i + 1);
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* col_j = w.col(j);
        const double g = dot(u, col_j, i + 1);
        for (std::size_t k = 0; k <= i; ++k) col_j[k] -= g * d[k];
      }
    }
    std::fill_n(u, i + 1, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = w.v(n - 1, j);
    w.v(n - 1, j) = 0.0;
  }
  w.v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// sqrt(a^2 + b^2): the plain formula wherever the squares can neither
/// overflow nor lose precision to underflow, std::hypot otherwise.
double pythag(double a, double b) {
  const double sum = a * a + b * b;
  if (sum > 1e-290 && sum < 1e290) return std::sqrt(sum);
  return std::hypot(a, b);
}

/// Implicit QL iterations on the tridiagonal (d, e), rotating the
/// eigenvector columns of `w.z` along (EISPACK tql2). Eigenvalues are
/// left unsorted in d.
void ql_implicit(eigen_work& w, std::size_t max_iterations_per_value) {
  const std::size_t n = w.n;
  auto& d = w.d;
  auto& e = w.e;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr double eps = std::numeric_limits<double>::epsilon();
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find a small subdiagonal element splitting off a block at l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n && std::abs(e[m]) > eps * tst1) ++m;

    if (m > l) {
      std::size_t iterations = 0;
      do {
        ensures(++iterations <= max_iterations_per_value,
                "symmetric_eigen: QL iteration did not converge");
        // Implicit shift from the leading 2x2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = pythag(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // QL sweep from m-1 down to l.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = pythag(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* zi = w.col(i);
          double* zi1 = w.col(i + 1);
          for (std::size_t k = 0; k < n; ++k) {
            const double t = zi1[k];
            zi1[k] = s * zi[k] + c * t;
            zi[k] = c * zi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

eigen_decomposition symmetric_eigen(const matrix& a,
                                    std::size_t max_iterations_per_value) {
  expects(a.rows() == a.cols() && a.rows() >= 1,
          "symmetric_eigen needs a square matrix");
  expects(max_iterations_per_value >= 1, "need at least one QL iteration");
  const std::size_t n = a.rows();
  eigen_work w{n, std::vector<double>(n * n), std::vector<double>(n),
               std::vector<double>(n)};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) w.v(r, c) = a(r, c);
  }
  tridiagonalize(w);
  ql_implicit(w, max_iterations_per_value);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t l, std::size_t r) { return w.d[l] > w.d[r]; });

  eigen_decomposition result;
  result.values.resize(n);
  result.vectors = matrix(n, n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    result.values[rank] = w.d[order[rank]];
    const double* vec = w.col(order[rank]);
    for (std::size_t k = 0; k < n; ++k) result.vectors(k, rank) = vec[k];
  }
  return result;
}

double explained_variance_score(const matrix& components, const matrix& x) {
  expects(components.rows() == x.cols(), "component/feature count mismatch");
  matrix centered = x;
  center_columns(centered, column_means(x));
  const double total = frobenius_norm_squared(centered);
  if (total == 0.0) return 1.0;
  const matrix projected = matmul(centered, components);
  const matrix reconstructed = matmul(projected, transpose(components));
  double residual = 0.0;
  for (std::size_t r = 0; r < centered.rows(); ++r) {
    for (std::size_t c = 0; c < centered.cols(); ++c) {
      const double d = centered(r, c) - reconstructed(r, c);
      residual += d * d;
    }
  }
  return 1.0 - residual / total;
}

pca::pca(std::size_t n_components) : n_components_(n_components) {
  expects(n_components >= 1, "need at least one component");
}

void pca::fit(const matrix& x) {
  expects(x.rows() >= 2, "PCA needs at least two samples");
  expects(n_components_ <= x.cols(), "more components than features");

  mean_ = column_means(x);
  const eigen_decomposition eig = symmetric_eigen(covariance(x));

  components_ = matrix(x.cols(), n_components_);
  for (std::size_t c = 0; c < n_components_; ++c) {
    for (std::size_t r = 0; r < x.cols(); ++r) {
      components_(r, c) = eig.vectors(r, c);
    }
  }

  double total = 0.0;
  for (const double lambda : eig.values) total += std::max(lambda, 0.0);
  explained_ratio_.assign(n_components_, 0.0);
  if (total > 0.0) {
    for (std::size_t c = 0; c < n_components_; ++c) {
      explained_ratio_[c] = std::max(eig.values[c], 0.0) / total;
    }
  }
}

matrix pca::transform(const matrix& x) const {
  expects(!mean_.empty(), "fit must be called before transform");
  expects(x.cols() == mean_.size(), "feature count mismatch");
  matrix centered = x;
  center_columns(centered, mean_);
  return matmul(centered, components_);
}

matrix pca::inverse_transform(const matrix& projected) const {
  expects(!mean_.empty(), "fit must be called before inverse_transform");
  matrix restored = matmul(projected, transpose(components_));
  for (std::size_t r = 0; r < restored.rows(); ++r) {
    for (std::size_t c = 0; c < restored.cols(); ++c) {
      restored(r, c) += mean_[c];
    }
  }
  return restored;
}

double pca::score(const matrix& x) const {
  expects(!mean_.empty(), "fit must be called before score");
  return explained_variance_score(components_, x);
}

}  // namespace urmem
