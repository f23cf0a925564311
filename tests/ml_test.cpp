// Tests for the native ML library: matrix algebra, preprocessing,
// metrics, and the three benchmark algorithms of Table 1 — including
// the fast kernels checked against the reference implementations in
// urmem/verify/ml_reference.hpp (eigensolver vs Jacobi to 1e-10;
// covariance and KNN bit-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "urmem/common/fixed_point.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/ml/elasticnet.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/matrix.hpp"
#include "urmem/ml/metrics.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/verify/ml_reference.hpp"

namespace urmem {
namespace {

// ---------------------------------------------------------------- helpers

bool same_bits(const matrix& a, const matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.data()[i]) !=
        std::bit_cast<std::uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

matrix random_symmetric(std::size_t p, rng& gen) {
  matrix a(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      a(i, j) = gen.normal();
      a(j, i) = a(i, j);
    }
  }
  return a;
}

// B^T B for a random (p + 3) x p matrix B: symmetric positive definite.
matrix random_psd(std::size_t p, rng& gen) {
  matrix b(p + 3, p);
  for (double& v : b.data()) v = gen.normal();
  return matmul(transpose(b), b);
}

// Q diag(values) Q^T with a random orthogonal Q.
matrix with_spectrum(const std::vector<double>& values, rng& gen) {
  const std::size_t p = values.size();
  const matrix q = jacobi_eigen(random_symmetric(p, gen)).vectors;
  matrix lambda(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) lambda(i, i) = values[i];
  matrix a = matmul(matmul(q, lambda), transpose(q));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) a(i, j) = a(j, i);  // exactly symmetric
  }
  return a;
}

// symmetric_eigen agrees with the Jacobi oracle on the spectrum and
// returns a genuine orthonormal eigenbasis: all within 1e-10 of the
// spectral scale.
void expect_matches_jacobi(const matrix& a, const std::string& label) {
  SCOPED_TRACE(label);
  const std::size_t p = a.rows();
  const eigen_decomposition fast = symmetric_eigen(a);
  const eigen_decomposition ref = jacobi_eigen(a);
  ASSERT_EQ(fast.values.size(), p);
  double scale = 0.0;
  for (const double v : ref.values) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_LE(std::abs(fast.values[i] - ref.values[i]), 1e-10 * scale)
        << "eigenvalue " << i;
    if (i > 0) {
      EXPECT_GE(fast.values[i - 1], fast.values[i]) << "not descending";
    }
  }
  const matrix& v = fast.vectors;
  const matrix av = matmul(a, v);
  double residual = 0.0;
  double orthogonality = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      residual =
          std::max(residual, std::abs(av(r, c) - v(r, c) * fast.values[c]));
    }
  }
  const matrix gram = matmul(transpose(v), v);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      orthogonality =
          std::max(orthogonality, std::abs(gram(r, c) - (r == c ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(residual, 1e-10 * std::max(scale, 1.0));
  EXPECT_LE(orthogonality, 1e-10);
}

// ---------------------------------------------------------------- matrix

TEST(MatrixTest, ConstructionAndAccess) {
  matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_DOUBLE_EQ(m.col(2)[1], 4.0);
}

TEST(MatrixTest, MatmulKnownProduct) {
  matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeInvolution) {
  matrix a(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = static_cast<double>(r * 3 + c);
  }
  const matrix att = transpose(transpose(a));
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
  }
}

TEST(MatrixTest, CovarianceOfKnownData) {
  // Two perfectly anticorrelated columns.
  matrix x(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = -static_cast<double>(i);
  }
  const matrix cov = covariance(x);
  EXPECT_NEAR(cov(0, 0), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), -5.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 5.0 / 3.0, 1e-12);
}

TEST(MatrixTest, MatmulDimensionMismatchRejected) {
  EXPECT_THROW(matmul(matrix(2, 3), matrix(2, 3)), std::invalid_argument);
}

TEST(MatrixTest, CovarianceIsBitIdenticalToTheRowByRowReference) {
  rng gen(21);
  // Row counts around the 4-row block, including remainders.
  for (const std::size_t n : {2u, 3u, 4u, 5u, 7u, 37u, 400u}) {
    matrix x(n, 13);
    for (double& v : x.data()) v = 3.0 * gen.normal() + 1.0;
    EXPECT_TRUE(same_bits(covariance(x), covariance_reference(x))) << "n=" << n;
  }
  // Exact zeros after centering: rows come in +/- pairs, so every column
  // mean is exactly 0 and zeroed entries stay zero (the skipped terms).
  matrix paired(40, 9);
  for (std::size_t i = 0; i < 40; i += 2) {
    for (std::size_t j = 0; j < 9; ++j) {
      const double v = gen.uniform_below(3) == 0 ? 0.0 : gen.normal();
      paired(i, j) = v;
      paired(i + 1, j) = -v;
    }
  }
  EXPECT_TRUE(same_bits(covariance(paired), covariance_reference(paired)));
  // A constant column centers to all zeros.
  matrix constant_col(11, 4);
  for (double& v : constant_col.data()) v = gen.normal();
  for (std::size_t i = 0; i < 11; ++i) constant_col(i, 2) = 5.0;
  EXPECT_TRUE(same_bits(covariance(constant_col),
                        covariance_reference(constant_col)));
  // The PCA app's 400 x 60 training features, clean and after faults.
  const auto app = make_pca_app(7);
  const matrix& clean = app->train_features();
  EXPECT_TRUE(same_bits(covariance(clean), covariance_reference(clean)));
  const matrix stored = store_and_readback(
      clean, storage_config{},
      [](std::uint32_t) { return make_scheme_none(32); },
      exact_fault_injector(150), gen);
  EXPECT_TRUE(same_bits(covariance(stored), covariance_reference(stored)));
}

// --------------------------------------------------------- preprocessing

TEST(ScalerTest, StandardizesToZeroMeanUnitVariance) {
  rng gen(1);
  matrix x(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = 5.0 + 2.0 * gen.normal();
    x(r, 1) = -3.0 + 0.5 * gen.normal();
    x(r, 2) = 100.0 + 10.0 * gen.normal();
  }
  standard_scaler scaler;
  const matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto col = z.col(c);
    EXPECT_NEAR(mean(col), 0.0, 1e-10);
    EXPECT_NEAR(stddev(col), 1.0, 0.01);
  }
}

TEST(ScalerTest, ConstantColumnHandled) {
  matrix x(10, 1, 7.0);
  standard_scaler scaler;
  const matrix z = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(SplitTest, SizesAndDisjointness) {
  rng gen(2);
  const split_indices split = train_test_split(100, 0.2, gen);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 80u);
  std::vector<bool> seen(100, false);
  for (const auto i : split.train) seen[i] = true;
  for (const auto i : split.test) {
    EXPECT_FALSE(seen[i]) << "index " << i << " in both partitions";
    seen[i] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, R2KnownValues) {
  const std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2_score(truth, mean_pred), 0.0);
}

TEST(MetricsTest, MseAndAccuracy) {
  EXPECT_DOUBLE_EQ(
      mean_squared_error(std::vector<double>{1, 2}, std::vector<double>{2, 4}),
      2.5);
  EXPECT_DOUBLE_EQ(
      accuracy_score(std::vector<int>{1, 2, 3, 4}, std::vector<int>{1, 2, 0, 4}),
      0.75);
}

// ------------------------------------------------------------- elasticnet

TEST(ElasticnetTest, RecoversLinearModelWithoutRegularization) {
  rng gen(3);
  matrix x(300, 3);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = gen.normal();
    y[i] = 2.0 * x(i, 0) - 1.5 * x(i, 1) + 0.5 + 0.001 * gen.normal();
  }
  elasticnet model({.alpha = 0.0, .l1_ratio = 0.5, .max_iter = 2000, .tol = 1e-10});
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.01);
  EXPECT_NEAR(model.coefficients()[1], -1.5, 0.01);
  EXPECT_NEAR(model.coefficients()[2], 0.0, 0.01);
  EXPECT_NEAR(model.intercept(), 0.5, 0.01);
}

TEST(ElasticnetTest, StrongL1DrivesCoefficientsToZero) {
  rng gen(4);
  matrix x(100, 4);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = gen.normal();
    y[i] = 0.1 * x(i, 0) + gen.normal() * 0.1;
  }
  elasticnet model({.alpha = 10.0, .l1_ratio = 1.0});
  model.fit(x, y);
  for (const double w : model.coefficients()) EXPECT_DOUBLE_EQ(w, 0.0);
  // Prediction falls back to the intercept = mean(y).
  const auto pred = model.predict(x);
  EXPECT_NEAR(pred[0], model.intercept(), 1e-12);
}

TEST(ElasticnetTest, RidgeLimitMatchesClosedFormSingleFeature) {
  // For one centered feature: w = rho / (z + alpha) with l1_ratio = 0.
  matrix x(4, 1);
  x(0, 0) = -1.5; x(1, 0) = -0.5; x(2, 0) = 0.5; x(3, 0) = 1.5;
  const std::vector<double> y{-3.0, -1.0, 1.0, 3.0};  // slope 2, centered
  const double z = (2 * 1.5 * 1.5 + 2 * 0.5 * 0.5) / 4.0;  // 1.25
  const double rho = z * 2.0;                               // cov with y
  const double alpha = 0.5;
  elasticnet model({.alpha = alpha, .l1_ratio = 0.0, .max_iter = 5000, .tol = 1e-12});
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], rho / (z + alpha), 1e-9);
}

TEST(ElasticnetTest, PredictBeforeFitRejected) {
  elasticnet model;
  EXPECT_THROW(model.predict(matrix(2, 2)), std::invalid_argument);
}

TEST(ElasticnetTest, GramFormMatchesResidualOracleOnFaultyWineReadbacks) {
  // The Elasticnet app's data, split and standardized the way the app
  // does it (checked below: same training matrix, same R^2).
  constexpr std::uint64_t seed = 7;
  const auto app = make_elasticnet_app(seed);
  const dataset data = make_wine_like({.seed = seed ^ 0x77696e65ULL});
  rng split_gen(splitmix64(seed ^ 0x73706c6974ULL));
  const split_indices split = train_test_split(data.size(), 0.2, split_gen);
  standard_scaler scaler;
  const matrix train_x =
      scaler.fit_transform(take_rows(data.features, split.train));
  const matrix test_x = scaler.transform(take_rows(data.features, split.test));
  const std::vector<double> train_y = take(data.targets, split.train);
  const std::vector<double> test_y = take(data.targets, split.test);
  ASSERT_TRUE(same_bits(train_x, app->train_features()));

  const elasticnet_config config{.alpha = 0.01, .l1_ratio = 0.5};
  const auto r2_of = [&](const std::vector<double>& coef, double intercept) {
    std::vector<double> predicted(test_x.rows(), intercept);
    for (std::size_t i = 0; i < test_x.rows(); ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < coef.size(); ++j) {
        acc += test_x(i, j) * coef[j];
      }
      predicted[i] += acc;
    }
    return r2_score(test_y, predicted);
  };
  const std::vector<std::pair<std::string, scheme_factory>> schemes = {
      {"none", [](std::uint32_t) { return make_scheme_none(32); }},
      {"pecc", [](std::uint32_t) { return make_scheme_pecc(); }},
      {"nFM=1",
       [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); }},
      {"nFM=2",
       [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 2); }},
  };
  // The clean features, then faulty readbacks at 0..158 faults per
  // tile (Nmax at the Fig. 7 operating point) for every Fig. 7 scheme.
  std::vector<std::pair<std::string, matrix>> inputs = {{"clean", train_x}};
  rng gen(41);
  for (const auto& [name, factory] : schemes) {
    for (const std::uint64_t faults : {0u, 1u, 10u, 40u, 80u, 120u, 158u}) {
      inputs.emplace_back(
          name + " " + std::to_string(faults) + " faults",
          store_and_readback(train_x, storage_config{}, factory,
                             exact_fault_injector(faults), gen));
    }
  }
  for (const auto& [point, stored] : inputs) {
    elasticnet model(config);
    model.fit(stored, train_y);
    const elasticnet_fit_result ref =
        elasticnet_fit_reference(stored, train_y, config);
    EXPECT_EQ(model.iterations(), ref.iterations) << point;
    // Relative to the coefficient vector's scale: a coefficient the
    // l1 term pins near zero has no meaningful relative error.
    double scale = 0.0;
    for (const double w : ref.coefficients) {
      scale = std::max(scale, std::abs(w));
    }
    ASSERT_EQ(model.coefficients().size(), ref.coefficients.size());
    for (std::size_t j = 0; j < ref.coefficients.size(); ++j) {
      EXPECT_LE(std::abs(model.coefficients()[j] - ref.coefficients[j]),
                1e-9 * scale)
          << point << " coefficient " << j;
    }
    EXPECT_LE(std::abs(model.intercept() - ref.intercept),
              1e-9 * std::abs(ref.intercept))
        << point;
    const double r2 = r2_of(model.coefficients(), model.intercept());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r2),
              std::bit_cast<std::uint64_t>(app->evaluate(stored)))
        << point;
    EXPECT_NEAR(r2, r2_of(ref.coefficients, ref.intercept), 1e-12) << point;
  }
}

// ------------------------------------------------------------------- pca

TEST(EigenTest, DiagonalizesKnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  const eigen_decomposition eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector of lambda=3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(EigenTest, ReconstructsTheInput) {
  rng gen(5);
  const std::size_t p = 8;
  matrix a(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      a(i, j) = gen.normal();
      a(j, i) = a(i, j);
    }
  }
  const eigen_decomposition eig = symmetric_eigen(a);
  // A = V diag(lambda) V^T.
  matrix lambda(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) lambda(i, i) = eig.values[i];
  const matrix rebuilt =
      matmul(matmul(eig.vectors, lambda), transpose(eig.vectors));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  rng gen(6);
  matrix x(300, 6);
  for (std::size_t i = 0; i < 300; ++i) {
    const double t = gen.normal();
    for (std::size_t j = 0; j < 6; ++j) {
      x(i, j) = t * static_cast<double>(j + 1) + 0.1 * gen.normal();
    }
  }
  pca model(3);
  model.fit(x);
  const matrix& v = model.components();
  const matrix gram = matmul(transpose(v), v);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(PcaTest, SingleStrongDirectionCapturesVariance) {
  rng gen(7);
  matrix x(500, 5);
  for (std::size_t i = 0; i < 500; ++i) {
    const double t = 3.0 * gen.normal();
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = t + 0.05 * gen.normal();
  }
  pca model(1);
  model.fit(x);
  EXPECT_GT(model.explained_variance_ratio()[0], 0.99);
  EXPECT_GT(model.score(x), 0.99);
}

TEST(PcaTest, ScoreDropsOnUnrelatedData) {
  rng gen(8);
  matrix structured(300, 4);
  for (std::size_t i = 0; i < 300; ++i) {
    const double t = gen.normal();
    structured(i, 0) = t; structured(i, 1) = t;
    structured(i, 2) = 0.01 * gen.normal(); structured(i, 3) = 0.01 * gen.normal();
  }
  pca model(1);
  model.fit(structured);
  matrix noise(300, 4);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 4; ++j) noise(i, j) = gen.normal();
  }
  EXPECT_GT(model.score(structured), 0.95);
  EXPECT_LT(model.score(noise), 0.7);
}

TEST(PcaTest, TransformInverseTransformRoundTrip) {
  rng gen(9);
  matrix x(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    const double t = gen.normal();
    x(i, 0) = t; x(i, 1) = 2 * t; x(i, 2) = -t;
  }
  pca model(1);  // the data is genuinely rank 1
  model.fit(x);
  const matrix rebuilt = model.inverse_transform(model.transform(x));
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(rebuilt(i, j), x(i, j), 1e-9);
  }
}

// ------------------------------------------- eigensolver vs Jacobi oracle

TEST(EigenTest, MatchesJacobiOnRandomSymmetricAndPsdMatrices) {
  rng gen(31);
  for (const std::size_t p : {1u, 2u, 8u, 60u}) {
    for (int rep = 0; rep < 3; ++rep) {
      expect_matches_jacobi(random_symmetric(p, gen),
                            "symmetric p=" + std::to_string(p));
      expect_matches_jacobi(random_psd(p, gen), "psd p=" + std::to_string(p));
    }
  }
}

TEST(EigenTest, MatchesJacobiOnDegenerateMatrices) {
  rng gen(32);
  expect_matches_jacobi(matrix(6, 6, 0.0), "zero");
  matrix diagonal(7, 7, 0.0);
  const double entries[] = {3.0, -1.0, 0.0, 8.5, 2.0, 2.0, -4.0};
  for (std::size_t i = 0; i < 7; ++i) diagonal(i, i) = entries[i];
  expect_matches_jacobi(diagonal, "diagonal");
  matrix rank1(9, 9);
  std::vector<double> u(9);
  for (double& x : u) x = gen.normal();
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) rank1(i, j) = u[i] * u[j];
  }
  expect_matches_jacobi(rank1, "rank-1");
  expect_matches_jacobi(with_spectrum({3.0, 3.0, 3.0, 1.0, 1.0, -2.0}, gen),
                        "repeated eigenvalues");
  expect_matches_jacobi(with_spectrum(std::vector<double>(8, 2.5), gen),
                        "multiple of the identity");
}

TEST(EigenTest, IterationCapFailsLoudly) {
  rng gen(33);
  const matrix a = random_symmetric(30, gen);
  EXPECT_THROW((void)symmetric_eigen(a, 1), std::logic_error);
  EXPECT_THROW((void)symmetric_eigen(matrix(2, 3)), std::invalid_argument);
}

TEST(PcaTest, FaultyFig7ReadbacksScoreLikeTheJacobiOracle) {
  // The PCA application's shapes: 400 x 60 standardized features, read
  // back from faulty 4096-row tiles, 5 components.
  const auto app = make_pca_app(7);
  const matrix& clean = app->train_features();
  rng gen(34);
  const scheme_factory none = [](std::uint32_t) {
    return make_scheme_none(32);
  };
  const scheme_factory shuffle = [](std::uint32_t rows) {
    return make_scheme_shuffle(rows, 32, 1);
  };
  for (const std::uint64_t faults : {0u, 1u, 20u, 150u}) {
    for (const scheme_factory* factory : {&none, &shuffle}) {
      const matrix stored =
          store_and_readback(clean, storage_config{}, *factory,
                             exact_fault_injector(faults), gen);
      pca model(5);
      model.fit(stored);
      EXPECT_NEAR(model.score(clean), pca_score_reference(stored, clean, 5),
                  1e-10)
          << faults << " faults";
    }
  }
}

// ------------------------------------------------------------------- knn

TEST(KnnTest, PerfectOnSeparatedClusters) {
  rng gen(10);
  matrix x(90, 2);
  std::vector<int> labels(90);
  for (std::size_t i = 0; i < 90; ++i) {
    const int cls = static_cast<int>(i % 3);
    labels[i] = cls;
    x(i, 0) = cls * 10.0 + 0.3 * gen.normal();
    x(i, 1) = cls * -10.0 + 0.3 * gen.normal();
  }
  knn_classifier model(5);
  model.fit(x, labels);
  EXPECT_DOUBLE_EQ(model.score(x, labels), 1.0);
}

TEST(KnnTest, SingleNeighborMemorizes) {
  matrix x(4, 1);
  x(0, 0) = 0; x(1, 0) = 1; x(2, 0) = 10; x(3, 0) = 11;
  knn_classifier model(1);
  model.fit(x, {0, 0, 1, 1});
  const std::vector<double> q1{0.4};
  const std::vector<double> q2{10.6};
  EXPECT_EQ(model.predict_one(q1), 0);
  EXPECT_EQ(model.predict_one(q2), 1);
}

TEST(KnnTest, MajorityVoteBreaksTiesTowardSmallerLabel) {
  matrix x(4, 1);
  x(0, 0) = 0.0; x(1, 0) = 0.2; x(2, 0) = 1.0; x(3, 0) = 1.2;
  knn_classifier model(4);  // all points vote: 2 vs 2 tie
  model.fit(x, {0, 0, 1, 1});
  const std::vector<double> q{0.6};
  EXPECT_EQ(model.predict_one(q), 0);
}

TEST(KnnTest, RejectsMisuse) {
  knn_classifier model(5);
  EXPECT_THROW(model.fit(matrix(3, 2), {0, 1, 0}), std::invalid_argument);
  EXPECT_THROW((void)model.predict(matrix(2, 2)), std::invalid_argument);
  matrix x(6, 2);
  model.fit(x, {0, 1, 0, 1, 0, 1});
  const std::vector<double> bad_dim{1.0};
  EXPECT_THROW((void)model.predict_one(bad_dim), std::invalid_argument);
  EXPECT_THROW((void)model.predict(matrix(2, 3)), std::invalid_argument);
}

// predict() and predict_one() equal the brute-force oracle on every
// query row of `queries`.
void expect_knn_matches_reference(const matrix& train,
                                  const std::vector<int>& labels,
                                  std::size_t k, const matrix& queries,
                                  const std::string& label) {
  SCOPED_TRACE(label + " k=" + std::to_string(k));
  knn_classifier model(k);
  model.fit(train, labels);
  const std::vector<int> predicted = model.predict(queries);
  ASSERT_EQ(predicted.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const int expected =
        knn_predict_one_reference(train, labels, k, queries.row(q));
    EXPECT_EQ(predicted[q], expected) << "query " << q;
    EXPECT_EQ(model.predict_one(queries.row(q)), expected) << "query " << q;
  }
}

TEST(KnnTest, PredictionsAreBitIdenticalToTheBruteForceReference) {
  rng gen(41);
  // 101 rows: not a multiple of the 8-row block.
  const std::size_t n = 101;
  const std::size_t p = 7;
  matrix train(n, p);
  for (double& v : train.data()) v = gen.normal();
  // Duplicated training rows: equal d^2, so the training index decides.
  for (std::size_t i = 0; i < 20; ++i) {
    const std::size_t from = gen.uniform_below(n);
    const std::size_t to = gen.uniform_below(n);
    for (std::size_t j = 0; j < p; ++j) train(to, j) = train(from, j);
  }
  // Negative and non-contiguous labels.
  const int palette[] = {-7, -1, 2, 40, 1000};
  std::vector<int> labels(n);
  for (int& l : labels) l = palette[gen.uniform_below(5)];

  matrix queries(80, p);
  for (double& v : queries.data()) v = gen.normal();
  for (std::size_t q = 0; q < 20; ++q) {  // queries sitting on training rows
    const std::size_t from = gen.uniform_below(n);
    for (std::size_t j = 0; j < p; ++j) queries(q, j) = train(from, j);
  }
  for (const std::size_t k : {1u, 2u, 4u, 5u, 8u, 9u, 50u, 101u}) {
    expect_knn_matches_reference(train, labels, k, queries, "random");
  }
}

TEST(KnnTest, TiesInDistanceAndVotesMatchTheReference) {
  // Every training row duplicated with a different label: each neighbor
  // pair ties on d^2, and even k splits votes evenly.
  matrix train(16, 2);
  std::vector<int> labels(16);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t half = 0; half < 2; ++half) {
      train(2 * i + half, 0) = static_cast<double>(i);
      train(2 * i + half, 1) = 0.5 * static_cast<double>(i % 3);
      labels[2 * i + half] = half == 0 ? 9 : -9;
    }
  }
  matrix queries(24, 2);
  rng gen(42);
  for (std::size_t q = 0; q < 24; ++q) {
    queries(q, 0) =
        static_cast<double>(q % 8) + (q < 8 ? 0.0 : 0.5 * gen.normal());
    queries(q, 1) = 0.5 * static_cast<double>(q % 3);
  }
  for (const std::size_t k : {1u, 2u, 3u, 4u, 6u, 16u}) {
    expect_knn_matches_reference(train, labels, k, queries, "ties");
  }
  // A single class, and every row voting (k == n).
  expect_knn_matches_reference(train, std::vector<int>(16, 3), 16, queries,
                               "one class");
}

TEST(KnnTest, PaddingRowsOfTheLastBlockNeverVote) {
  // 11 rows (a partial last block) far from the origin; queries at and
  // near the origin sit closer to the block's zero padding than to any
  // real row.
  matrix train(11, 3);
  std::vector<int> labels(11);
  for (std::size_t i = 0; i < 11; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      train(i, j) = 50.0 + static_cast<double>(i + j);
    }
    labels[i] = 10 - static_cast<int>(i);  // nearest row: largest label
  }
  matrix queries(2, 3, 0.0);
  queries(1, 2) = -1.0;
  for (const std::size_t k : {1u, 3u, 11u}) {
    expect_knn_matches_reference(train, labels, k, queries, "padding");
  }
}

TEST(KnnTest, FaultyFig7ReadbacksPredictLikeTheReference) {
  // The KNN application's shapes: HAR-like features (6 columns),
  // standardized, read back from faulty tiles; clean rows as queries.
  const dataset data = make_har_like();
  standard_scaler scaler;
  const matrix clean = scaler.fit_transform(data.features);
  const matrix queries = take_rows(clean, {0, 3, 10, 99, 400, 777, 1001, 1499});
  rng gen(43);
  for (const std::uint64_t faults : {0u, 40u, 150u}) {
    const matrix stored = store_and_readback(
        clean, storage_config{},
        [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); },
        exact_fault_injector(faults), gen);
    expect_knn_matches_reference(stored, data.labels, 5, queries,
                                 std::to_string(faults) + " faults");
  }
}

// ---------------------------------------------------- knn delta classifier

// Predictions of a knn_classifier fitted on `stored`: the oracle.
std::vector<int> full_predictions(std::size_t k, const matrix& stored,
                                  const std::vector<int>& labels,
                                  const matrix& queries) {
  knn_classifier model(k);
  model.fit(stored, labels);
  return model.predict(queries);
}

TEST(KnnDeltaClassifierTest, MatchesTheFullClassifierOverRandomChangeSets) {
  const fixed_point_codec codec(32, 16);  // the Fig. 7 word format
  const auto quantized = [&](double v) {
    return codec.decode(codec.encode(v));
  };
  rng gen(44);
  for (const std::size_t n : {20u, 203u}) {  // prefix covers all / some rows
    const std::size_t p = 6;
    matrix clean(n, p);
    for (double& v : clean.data()) v = quantized(gen.normal());
    // Duplicated training rows: equal d^2, so the training index decides.
    for (std::size_t i = 0; i < n / 6; ++i) {
      const std::size_t from = gen.uniform_below(n);
      const std::size_t to = gen.uniform_below(n);
      for (std::size_t j = 0; j < p; ++j) clean(to, j) = clean(from, j);
    }
    std::vector<int> labels(n);
    for (int& l : labels) l = static_cast<int>(gen.uniform_below(4)) - 1;
    matrix queries(64, p);
    for (double& v : queries.data()) v = quantized(gen.normal());
    for (std::size_t q = 0; q < 16; ++q) {  // queries sitting on rows
      const std::size_t from = gen.uniform_below(n);
      for (std::size_t j = 0; j < p; ++j) queries(q, j) = clean(from, j);
    }

    for (const std::size_t k : {1u, 5u, 32u, 33u}) {
      if (k > n) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const knn_delta_classifier delta(k, clean, labels, queries);
      const auto expect_match = [&](const matrix& stored,
                                    const std::vector<std::size_t>& changed,
                                    const std::string& label) {
        EXPECT_EQ(delta.predict(stored, changed),
                  full_predictions(k, stored, labels, queries))
            << label << " (" << changed.size() << " changed rows)";
      };

      // Empty change set: the clean predictions.
      expect_match(clean, {}, "empty");

      // Random change sets, from one row to every row. A changed row is
      // redrawn, saturated to the fixed-point extremes, copied from
      // another row (a d^2 tie with an unchanged row), or left as it
      // was (listing an unchanged row is allowed).
      for (std::size_t trial = 0; trial < 24; ++trial) {
        const std::size_t m =
            trial == 0 ? n : 1 + gen.uniform_below(trial % 2 == 0 ? n : 8);
        std::vector<std::size_t> changed;
        if (m == n) {
          changed.resize(n);
          std::iota(changed.begin(), changed.end(), std::size_t{0});
        } else {
          for (std::size_t i = 0; i < m; ++i) {
            changed.push_back(gen.uniform_below(n));
          }
          std::sort(changed.begin(), changed.end());
          changed.erase(std::unique(changed.begin(), changed.end()),
                        changed.end());
        }
        matrix stored = clean;
        for (const std::size_t row : changed) {
          const std::uint64_t how = gen.uniform_below(4);
          const std::size_t from = gen.uniform_below(n);
          for (std::size_t j = 0; j < p; ++j) {
            double& v = stored(row, j);
            if (how == 0) v = quantized(3.0 * gen.normal());
            if (how == 1) {
              v = gen.uniform_below(2) == 0 ? codec.max_value()
                                            : codec.min_value();
            }
            if (how == 2) v = clean(from, j);
          }
        }
        expect_match(stored, changed, "trial " + std::to_string(trial));
      }

      // Changing every row of query 0's prefix empties it of unchanged
      // rows and forces that query's exact full scan; moving the rows
      // next to the query keeps them among its nearest.
      std::vector<std::size_t> covered;
      for (const knn_neighbor& nb : delta.clean_prefix(0)) {
        covered.push_back(nb.index);
      }
      std::sort(covered.begin(), covered.end());
      ASSERT_EQ(covered.size(),
                std::min(n, knn_delta_classifier::prefix_width));
      for (const bool near : {false, true}) {
        matrix stored = clean;
        for (const std::size_t row : covered) {
          for (std::size_t j = 0; j < p; ++j) {
            stored(row, j) =
                near ? quantized(queries(0, j) + 0.01 * gen.normal())
                     : codec.max_value();
          }
        }
        expect_match(stored, covered,
                     near ? "prefix moved near" : "prefix saturated");
      }
    }
  }
}

TEST(KnnDeltaClassifierTest, RejectsMisuse) {
  matrix clean(10, 2);
  for (std::size_t i = 0; i < 10; ++i) clean(i, 0) = static_cast<double>(i);
  const std::vector<int> labels(10, 1);
  EXPECT_THROW(knn_delta_classifier(3, clean, labels, matrix(2, 3)),
               std::invalid_argument);
  const knn_delta_classifier delta(3, clean, labels, matrix(2, 2));
  const std::vector<std::size_t> descending{4, 2};
  const std::vector<std::size_t> out_of_range{10};
  EXPECT_THROW((void)delta.predict(clean, descending), std::invalid_argument);
  EXPECT_THROW((void)delta.predict(clean, out_of_range), std::invalid_argument);
  EXPECT_THROW((void)delta.predict(matrix(9, 2), {}), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
