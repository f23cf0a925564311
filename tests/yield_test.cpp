// Tests for the yield/MSE machinery of paper Sec. 4: the stratified
// Monte-Carlo CDF (Fig. 5) and the quality-aware yield criterion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

mse_cdf_config small_config() {
  mse_cdf_config config;
  config.total_runs = 200'000;
  config.n_max = 40;
  config.seed = 7;
  return config;
}

TEST(MseCdfTest, ProducesValidDistribution) {
  const auto scheme = make_scheme_none();
  const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, small_config());
  EXPECT_GT(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.cumulative().back(), 1.0);
  // Support of the unprotected scheme spans many decades.
  EXPECT_LT(cdf.support().front(), 1.0);
  EXPECT_GT(cdf.support().back(), 1e6);
}

TEST(MseCdfTest, ShuffleDominatesUnprotected) {
  // The Fig. 5 headline: bit-shuffling reduces the MSE that must be
  // tolerated for a given yield by orders of magnitude.
  const auto none = make_scheme_none();
  const auto shuffled = make_scheme_shuffle(4096, 32, 1);
  const auto cfg = small_config();
  const empirical_cdf cdf_none = compute_mse_cdf(*none, 4096, 5e-6, cfg);
  const empirical_cdf cdf_shuffle = compute_mse_cdf(*shuffled, 4096, 5e-6, cfg);
  for (const double y : {0.5, 0.9, 0.99}) {
    EXPECT_LT(mse_for_yield(cdf_shuffle, y) * 30.0, mse_for_yield(cdf_none, y))
        << "yield target " << y;
  }
}

TEST(MseCdfTest, HigherNfmGivesLowerMseQuantiles) {
  const auto cfg = small_config();
  double prev = 1e300;
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const auto scheme = make_scheme_shuffle(4096, 32, n_fm);
    const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, cfg);
    const double q99 = mse_for_yield(cdf, 0.99);
    EXPECT_LE(q99, prev) << "nFM=" << n_fm;
    prev = q99;
  }
}

TEST(MseCdfTest, ShuffleMseRespectsSingleFaultBound) {
  // Single faults dominate at Pcell = 5e-6: the 1-fault stratum (~71%
  // of the conditional mass) respects the exact (2^(S-1))^2 / R bound.
  // Rare multi-fault rows may exceed it (a second fault can land in a
  // higher segment), but even those stay orders of magnitude below the
  // unprotected worst case of (2^31)^2 / R.
  const auto scheme = make_scheme_shuffle(4096, 32, 2);  // S = 8
  const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, small_config());
  const double per_fault = std::ldexp(1.0, 14) / 4096.0;  // (2^7)^2 / R
  EXPECT_LE(cdf.quantile(0.7), per_fault + 1e-12);
  EXPECT_LT(cdf.support().back(), std::ldexp(1.0, 62) / 4096.0 * 1e-6);
}

TEST(MseCdfTest, SecdedIsAlmostAlwaysZero) {
  const auto scheme = make_scheme_secded();
  const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, small_config());
  // Two faults in the same row are overwhelmingly unlikely at this
  // Pcell: virtually all mass sits at MSE = 0.
  EXPECT_GT(yield_at_mse(cdf, 0.0), 0.999);
}

TEST(MseCdfTest, IncludeFaultFreeAddsMassAtZero) {
  const auto scheme = make_scheme_none();
  auto cfg = small_config();
  const empirical_cdf without = compute_mse_cdf(*scheme, 4096, 5e-6, cfg);
  cfg.include_fault_free = true;
  const empirical_cdf with = compute_mse_cdf(*scheme, 4096, 5e-6, cfg);
  // Pr(N=0) ~ 0.52 at this operating point, so the CDF at tiny MSE
  // jumps by roughly that much.
  EXPECT_GT(yield_at_mse(with, 0.0), 0.5);
  EXPECT_LT(yield_at_mse(without, 0.0), 0.05);
}

TEST(MseCdfTest, YieldQueriesAreConsistent) {
  const auto scheme = make_scheme_pecc();
  const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, small_config());
  for (const double y : {0.3, 0.6, 0.9}) {
    const double budget = mse_for_yield(cdf, y);
    EXPECT_GE(yield_at_mse(cdf, budget), y);
  }
}

TEST(MseCdfTest, DeterministicUnderSeed) {
  const auto scheme = make_scheme_none();
  const auto cfg = small_config();
  const empirical_cdf a = compute_mse_cdf(*scheme, 4096, 5e-6, cfg);
  const empirical_cdf b = compute_mse_cdf(*scheme, 4096, 5e-6, cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.support(), b.support());
}

TEST(MseCdfTest, RejectsBadConfig) {
  const auto scheme = make_scheme_none();
  mse_cdf_config config;
  config.n_min = 5;
  config.n_max = 2;
  EXPECT_THROW(compute_mse_cdf(*scheme, 4096, 5e-6, config),
               std::invalid_argument);
  EXPECT_THROW(compute_mse_cdf(*scheme, 4096, 0.0, small_config()),
               std::invalid_argument);
}

TEST(MseCdfTest, TinyRunCountStillCoversDominantStrata) {
  const auto scheme = make_scheme_none();
  mse_cdf_config config;
  config.total_runs = 100;  // only the n=1..3 strata get samples
  config.seed = 3;
  const empirical_cdf cdf = compute_mse_cdf(*scheme, 4096, 5e-6, config);
  EXPECT_GT(cdf.size(), 5u);
}


/// sample_mse as it was written with an unordered_set for Floyd's
/// membership test and a trailing sort: the oracle for the sorted-vector
/// sampler, which must make the same draws and the same picks.
double sample_mse_unordered_set(const protection_scheme& scheme,
                                const array_geometry& geometry,
                                std::uint64_t n, rng& gen) {
  std::vector<std::uint64_t> cells;
  std::unordered_set<std::uint64_t> chosen;
  const std::uint64_t total = geometry.cells();
  for (std::uint64_t j = total - n; j < total; ++j) {
    const std::uint64_t t = gen.uniform_below(j + 1);
    const std::uint64_t pick = chosen.contains(t) ? j : t;
    chosen.insert(pick);
    cells.push_back(pick);
  }
  std::sort(cells.begin(), cells.end());
  double cost = 0.0;
  std::vector<std::uint32_t> cols;
  for (std::size_t i = 0; i < cells.size();) {
    const std::uint64_t row = cells[i] / geometry.width;
    cols.clear();
    for (; i < cells.size() && cells[i] / geometry.width == row; ++i) {
      cols.push_back(static_cast<std::uint32_t>(cells[i] % geometry.width));
    }
    cost += scheme.worst_case_row_cost(static_cast<std::uint32_t>(row), cols);
  }
  return cost / static_cast<double>(geometry.rows);
}

TEST(SampleMseTest, MatchesUnorderedSetFloydSampler) {
  const auto none = make_scheme_none();
  const auto shuffle = make_scheme_shuffle(4096, 32, 1);
  for (const protection_scheme* scheme : {none.get(), shuffle.get()}) {
    const array_geometry geometry{4096, scheme->storage_bits()};
    for (const std::uint64_t seed : {1u, 2u, 42u, 7919u}) {
      for (const std::uint64_t n : {1u, 2u, 40u, 150u}) {
        rng gen(seed * 1000 + n);
        rng oracle_gen = gen;
        for (int draw = 0; draw < 20; ++draw) {
          EXPECT_EQ(sample_mse(*scheme, geometry, n, gen),
                    sample_mse_unordered_set(*scheme, geometry, n, oracle_gen))
              << scheme->name() << " seed " << seed << " n " << n;
        }
        EXPECT_EQ(gen(), oracle_gen());  // same number of draws
      }
    }
  }
}

TEST(SampleMseTest, TinyGeometryWithEveryCellFaulty) {
  // n equal to the cell count: Floyd's later draws mostly hit taken
  // cells, which is the append-j path of the sorted sampler.
  const auto scheme = make_scheme_none(4);
  const array_geometry geometry{3, scheme->storage_bits()};
  for (const std::uint64_t seed : {3u, 5u, 8u}) {
    for (const std::uint64_t n :
         {std::uint64_t{1}, std::uint64_t{6}, geometry.cells()}) {
      rng gen(seed);
      rng oracle_gen = gen;
      EXPECT_EQ(sample_mse(*scheme, geometry, n, gen),
                sample_mse_unordered_set(*scheme, geometry, n, oracle_gen))
          << "seed " << seed << " n " << n;
    }
  }
  // Every cell faulty: each row costs sum_b (2^b)^2 over its 4 bits.
  rng gen(1);
  EXPECT_EQ(sample_mse(*scheme, geometry, geometry.cells(), gen),
            1.0 + 4.0 + 16.0 + 64.0);
}

}  // namespace
}  // namespace urmem
