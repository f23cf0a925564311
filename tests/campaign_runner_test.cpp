// Tests for the parallel Monte-Carlo campaign engine: deterministic
// per-trial streams, bit-identical aggregates at any thread count,
// work-stealing scheduling, and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/verify/cdf_reference.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

// ----------------------------------------------------- stream splitting

TEST(StreamSeedTest, MatchesRngSplit) {
  const rng root(1234);
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    rng via_split = root.split(stream);
    rng via_helper = make_stream_rng(1234, stream);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(via_split(), via_helper());
  }
}

TEST(StreamSeedTest, AdjacentStreamsAreDecorrelated) {
  rng a = make_stream_rng(7, 0);
  rng b = make_stream_rng(7, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------- basic running

TEST(CampaignRunnerTest, TrialsSeeTheirOwnStream) {
  campaign_runner runner({.threads = 4, .seed = 77});
  const std::vector<std::uint64_t> draws = runner.map<std::uint64_t>(
      100, [](std::uint64_t, rng& gen) { return gen(); });
  ASSERT_EQ(draws.size(), 100u);
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    EXPECT_EQ(draws[trial], make_stream_rng(77, trial)()) << trial;
  }
}

TEST(CampaignRunnerTest, RunsEveryTrialExactlyOnce) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    campaign_runner runner({.threads = threads, .batch_size = 7, .seed = 5});
    std::vector<std::atomic<int>> hits(1000);
    runner.run(1000, [&hits](std::uint64_t trial, rng&) {
      hits[trial].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(runner.last_stats().trials, 1000u);
    EXPECT_EQ(runner.last_stats().threads, threads);
    EXPECT_GE(runner.last_stats().batches, 1u);
  }
}

TEST(CampaignRunnerTest, ZeroTrialsIsANoop) {
  campaign_runner runner({.threads = 2, .seed = 1});
  runner.run(0, [](std::uint64_t, rng&) { FAIL() << "no trial expected"; });
  EXPECT_EQ(runner.last_stats().trials, 0u);
}

TEST(CampaignRunnerTest, FewerTrialsThanThreads) {
  campaign_runner runner({.threads = 8, .seed = 3});
  const std::vector<std::uint64_t> out = runner.map<std::uint64_t>(
      3, [](std::uint64_t trial, rng&) { return trial * 10; });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 10, 20}));
}

TEST(CampaignRunnerTest, TrialExceptionPropagates) {
  campaign_runner runner({.threads = 4, .seed = 9});
  EXPECT_THROW(runner.run(200,
                          [](std::uint64_t trial, rng&) {
                            if (trial == 131) {
                              throw std::runtime_error("injected");
                            }
                          }),
               std::runtime_error);
}

TEST(CampaignRunnerTest, RunnerIsReusableAcrossCampaigns) {
  campaign_runner runner({.threads = 2, .seed = 11});
  const auto first = runner.map<std::uint64_t>(
      50, [](std::uint64_t, rng& gen) { return gen(); });
  const auto second = runner.map<std::uint64_t>(
      50, [](std::uint64_t, rng& gen) { return gen(); });
  EXPECT_EQ(first, second);  // same seed, same streams
}

// ---------------------------------------------- bit-identical aggregates

/// Checks two CDFs bit for bit (EXPECT_EQ on doubles is exact).
void expect_bit_identical(const empirical_cdf& cdf,
                          const empirical_cdf& reference, unsigned threads) {
  ASSERT_EQ(cdf.size(), reference.size()) << threads;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(cdf.support()[i], reference.support()[i]) << threads;
    EXPECT_EQ(cdf.cumulative()[i], reference.cumulative()[i]) << threads;
  }
}

/// The determinism contract: identical aggregate results for the same
/// seed at 1, 2, and 8 threads — compared bit-for-bit.
TEST(CampaignRunnerTest, WeightedAggregateBitIdenticalAt1_2_8Threads) {
  const auto run_at = [](unsigned threads) {
    campaign_runner runner({.threads = threads, .seed = 2026});
    return runner.map_weighted(
        1500, [](std::uint64_t trial, rng& gen) -> weighted_sample {
          // Few distinct values, many tied ones with distinct weights:
          // the tallies merge the ties from several workers.
          const double value = std::floor(gen.normal() * 4.0);
          return {value, 1.0 + static_cast<double>(trial % 7) / 3.0};
        });
  };
  const empirical_cdf reference = run_at(1);
  for (const unsigned threads : {2u, 8u}) {
    expect_bit_identical(run_at(threads), reference, threads);
  }
}

TEST(CampaignRunnerTest, BatchSizeDoesNotChangeResults) {
  const auto run_at = [](std::uint64_t batch) {
    campaign_runner runner({.threads = 4, .batch_size = batch, .seed = 31});
    return runner.map<std::uint64_t>(
        257, [](std::uint64_t, rng& gen) { return gen(); });
  };
  const auto reference = run_at(1);
  EXPECT_EQ(run_at(8), reference);
  EXPECT_EQ(run_at(1024), reference);
}

TEST(CampaignRunnerTest, MseSweepBitIdenticalAcrossThreadCounts) {
  // A real Fig. 5-style workload: stratified MSE sampling of the P-ECC
  // scheme through sample_mse, merged by map_weighted.
  const auto scheme = make_scheme_pecc();
  const array_geometry geometry{256, scheme->storage_bits()};
  const auto run_at = [&](unsigned threads) {
    campaign_runner runner({.threads = threads, .seed = 404});
    return runner.map_weighted(
        400, [&](std::uint64_t trial, rng& gen) -> weighted_sample {
          const std::uint64_t n = 1 + trial % 5;
          return {sample_mse(*scheme, geometry, n, gen), 1.0};
        });
  };
  const empirical_cdf reference = run_at(1);
  for (const unsigned threads : {2u, 8u}) {
    expect_bit_identical(run_at(threads), reference, threads);
  }
}

TEST(CampaignRunnerTest, Fig5SmokeCampaignMatchesThreadsAndReferenceCdf) {
  // scenarios/fig5_smoke.json's campaigns: schemes none and secded on
  // 4096 x 32, runs 3000, nmax 12, Pcell 5e-6 / 2e-5 / 1e-4, seed 42.
  mse_cdf_config config;
  config.total_runs = 3000;
  config.n_max = 12;
  constexpr std::uint32_t rows = 4096;
  for (const auto& scheme : {make_scheme_none(), make_scheme_secded()}) {
    const array_geometry geometry{rows, scheme->storage_bits()};
    for (const double pcell : {5e-6, 2e-5, 1e-4}) {
      const std::vector<mse_stratum> strata =
          mse_strata(geometry, pcell, config);
      std::vector<std::uint64_t> starts;
      std::uint64_t trials = 0;
      for (const mse_stratum& s : strata) {
        starts.push_back(trials);
        trials += s.count;
      }
      const std::function<weighted_sample(std::uint64_t, rng&)> body =
          [&](std::uint64_t trial, rng& gen) -> weighted_sample {
        const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
        const mse_stratum& s = strata[static_cast<std::size_t>(
            std::distance(starts.begin(), it) - 1)];
        return {sample_mse(*scheme, geometry, s.n, gen), s.weight_each};
      };

      campaign_runner serial({.threads = 1, .seed = 42});
      const empirical_cdf cdf = serial.map_weighted(trials, body);
      for (const unsigned threads : {2u, 4u, 8u}) {
        campaign_runner runner({.threads = threads, .seed = 42});
        expect_bit_identical(runner.map_weighted(trials, body), cdf, threads);
      }

      // The same samples through the sort-and-accumulate oracle.
      const std::vector<weighted_sample> samples =
          serial.map<weighted_sample>(trials, body);
      std::vector<double> values;
      std::vector<double> weights;
      for (const weighted_sample& s : samples) {
        values.push_back(s.value);
        weights.push_back(s.weight);
      }
      const reference_cdf oracle = empirical_cdf_reference(values, weights);
      ASSERT_EQ(cdf.support(), oracle.support) << pcell;
      for (std::size_t i = 0; i < oracle.cumulative.size(); ++i) {
        EXPECT_NEAR(cdf.cumulative()[i], oracle.cumulative[i], 1e-12)
            << scheme->name() << " at Pcell " << pcell << ", point " << i;
      }
    }
  }
}

TEST(CampaignRunnerTest, NaNSampleIsRejected) {
  for (const unsigned threads : {1u, 4u}) {
    campaign_runner runner({.threads = threads, .seed = 8});
    EXPECT_THROW((void)runner.map_weighted(
                     300,
                     [](std::uint64_t trial, rng&) -> weighted_sample {
                       return {trial == 211 ? std::nan("") : 1.0, 1.0};
                     }),
                 std::invalid_argument)
        << threads;
  }
}

TEST(CampaignRunnerTest, QualityExperimentBitIdenticalAcrossThreadCounts) {
  // The rewired Fig. 7 driver end to end (KNN, tiny scale for speed).
  const auto app = make_knn_app();
  quality_experiment_config config;
  config.pcell = 2e-4;
  config.samples_per_count = 2;
  config.seed = 17;

  const auto run_at = [&](unsigned threads) {
    config.threads = threads;
    return run_quality_experiment(
        *app,
        [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); },
        "nFM=1", config);
  };
  const quality_result reference = run_at(1);
  for (const unsigned threads : {2u, 8u}) {
    const quality_result result = run_at(threads);
    EXPECT_EQ(result.clean_metric, reference.clean_metric) << threads;
    expect_bit_identical(result.cdf, reference.cdf, threads);
  }
}

}  // namespace
}  // namespace urmem
