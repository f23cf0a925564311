// Tests for the statistics primitives (normal CDF/quantile, ECDF,
// weighted tally, latency histogram).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "urmem/common/stats.hpp"

namespace urmem {
namespace {

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-10);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-10);
  EXPECT_NEAR(normal_cdf(-6.0), 9.865876450377018e-10, 1e-16);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (const double p : {1e-9, 1e-6, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12 + p * 1e-10) << "p=" << p;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-9);
  EXPECT_NEAR(normal_quantile(1e-4), -3.719016485455709, 1e-8);
}

TEST(NormalTest, QuantileRejectsOutOfDomain) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

TEST(DescriptiveTest, MeanVarianceStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(SpacingTest, LinspaceEndpointsAndStep) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(SpacingTest, LogspaceIsGeometric) {
  const auto v = logspace(1.0, 1000.0, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_NEAR(v[0], 1.0, 1e-9);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
  EXPECT_NEAR(v[3], 1000.0, 1e-9);
}

TEST(EcdfTest, UnweightedStepFunction) {
  const empirical_cdf cdf(std::vector<double>{3.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(1.9), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EcdfTest, WeightedMassesNormalize) {
  const empirical_cdf cdf({10.0, 20.0}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(20.0), 1.0);
}

TEST(EcdfTest, QuantileIsGeneralizedInverse) {
  const empirical_cdf cdf(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EcdfTest, DuplicateSupportPointsAreMerged) {
  const empirical_cdf cdf(std::vector<double>{5.0, 5.0, 5.0});
  EXPECT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 1.0);
}

TEST(EcdfTest, RejectsInvalidConstruction) {
  EXPECT_THROW(empirical_cdf(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(empirical_cdf({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(empirical_cdf({1.0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(empirical_cdf({1.0}, {0.0}), std::invalid_argument);
}

TEST(EcdfTest, CdfIsMonotoneOverSupport) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(std::sin(i) * 10.0);
  const empirical_cdf cdf(values);
  double prev = 0.0;
  for (const double v : cdf.support()) {
    const double cur = cdf.at(v);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}


TEST(EcdfTest, PermutedInputWithTiedValuesIsBitIdentical) {
  // 400 samples over 10 tied values, each tie carrying weights whose
  // float sums depend on the order they are added in. The CDF must not
  // depend on the input order (nor on how a sort breaks the ties).
  std::vector<double> values;
  std::vector<double> weights;
  for (int i = 0; i < 400; ++i) {
    values.push_back(static_cast<double>((i * 7) % 10));
    weights.push_back(0.1 * (1 + i % 13) + 1e-3 * i + 1.0 / (3 + i));
  }
  const empirical_cdf reference(values, weights);
  for (const std::uint64_t stride : {1u, 37u, 211u, 399u}) {
    // Stride permutations of 0..399 (every stride is coprime to 400).
    std::vector<double> permuted_values;
    std::vector<double> permuted_weights;
    for (std::uint64_t k = 0; k < values.size(); ++k) {
      const std::size_t i = (k * stride + 3) % values.size();
      permuted_values.push_back(values[i]);
      permuted_weights.push_back(weights[i]);
    }
    const empirical_cdf cdf(permuted_values, permuted_weights);
    ASSERT_EQ(cdf.support(), reference.support()) << stride;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      EXPECT_EQ(cdf.cumulative()[i], reference.cumulative()[i])
          << "stride " << stride << ", support point " << i;
    }
  }
}

TEST(EcdfTest, RejectsNaNSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(empirical_cdf(std::vector<double>{1.0, nan}),
               std::invalid_argument);
  EXPECT_THROW(empirical_cdf({1.0, 2.0}, {1.0, nan}), std::invalid_argument);
}

TEST(WeightedTallyTest, CountsDistinctPairsInSortedOrder) {
  weighted_tally tally;
  tally.add(2.0, 0.5);
  tally.add(1.0, 0.5);
  tally.add(2.0, 0.25);
  tally.add(2.0, 0.5);
  tally.add(1.0, 0.5, 3);
  tally.add(1.0, 0.5, 0);  // a zero count adds nothing
  tally.add(3.0, 0.5, 0);
  const std::vector<weighted_tally::entry> entries = tally.sorted_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].value, 1.0);
  EXPECT_EQ(entries[0].weight, 0.5);
  EXPECT_EQ(entries[0].count, 4u);
  EXPECT_EQ(entries[1].value, 2.0);
  EXPECT_EQ(entries[1].weight, 0.25);
  EXPECT_EQ(entries[1].count, 1u);
  EXPECT_EQ(entries[2].value, 2.0);
  EXPECT_EQ(entries[2].weight, 0.5);
  EXPECT_EQ(entries[2].count, 2u);
}

TEST(WeightedTallyTest, NegativeZeroFoldsIntoPositiveZero) {
  weighted_tally tally;
  tally.add(-0.0, 1.0);
  tally.add(0.0, 1.0);
  tally.add(0.0, -0.0);
  const std::vector<weighted_tally::entry> entries = tally.sorted_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(std::signbit(entries[0].value));
  EXPECT_FALSE(std::signbit(entries[0].weight));
  EXPECT_EQ(entries[0].weight, 0.0);
  EXPECT_EQ(entries[1].count, 2u);
}

TEST(WeightedTallyTest, MergeIsOrderFree) {
  // Four "workers" tally interleaved slices of one sample stream; every
  // merge order gives the same entries as one tally of the whole stream.
  std::vector<weighted_tally> workers(4);
  weighted_tally whole;
  for (int i = 0; i < 5000; ++i) {
    const double value = std::floor(std::sin(i) * 300.0) / 64.0;
    const double weight = 1.0 / (1 + i % 5);
    workers[static_cast<std::size_t>(i * 31 % 4)].add(value, weight);
    whole.add(value, weight);
  }
  const std::vector<weighted_tally::entry> expected = whole.sorted_entries();
  const empirical_cdf expected_cdf(whole);
  for (const auto& order : {std::vector<std::size_t>{0, 1, 2, 3},
                            std::vector<std::size_t>{3, 1, 0, 2},
                            std::vector<std::size_t>{2, 3, 1, 0}}) {
    weighted_tally merged;
    for (const std::size_t w : order) merged.merge(workers[w]);
    const std::vector<weighted_tally::entry> got = merged.sorted_entries();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value, expected[i].value);
      EXPECT_EQ(got[i].weight, expected[i].weight);
      EXPECT_EQ(got[i].count, expected[i].count);
    }
    const empirical_cdf cdf(merged);
    EXPECT_EQ(cdf.support(), expected_cdf.support());
    EXPECT_EQ(cdf.cumulative(), expected_cdf.cumulative());
  }
}

TEST(WeightedTallyTest, RejectsNaNAndNegativeWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  weighted_tally tally;
  EXPECT_THROW(tally.add(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(tally.add(1.0, nan), std::invalid_argument);
  EXPECT_THROW(tally.add(1.0, -0.5), std::invalid_argument);
  EXPECT_TRUE(tally.sorted_entries().empty());
  EXPECT_THROW((void)empirical_cdf(tally), std::invalid_argument);
}


TEST(LatencyHistogram, EmptyAndSingleSample) {
  latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);

  h.record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1234u);
  // One sample is every quantile: min/max clamping pins the bucket
  // upper bound back onto the exact value.
  EXPECT_EQ(h.quantile(0.0), 1234u);
  EXPECT_EQ(h.quantile(0.5), 1234u);
  EXPECT_EQ(h.quantile(1.0), 1234u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below 2^(sub_bucket_bits + 1) get unit-width buckets, so
  // quantiles are exact, not approximate.
  latency_histogram h;
  for (std::uint64_t v = 0; v < 2 * latency_histogram::sub_bucket_count; ++v) {
    h.record(v);
    EXPECT_EQ(latency_histogram::bucket_upper(latency_histogram::bucket_index(v)),
              v);
  }
  EXPECT_EQ(h.quantile(0.5), latency_histogram::sub_bucket_count - 1);
  EXPECT_EQ(h.quantile(1.0), 2 * latency_histogram::sub_bucket_count - 1);
}

TEST(LatencyHistogram, BucketBoundsAreConsistent) {
  // bucket_upper(bucket_index(v)) >= v, with relative error bounded by
  // 1/sub_bucket_count — checked across the whole 64-bit range.
  for (unsigned shift = 0; shift < 64; ++shift) {
    for (const std::uint64_t delta : {std::uint64_t{0}, std::uint64_t{1}}) {
      const std::uint64_t v = (std::uint64_t{1} << shift) + delta;
      const std::size_t index = latency_histogram::bucket_index(v);
      ASSERT_LT(index, latency_histogram::bucket_table_size);
      const std::uint64_t upper = latency_histogram::bucket_upper(index);
      EXPECT_GE(upper, v);
      EXPECT_LE(static_cast<double>(upper - v),
                static_cast<double>(v) / latency_histogram::sub_bucket_count +
                    1.0);
    }
  }
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_LT(latency_histogram::bucket_index(top),
            latency_histogram::bucket_table_size);
  EXPECT_EQ(latency_histogram::bucket_upper(latency_histogram::bucket_index(top)),
            top);
}

TEST(LatencyHistogram, QuantileEdges) {
  latency_histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.quantile(0.0), 1u);   // clamped to min
  EXPECT_EQ(h.quantile(1.0), 1000u);  // clamped to max
  // Mid quantiles land within one bucket (3.2%) of the exact value.
  const auto near = [](std::uint64_t got, double want) {
    return static_cast<double>(got) >= want &&
           static_cast<double>(got) <= want * 1.04 + 1.0;
  };
  EXPECT_TRUE(near(h.quantile(0.5), 500.0)) << h.quantile(0.5);
  EXPECT_TRUE(near(h.quantile(0.99), 990.0)) << h.quantile(0.99);
  EXPECT_TRUE(near(h.quantile(0.999), 999.0)) << h.quantile(0.999);
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  const auto fill = [](latency_histogram& h, std::uint64_t seed,
                       std::uint64_t n) {
    std::uint64_t x = seed;
    for (std::uint64_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      h.record(x >> 40);
    }
  };
  latency_histogram a, b, c;
  fill(a, 1, 400);
  fill(b, 2, 300);
  fill(c, 3, 200);

  latency_histogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  latency_histogram bc = b;
  bc.merge(c);
  latency_histogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);

  latency_histogram ba = b;
  ba.merge(a);
  latency_histogram ab = a;
  ab.merge(b);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.count(), 700u);
  EXPECT_EQ(ab.sum(), a.sum() + b.sum());
  EXPECT_EQ(ab.min(), std::min(a.min(), b.min()));
  EXPECT_EQ(ab.max(), std::max(a.max(), b.max()));

  // Merging an empty histogram is the identity.
  latency_histogram empty;
  latency_histogram a_e = a;
  a_e.merge(empty);
  EXPECT_TRUE(a_e == a);
  latency_histogram e_a = empty;
  e_a.merge(a);
  EXPECT_TRUE(e_a == a);
}

TEST(LatencyHistogram, MergeOfTwoEmptiesStaysEmpty) {
  latency_histogram a;
  latency_histogram b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_EQ(a.quantile(0.999), 0u);
  EXPECT_TRUE(a == latency_histogram{});
}

TEST(LatencyHistogram, SaturatingTopBucket) {
  // The table's last bucket absorbs the top of the uint64 range instead
  // of overflowing the index.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(latency_histogram::bucket_index(top),
            latency_histogram::bucket_table_size - 1);
  EXPECT_EQ(latency_histogram::bucket_upper(
                latency_histogram::bucket_table_size - 1),
            top);

  latency_histogram h;
  h.record(top);
  h.record(top - 1);  // same saturating bucket
  EXPECT_EQ(latency_histogram::bucket_index(top - 1),
            latency_histogram::bucket_index(top));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), top - 1);
  EXPECT_EQ(h.max(), top);
  // Both samples share one bucket whose upper bound clamps to max.
  EXPECT_EQ(h.quantile(0.5), top);
  EXPECT_EQ(h.quantile(1.0), top);
  // sum() is documented to wrap modulo 2^64: (2^64-1) + (2^64-2).
  EXPECT_EQ(h.sum(), top - 2);
}

TEST(LatencyHistogram, QuantileAtExactBucketBoundaries) {
  // 63 is the last exact unit bucket; 64 opens the first sub-bucketed
  // octave (width-2 buckets for sub_bucket_bits=5). Samples placed
  // exactly on bucket upper bounds make quantiles exact, so the
  // boundary arithmetic has nowhere to hide.
  const std::uint64_t edge = 2 * latency_histogram::sub_bucket_count;  // 64
  ASSERT_NE(latency_histogram::bucket_index(edge - 1),
            latency_histogram::bucket_index(edge));
  EXPECT_EQ(latency_histogram::bucket_upper(
                latency_histogram::bucket_index(edge - 1)),
            edge - 1);

  latency_histogram h;
  h.record(edge - 1);
  h.record(edge);
  // rank ceil(0.5 * 2) = 1 -> the exact bucket of 63; rank 2 -> the
  // first sub-bucketed bucket, whose upper bound clamps back to 64.
  EXPECT_EQ(h.quantile(0.5), edge - 1);
  EXPECT_EQ(h.quantile(0.51), edge);
  EXPECT_EQ(h.quantile(1.0), edge);

  // A run of samples on consecutive bucket upper bounds stays exact at
  // every boundary quantile.
  latency_histogram exact;
  std::vector<std::uint64_t> uppers;
  for (std::size_t index = 100; index < 110; ++index) {
    const std::uint64_t upper = latency_histogram::bucket_upper(index);
    uppers.push_back(upper);
    exact.record(upper);
  }
  const auto n = static_cast<double>(uppers.size());
  for (std::size_t i = 0; i < uppers.size(); ++i) {
    // q chosen so ceil(q * n) == i + 1 exactly.
    const double q = (static_cast<double>(i) + 1.0) / n;
    EXPECT_EQ(exact.quantile(q), uppers[i]) << "i=" << i;
  }
}

TEST(LatencyHistogram, SingleSampleTailQuantiles) {
  // A 1-sample histogram reports that sample at every tail quantile —
  // the serve report prints p99.9 even for tiny smoke runs.
  latency_histogram h;
  h.record(123456789);
  EXPECT_EQ(h.quantile(0.999), 123456789u);
  EXPECT_EQ(h.quantile(0.9999), 123456789u);
  EXPECT_EQ(h.quantile(0.001), 123456789u);
  EXPECT_DOUBLE_EQ(h.mean(), 123456789.0);
}

}  // namespace
}  // namespace urmem
