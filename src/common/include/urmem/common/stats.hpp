// Statistical primitives shared by the yield analysis and the
// application-quality experiments: normal CDF/quantile, descriptive
// statistics, (weighted) empirical distribution functions, and the
// log-bucketed latency histogram the serving path records tails with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace urmem {

/// Standard normal cumulative distribution function Phi(x).
[[nodiscard]] double normal_cdf(double x);

/// Inverse of normal_cdf. `p` must lie in (0, 1).
/// Acklam's rational approximation refined with one Halley step
/// (relative error below 1e-13 over the full domain).
[[nodiscard]] double normal_quantile(double p);

/// Arithmetic mean; empty input yields 0.
[[nodiscard]] double mean(std::span<const double> values);

/// Unbiased sample variance (n-1 denominator); fewer than 2 values yield 0.
[[nodiscard]] double variance(std::span<const double> values);

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> values);

/// `count` evenly spaced points from `lo` to `hi` inclusive.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t count);

/// `count` logarithmically spaced points from `lo` to `hi` inclusive
/// (both strictly positive).
[[nodiscard]] std::vector<double> logspace(double lo, double hi, std::size_t count);

/// Order-free count of weighted samples: how often each (value, weight)
/// pair occurred. Keys are the bit patterns of the two doubles, with
/// -0.0 folded into +0.0; a NaN value and a negative or NaN weight are
/// rejected (std::invalid_argument).
///
/// Built for concurrent campaigns the way latency_histogram is: one
/// tally per worker, merge() after the workers join. Merging is
/// key-wise integer addition, so the merged tally, and the
/// empirical_cdf built from it, is the same at any thread count and in
/// any merge order. Memory grows with the distinct pairs, not the
/// samples: a Fig. 5 sweep of ~5e5 trials per scheme has at most ~1e4.
class weighted_tally {
 public:
  /// One distinct pair and how often it was added.
  struct entry {
    double value = 0.0;
    double weight = 0.0;
    std::uint64_t count = 0;
  };

  /// Counts `count` samples of `value` carrying `weight`.
  void add(double value, double weight, std::uint64_t count = 1);

  /// Adds `other`'s counts into this tally (exact).
  void merge(const weighted_tally& other);

  /// The distinct pairs with their counts, ascending by value, then by
  /// weight: a fixed order that does not depend on insertion history.
  [[nodiscard]] std::vector<entry> sorted_entries() const;

 private:
  struct slot {
    std::uint64_t value_bits = 0;
    std::uint64_t weight_bits = 0;
    std::uint64_t count = 0;  // 0 marks an empty slot
  };

  slot& find_slot(std::uint64_t value_bits, std::uint64_t weight_bits);
  void grow();

  std::vector<slot> slots_;  // open addressing, power-of-two size
  std::size_t used_ = 0;
};

/// Weighted empirical cumulative distribution function.
///
/// Samples carry nonnegative weights (uniform MC uses weight 1; the
/// stratified fault-count sweep of the paper's Fig. 5 uses per-stratum
/// probabilities Pr(N = n)). Weights are normalized internally, so the
/// CDF always reaches 1 at +infinity.
///
/// Every constructor goes through one rule over a weighted_tally: its
/// distinct (value, weight) pairs in sorted order, total = sum of
/// count * weight in that order, then running += count * weight / total
/// in that order, equal values merged into one support point. The
/// result therefore depends only on the multiset of samples, never on
/// their input order.
class empirical_cdf {
 public:
  empirical_cdf() = default;

  /// Builds the distribution from a tally of weighted samples. The
  /// tally must be nonempty with a positive, finite total weight.
  explicit empirical_cdf(const weighted_tally& tally);

  /// Builds the distribution from (value, weight) pairs.
  /// Weights must be nonnegative with a positive sum.
  empirical_cdf(std::vector<double> values, std::vector<double> weights);

  /// Builds an unweighted distribution (all weights 1).
  explicit empirical_cdf(std::vector<double> values);

  /// P(X <= x).
  [[nodiscard]] double at(double x) const;

  /// Smallest sample value v with P(X <= v) >= p; `p` in (0, 1].
  [[nodiscard]] double quantile(double p) const;

  /// Number of distinct support points.
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Sorted support points (deduplicated).
  [[nodiscard]] const std::vector<double>& support() const { return values_; }

  /// Cumulative probability at each support point.
  [[nodiscard]] const std::vector<double>& cumulative() const { return cumulative_; }

 private:
  std::vector<double> values_;      // sorted, unique
  std::vector<double> cumulative_;  // matching cumulative probabilities
};

/// Log-bucketed histogram of nonnegative integer samples (latencies in
/// nanoseconds, queue depths, ...), built for concurrent drivers: each
/// thread records into its own instance and the per-thread histograms
/// merge exactly (merge is bucket-wise integer addition, so it is
/// associative and commutative — the merged result is bit-identical at
/// any thread count and merge order).
///
/// Values below 2^6 land in exact unit buckets; above that each power
/// of two splits into 32 sub-buckets, bounding the relative quantile
/// error at 1/32 while keeping the bucket table a fixed 1920 entries.
/// Counts, sum, min, and max are exact.
///
/// Thread-safety audit (no locks by design): an instance is NOT
/// internally synchronized — record() from two threads on a shared
/// histogram is a data race. The concurrency model is ownership:
/// one instance per recording thread, merge() called only after those
/// threads are joined (service_driver does exactly this). Locking the
/// hot record() path would serialize the very tail latencies being
/// measured.
class latency_histogram {
 public:
  /// Sub-buckets per octave (power-of-two range).
  static constexpr unsigned sub_bucket_bits = 5;
  static constexpr std::uint64_t sub_bucket_count = 1ull << sub_bucket_bits;
  /// Fixed bucket-table size covering the full uint64 domain.
  static constexpr std::size_t bucket_table_size =
      (64 - sub_bucket_bits - 1) * sub_bucket_count + 2 * sub_bucket_count;

  latency_histogram();

  /// Records one sample.
  void record(std::uint64_t value);

  /// Adds `other`'s samples into this histogram (exact).
  void merge(const latency_histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Exact sum of all recorded samples (wraps past 2^64, i.e. after
  /// ~584 years of nanoseconds — out of scope).
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded sample; 0 when empty.
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const;

  /// Value at quantile `q` in [0, 1]: the smallest bucket upper bound
  /// whose cumulative count reaches ceil(q * count), clamped to the
  /// exact [min, max] range (so q=0 returns min, q=1 returns max, and
  /// a single-sample histogram returns that sample at every q).
  /// Returns 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Bucket index a value lands in (exposed for tests).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value);
  /// Largest value mapping to `index` (bucket upper bound).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index);

  friend bool operator==(const latency_histogram&,
                         const latency_histogram&) = default;

 private:
  std::vector<std::uint64_t> buckets_;  // fixed bucket_table_size entries
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace urmem
