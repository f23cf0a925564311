#include "urmem/common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.7071067811865475244);  // 1/sqrt(2)
}

namespace {

// Acklam's inverse-normal rational approximation (|rel err| < 1.15e-9).
double acklam_quantile(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double normal_quantile(double p) {
  expects(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
  double x = acklam_quantile(p);
  // One Halley refinement step against the exact CDF.
  constexpr double inv_sqrt_2pi = 0.3989422804014326779;
  const double e = normal_cdf(x) - p;
  const double u = e / (inv_sqrt_2pi * std::exp(-0.5 * x * x));
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (const double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size() - 1);
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  expects(count >= 2, "linspace requires at least 2 points");
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

std::vector<double> logspace(double lo, double hi, std::size_t count) {
  expects(lo > 0.0 && hi > 0.0, "logspace requires positive endpoints");
  auto exponents = linspace(std::log10(lo), std::log10(hi), count);
  for (double& e : exponents) e = std::pow(10.0, e);
  exponents.back() = hi;
  return exponents;
}

namespace {

/// Bit pattern of `x` with -0.0 folded into +0.0, so the two zeros key
/// one tally entry (they compare equal as support points anyway).
std::uint64_t key_bits(double x) {
  return std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
}

/// Slot hash of a (value, weight) key: a multiply to spread the value,
/// then the murmur3 64-bit finalizer, so keys that differ only in high
/// bits (exponents of round MSE values) still spread over the low bits
/// the table indexes with.
std::uint64_t key_hash(std::uint64_t value_bits, std::uint64_t weight_bits) {
  std::uint64_t h = value_bits * 0x9e3779b97f4a7c15ull ^ weight_bits;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// The samples as a tally; empty `weights` means weight 1 each.
weighted_tally tally_of(const std::vector<double>& values,
                        const std::vector<double>& weights) {
  expects(weights.empty() || weights.size() == values.size(),
          "values/weights size mismatch");
  weighted_tally tally;
  for (std::size_t i = 0; i < values.size(); ++i) {
    tally.add(values[i], weights.empty() ? 1.0 : weights[i]);
  }
  return tally;
}

}  // namespace

weighted_tally::slot& weighted_tally::find_slot(std::uint64_t value_bits,
                                                std::uint64_t weight_bits) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = key_hash(value_bits, weight_bits) & mask;;
       i = (i + 1) & mask) {
    slot& s = slots_[i];
    if (s.count == 0 ||
        (s.value_bits == value_bits && s.weight_bits == weight_bits)) {
      return s;
    }
  }
}

void weighted_tally::grow() {
  std::vector<slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
  old.swap(slots_);
  for (const slot& s : old) {
    if (s.count != 0) find_slot(s.value_bits, s.weight_bits) = s;
  }
}

void weighted_tally::add(double value, double weight, std::uint64_t count) {
  expects(!std::isnan(value), "weighted_tally: sample value is NaN");
  expects(weight >= 0.0,
          "weighted_tally: sample weight must be nonnegative (not NaN)");
  if (count == 0) return;
  // Load factor at most 1/2 keeps the linear probes short.
  if (2 * (used_ + 1) > slots_.size()) grow();
  const std::uint64_t value_bits = key_bits(value);
  const std::uint64_t weight_bits = key_bits(weight);
  slot& s = find_slot(value_bits, weight_bits);
  if (s.count == 0) {
    s.value_bits = value_bits;
    s.weight_bits = weight_bits;
    ++used_;
  }
  s.count += count;
}

void weighted_tally::merge(const weighted_tally& other) {
  for (const slot& s : other.slots_) {
    if (s.count != 0) {
      add(std::bit_cast<double>(s.value_bits),
          std::bit_cast<double>(s.weight_bits), s.count);
    }
  }
}

std::vector<weighted_tally::entry> weighted_tally::sorted_entries() const {
  std::vector<entry> entries;
  entries.reserve(used_);
  for (const slot& s : slots_) {
    if (s.count != 0) {
      entries.push_back({std::bit_cast<double>(s.value_bits),
                         std::bit_cast<double>(s.weight_bits), s.count});
    }
  }
  // Keys are unique and NaN-free, so this order is total: the sort
  // cannot leave ties for the implementation to break.
  std::sort(entries.begin(), entries.end(),
            [](const entry& l, const entry& r) {
              return l.value != r.value ? l.value < r.value
                                        : l.weight < r.weight;
            });
  return entries;
}

empirical_cdf::empirical_cdf(std::vector<double> values)
    : empirical_cdf(std::move(values), {}) {}

empirical_cdf::empirical_cdf(std::vector<double> values,
                             std::vector<double> weights)
    : empirical_cdf(tally_of(values, weights)) {}

empirical_cdf::empirical_cdf(const weighted_tally& tally) {
  const std::vector<weighted_tally::entry> entries = tally.sorted_entries();
  expects(!entries.empty(), "empirical_cdf requires at least one sample");
  double total = 0.0;
  for (const weighted_tally::entry& e : entries) {
    total += static_cast<double>(e.count) * e.weight;
  }
  expects(total > 0.0 && std::isfinite(total),
          "total weight must be positive and finite");

  values_.reserve(entries.size());
  cumulative_.reserve(entries.size());
  double running = 0.0;
  for (const weighted_tally::entry& e : entries) {
    running += static_cast<double>(e.count) * e.weight / total;
    if (!values_.empty() && values_.back() == e.value) {
      cumulative_.back() = running;  // merge duplicate support points
    } else {
      values_.push_back(e.value);
      cumulative_.push_back(running);
    }
  }
  cumulative_.back() = 1.0;  // absorb rounding
}

double empirical_cdf::at(double x) const {
  expects(!values_.empty(), "empirical_cdf is empty");
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0.0;
  const auto idx = static_cast<std::size_t>(std::distance(values_.begin(), it)) - 1;
  return cumulative_[idx];
}

double empirical_cdf::quantile(double p) const {
  expects(!values_.empty(), "empirical_cdf is empty");
  expects(p > 0.0 && p <= 1.0, "quantile requires p in (0,1]");
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), p);
  if (it == cumulative_.end()) return values_.back();
  const auto idx = static_cast<std::size_t>(std::distance(cumulative_.begin(), it));
  return values_[idx];
}

latency_histogram::latency_histogram() : buckets_(bucket_table_size, 0) {}

std::size_t latency_histogram::bucket_index(std::uint64_t value) {
  // Values with at most (sub_bucket_bits + 1) significant bits get
  // exact unit buckets; above that the top sub_bucket_bits+1 bits pick
  // the bucket, giving 32 sub-buckets per octave.
  if (value < 2 * sub_bucket_count) return static_cast<std::size_t>(value);
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(value)) - (sub_bucket_bits + 1);
  const std::uint64_t top = value >> shift;  // in [32, 64)
  return static_cast<std::size_t>(shift) * sub_bucket_count +
         static_cast<std::size_t>(top);
}

std::uint64_t latency_histogram::bucket_upper(std::size_t index) {
  expects(index < bucket_table_size, "bucket index out of range");
  if (index < 2 * sub_bucket_count) return index;
  const unsigned shift =
      static_cast<unsigned>(index / sub_bucket_count) - 1;
  const std::uint64_t top = index - std::size_t{shift} * sub_bucket_count;
  return (top << shift) | ((std::uint64_t{1} << shift) - 1);
}

void latency_histogram::record(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void latency_histogram::merge(const latency_histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < bucket_table_size; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double latency_histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t latency_histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_table_size; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;  // unreachable: cumulative reaches count_
}

}  // namespace urmem
