#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

// ------------------------------------------------------------ histogram

std::size_t histogram::index_of(std::uint64_t value) {
  constexpr std::uint64_t exact = std::uint64_t{2} << sub_bits;
  if (value < exact) return static_cast<std::size_t>(value);
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(value)) - (sub_bits + 1);
  return (std::size_t{shift} << sub_bits) +
         static_cast<std::size_t>(value >> shift);
}

std::uint64_t histogram::lower_of(std::size_t index) {
  constexpr std::size_t exact = std::size_t{2} << sub_bits;
  if (index < exact) return index;
  const std::size_t shift = (index >> sub_bits) - 1;
  return static_cast<std::uint64_t>(index - (shift << sub_bits)) << shift;
}

std::uint64_t histogram::width_of(std::size_t index) {
  constexpr std::size_t exact = std::size_t{2} << sub_bits;
  if (index < exact) return 1;
  return std::uint64_t{1} << ((index >> sub_bits) - 1);
}

void histogram::record(std::uint64_t value) {
  if (buckets_.empty()) buckets_.assign(table_size, 0);
  ++buckets_[index_of(value)];
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = count_ == 0 ? value : std::max(max_, value);
  ++count_;
  sum_ += static_cast<double>(value);
}

void histogram::merge(const histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(table_size, 0);
  for (std::size_t i = 0; i < table_size; ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < table_size; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0) continue;
    if (rank < before + n) {
      const double fraction = (rank - before + 0.5) / n;
      const double value = static_cast<double>(lower_of(i)) +
                           fraction * static_cast<double>(width_of(i));
      return std::clamp(value, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    before += n;
  }
  return static_cast<double>(max_);
}

double sample_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

// --------------------------------------------------------------- tracer

tracer::tracer() : origin_ns_(now_ns()) {}

tracer& tracer::instance() {
  static tracer global;
  return global;
}

std::uint32_t tracer::id(std::string_view name, span_kind kind) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  const std::size_t dot = name.find('.');
  names_.push_back({std::string(name),
                    std::string(name.substr(0, dot)), kind});
  return static_cast<std::uint32_t>(names_.size() - 1);
}

tracer::thread_state& tracer::local() {
  // One tracer per process, so a plain thread_local cache is enough.
  thread_local thread_state* state = nullptr;
  if (state == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<thread_state>());
    state = threads_.back().get();
    state->tid = static_cast<std::uint32_t>(threads_.size());
    if (threads_.size() <= threads_keeping_spans) {
      state->span_cap = spans_per_thread;
      state->spans.reserve(spans_per_thread);
    }
  }
  if (state->stats.size() < names_.size()) state->stats.resize(names_.size());
  return *state;
}

void tracer::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& state : threads_) {
    for (span_stats& stats : state->stats) stats = span_stats{};
  }
}

std::vector<span_stats> tracer::merged() const {
  std::vector<span_stats> out(names_.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& state : threads_) {
    for (std::size_t i = 0; i < state->stats.size(); ++i) {
      const span_stats& s = state->stats[i];
      out[i].count += s.count;
      out[i].total_ns += s.total_ns;
      out[i].self_ns += s.self_ns;
      out[i].last_end_ns = std::max(out[i].last_end_ns, s.last_end_ns);
      out[i].durations.merge(s.durations);
    }
  }
  return out;
}

std::uint64_t tracer::latest_end(std::uint32_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t latest = 0;
  for (const auto& state : threads_) {
    if (id < state->stats.size()) {
      latest = std::max(latest, state->stats[id].last_end_ns);
    }
  }
  return latest;
}

std::uint64_t tracer::kept_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& state : threads_) total += state->spans.size();
  return total;
}

std::uint64_t tracer::dropped_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& state : threads_) total += state->dropped;
  return total;
}

void tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& state : threads_) {
    for (const record& r : state->spans) {
      const name_info& info = names_[r.name];
      const double ts = static_cast<double>(r.start - origin_ns_) * 1e-3;
      const double dur = static_cast<double>(r.end - r.start) * 1e-3;
      const long long key =
          r.key == span::no_key ? -1 : static_cast<long long>(r.key);
      std::snprintf(line, sizeof line,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"key\":%lld}}",
                    first ? "" : ",\n", info.name.c_str(), info.layer.c_str(),
                    ts, dur, state->tid,
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent), key);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

// ----------------------------------------------------------------- span

span::span(std::uint32_t name, std::uint64_t key, std::uint64_t parent)
    : state_(nullptr), open_(tracer::instance().enabled()) {
  if (!open_) return;
  state_ = &tracer::instance().local();
  id_ = (std::uint64_t{state_->tid} << 40) | state_->next_seq++;
  if (!state_->stack.empty()) {
    // Spans inside a trial or request carry its id.
    if (parent == 0) parent = state_->stack.back().id;
    if (key == no_key) key = state_->stack.back().key;
  }
  state_->stack.push_back({name, now_ns(), 0, id_, parent, key});
}

std::uint64_t span::finish() {
  if (!open_) return duration_;
  open_ = false;
  const std::uint64_t end = now_ns();
  const tracer::frame f = state_->stack.back();
  state_->stack.pop_back();
  duration_ = end - f.start;
  span_stats& stats = state_->stats[f.name];
  ++stats.count;
  stats.total_ns += duration_;
  stats.self_ns += duration_ - std::min(duration_, f.child_ns);
  stats.last_end_ns = std::max(stats.last_end_ns, end);
  stats.durations.record(duration_);
  if (!state_->stack.empty()) state_->stack.back().child_ns += duration_;
  if (state_->spans.size() < state_->span_cap) {
    state_->spans.push_back({f.name, f.start, end, f.id, f.parent, f.key});
  } else {
    ++state_->dropped;
  }
  return duration_;
}

}  // namespace perfbench
