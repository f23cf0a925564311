// Diagnosable key/value options for the declarative scenario API.
//
// Every configurable object of a scenario (the spec sections, each
// scheme entry, the workload) carries an option_map: an ordered
// string-to-string map that tracks which keys its consumer actually
// read. After construction the consumer calls check_consumed(), which
// fails loudly — naming the offending field with its full dotted path —
// when a spec contains a key nothing understands. Typos therefore
// surface as "unknown field 'workload.samlpes'" instead of silently
// running the default configuration.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace urmem {

/// Error in a scenario spec, carrying the dotted field path it blames
/// (e.g. "fault.pcell", "schemes[1].nfm").
class spec_error : public std::runtime_error {
 public:
  spec_error(std::string field, std::string_view message);
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

/// Ordered key/value options with consumption tracking.
class option_map {
 public:
  option_map() = default;
  /// `context` prefixes field names in diagnostics, e.g. "workload".
  explicit option_map(std::string context) : context_(std::move(context)) {}

  [[nodiscard]] const std::string& context() const noexcept { return context_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }

  /// Sets `key` (replacing an existing value; insertion order is kept).
  void set(std::string_view key, std::string_view value);

  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters: return `fallback` when the key is absent, throw
  /// spec_error (naming the field) when the value does not convert.
  /// Every getter marks its key consumed.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback) const;
  /// get_u64 restricted to 32 bits — values above 2^32-1 throw instead
  /// of silently wrapping past the caller's range checks.
  [[nodiscard]] std::uint32_t get_u32(std::string_view key,
                                      std::uint32_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  /// Comma-separated list of doubles, e.g. "0.8,0.73,0.66".
  [[nodiscard]] std::vector<double> get_double_list(
      std::string_view key, std::string_view fallback) const;
  /// Comma-separated list of strings.
  [[nodiscard]] std::vector<std::string> get_list(std::string_view key,
                                                  std::string_view fallback) const;

  /// Full diagnostic path of `key` under this map's context.
  [[nodiscard]] std::string field_name(std::string_view key) const;

  /// Throws spec_error for the first key no getter consumed.
  void check_consumed() const;

 private:
  [[nodiscard]] const std::string* raw(std::string_view key) const;

  std::string context_;
  std::vector<std::pair<std::string, std::string>> entries_;
  mutable std::vector<bool> consumed_;
};

/// Splits comma-separated text into its non-empty items — the one
/// list syntax shared by option values, CLI scheme lists and sweep
/// value overrides (and, split on ':', the regions= region list).
[[nodiscard]] std::vector<std::string> split_csv(std::string_view text,
                                                 char separator = ',');

/// Splits a comma-separated list of compact scheme entries — the one
/// scheme-list syntax of urmem-run's schemes= override and
/// urmem-verify --schemes. A tiered entry's sub-scheme options also use
/// commas (tiered:0-99=secded:100-4095=shuffle,nfm=2); an item whose
/// leading name token carries '=' can never start a standalone entry
/// (scheme names have no '='), so such items re-join the entry they
/// were split from.
[[nodiscard]] std::vector<std::string> split_scheme_list(std::string_view text);

/// Parses a double with full-token validation; throws spec_error
/// blaming `field` otherwise. Shared by option_map and the spec parser.
[[nodiscard]] double parse_spec_double(std::string_view field,
                                       std::string_view text);

/// Parses an unsigned integer with full-token validation.
[[nodiscard]] std::uint64_t parse_spec_u64(std::string_view field,
                                           std::string_view text);

}  // namespace urmem
