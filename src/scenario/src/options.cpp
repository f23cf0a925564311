#include "urmem/scenario/options.hpp"

#include <charconv>
#include <cmath>

namespace urmem {

spec_error::spec_error(std::string field, std::string_view message)
    : std::runtime_error("scenario spec field '" + field + "': " +
                         std::string(message)),
      field_(std::move(field)) {}

double parse_spec_double(std::string_view field, std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw spec_error(std::string(field),
                     "expected a number, got \"" + std::string(text) + "\"");
  }
  return value;
}

std::uint64_t parse_spec_u64(std::string_view field, std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw spec_error(
        std::string(field),
        "expected an unsigned integer, got \"" + std::string(text) + "\"");
  }
  return value;
}

void option_map::set(std::string_view key, std::string_view value) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      entries_[i].second = value;
      return;
    }
  }
  entries_.emplace_back(std::string(key), std::string(value));
  consumed_.push_back(false);
}

bool option_map::has(std::string_view key) const { return raw(key) != nullptr; }

const std::string* option_map::raw(std::string_view key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      consumed_[i] = true;
      return &entries_[i].second;
    }
  }
  return nullptr;
}

std::string option_map::get_string(std::string_view key,
                                   std::string_view fallback) const {
  const std::string* value = raw(key);
  return value != nullptr ? *value : std::string(fallback);
}

std::uint64_t option_map::get_u64(std::string_view key,
                                  std::uint64_t fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  // "1e7"-style counts are accepted (spec files inherit them from the
  // paper's Trun notation) as long as they are exactly integral. Range
  // checks come BEFORE the cast: float-to-unsigned conversion of a
  // negative or >= 2^64 double is undefined behavior.
  if (value->find_first_of(".eE") != std::string::npos) {
    const double d = parse_spec_double(field_name(key), *value);
    if (d < 0.0 || d >= 1.8446744073709552e19 || std::floor(d) != d) {
      throw spec_error(field_name(key),
                       "expected an unsigned integer, got \"" + *value + "\"");
    }
    return static_cast<std::uint64_t>(d);
  }
  return parse_spec_u64(field_name(key), *value);
}

std::uint32_t option_map::get_u32(std::string_view key,
                                  std::uint32_t fallback) const {
  const std::uint64_t value = get_u64(key, fallback);
  if (value > 0xFFFFFFFFull) {
    throw spec_error(field_name(key),
                     "must fit in 32 bits, got " + std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

double option_map::get_double(std::string_view key, double fallback) const {
  const std::string* value = raw(key);
  return value != nullptr ? parse_spec_double(field_name(key), *value) : fallback;
}

bool option_map::get_bool(std::string_view key, bool fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  throw spec_error(field_name(key),
                   "expected a boolean, got \"" + *value + "\"");
}

std::vector<std::string> split_csv(std::string_view text, char separator) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(separator, start);
    const std::string_view item = end == std::string_view::npos
                                      ? text.substr(start)
                                      : text.substr(start, end - start);
    if (!item.empty()) items.emplace_back(item);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return items;
}

std::vector<std::string> split_scheme_list(std::string_view text) {
  std::vector<std::string> entries;
  for (const std::string& item : split_csv(text)) {
    const std::string_view name_token =
        std::string_view(item).substr(0, item.find(':'));
    if (!entries.empty() && name_token.find('=') != std::string_view::npos) {
      entries.back() += "," + item;
    } else {
      entries.push_back(item);
    }
  }
  return entries;
}

std::vector<std::string> option_map::get_list(std::string_view key,
                                              std::string_view fallback) const {
  const std::string* value = raw(key);
  return split_csv(value != nullptr ? *value : fallback);
}

std::vector<double> option_map::get_double_list(std::string_view key,
                                                std::string_view fallback) const {
  std::vector<double> values;
  for (const std::string& item : get_list(key, fallback)) {
    values.push_back(parse_spec_double(field_name(key), item));
  }
  return values;
}

std::string option_map::field_name(std::string_view key) const {
  if (context_.empty()) return std::string(key);
  std::string field = context_;
  field += '.';
  field += key;
  return field;
}

void option_map::check_consumed() const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!consumed_[i]) {
      throw spec_error(field_name(entries_[i].first), "unknown field");
    }
  }
}

}  // namespace urmem
