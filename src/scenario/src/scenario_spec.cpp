#include "urmem/scenario/scenario_spec.hpp"

#include <tuple>
#include <type_traits>
#include <utility>

#include "urmem/common/fs.hpp"
#include "urmem/common/hash.hpp"

namespace urmem {

namespace {

/// Top-level shorthands for the most common flags — applied to override
/// keys, spec-file sweep axis params, and CLI `sweep.<param>` overrides.
std::string_view resolve_spec_alias(std::string_view key) {
  if (key == "seed") return "seeds.root";
  if (key == "threads") return "run.threads";
  if (key == "batch") return "run.batch";
  if (key == "pcell") return "fault.pcell";
  if (key == "vdd") return "fault.vdd";
  if (key == "polarity") return "fault.polarity";
  if (key == "rows") return "geometry.rows_per_tile";
  return key;
}

/// Canonical string form of a scalar spec value (what option_map stores).
std::string scalar_to_string(const std::string& field, const json_value& value) {
  switch (value.type()) {
    case json_value::kind::string: return value.as_string();
    case json_value::kind::number:
    case json_value::kind::boolean: return value.dump(0);
    default:
      throw spec_error(field, "expected a scalar (string, number or boolean)");
  }
}

/// "name:key=value:key=value" compact entry form -> (name, options).
void parse_compact_entry(std::string_view text, const std::string& context,
                         std::string& name, option_map& options) {
  options = option_map(context);
  std::size_t start = 0;
  bool first = true;
  while (start <= text.size()) {
    const std::size_t colon = text.find(':', start);
    const std::string_view token = colon == std::string_view::npos
                                       ? text.substr(start)
                                       : text.substr(start, colon - start);
    if (first) {
      name = std::string(token);
      first = false;
    } else if (!token.empty()) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        throw spec_error(context, "expected key=value after ':', got \"" +
                                      std::string(token) + "\"");
      }
      options.set(token.substr(0, eq), token.substr(eq + 1));
    }
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  if (name.empty()) throw spec_error(context, "entry name must not be empty");
}

/// Scheme/workload entry: compact string or {"name": ..., <options>...}.
void parse_entry(const json_value& value, const std::string& context,
                 std::string& name, option_map& options) {
  if (value.is_string()) {
    parse_compact_entry(value.as_string(), context, name, options);
    return;
  }
  if (!value.is_object()) {
    throw spec_error(context, "expected a name string or an object");
  }
  options = option_map(context);
  name.clear();
  for (const auto& [key, member] : value.as_object()) {
    if (key == "name") {
      if (!member.is_string()) {
        throw spec_error(context + ".name", "expected a string");
      }
      name = member.as_string();
    } else {
      options.set(key, scalar_to_string(context + "." + key, member));
    }
  }
  if (name.empty()) {
    throw spec_error(context + ".name", "entry needs a non-empty name");
  }
}

/// Emits an option value in its natural JSON type (number / bool when
/// the stored string parses as one, string otherwise).
json_value option_value_to_json(const std::string& text) {
  if (text == "true") return json_value(true);
  if (text == "false") return json_value(false);
  if (!text.empty()) {
    try {
      json_value scalar = json_value::parse(text);
      if (scalar.is_number()) return scalar;
    } catch (const json_parse_error&) {
      // fall through to string
    }
  }
  return json_value(text);
}

json_value entry_to_json(const std::string& name, const option_map& options) {
  json_value entry = json_value::make_object();
  entry.set("name", name);
  for (const auto& [key, value] : options.entries()) {
    entry.set(key, option_value_to_json(value));
  }
  return entry;
}

std::uint64_t get_u64_checked(const json_value& value, const std::string& field) {
  try {
    return value.as_u64();
  } catch (const json_type_error& error) {
    throw spec_error(field, error.what());
  }
}

const std::string& get_string_checked(const json_value& value,
                                      const std::string& field) {
  if (!value.is_string()) throw spec_error(field, "expected a string");
  return value.as_string();
}

// ------------------------------------------------------------ field tables
//
// Each spec section lists its fields once, in to_json order: the JSON
// key, the member it lands in, how the JSON value decodes (type and
// bounds, with their diagnostic) and when to_json emits it. from_json,
// to_json, the compact region grammar and the lifecycle echo all walk
// these rows, so adding a field is adding one row.

/// When to_json emits a field or a whole section: always, or only when
/// it differs from its default (for an optional member: when set).
enum class emit_rule : std::uint8_t { always, unless_default };

// Decoders: `field` is blamed on failure; `subject` prefixes range
// messages for callers that blame an enclosing field instead.

/// Unsigned integer in [lo, hi], stored in 32 bits.
struct u32_in {
  std::uint32_t lo;
  std::uint32_t hi;

  std::uint32_t operator()(const json_value& value, const std::string& field,
                           std::string_view subject) const {
    const std::uint64_t v = get_u64_checked(value, field);
    if (v < lo || v > hi) {
      throw spec_error(field, std::string(subject) + "must be in [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + "], got " +
                                  std::to_string(v));
    }
    return static_cast<std::uint32_t>(v);
  }
};

std::uint64_t any_u64(const json_value& value, const std::string& field,
                      std::string_view /*subject*/) {
  return get_u64_checked(value, field);
}

/// Real number in an interval. `text` states the interval in
/// diagnostics, and its brackets say which ends are open: "[0, 1)",
/// "(0, 2] volts".
struct real_in {
  double lo;
  double hi;
  std::string_view text;

  double operator()(const json_value& value, const std::string& field,
                    std::string_view subject) const {
    if (!value.is_number()) throw spec_error(field, "expected a number");
    const double v = value.as_double();
    const bool above_lo = text.front() == '(' ? v > lo : v >= lo;
    const bool below_hi =
        text.find(')') != std::string_view::npos ? v < hi : v <= hi;
    if (!above_lo || !below_hi) {
      throw spec_error(field, std::string(subject) + "must be in " +
                                  std::string(text) + ", got " +
                                  value.dump(0));
    }
    return v;
  }
};

bool boolean(const json_value& value, const std::string& field,
             std::string_view /*subject*/) {
  if (!value.is_bool()) throw spec_error(field, "expected a boolean");
  return value.as_bool();
}

/// One of an enum's names, parsed by `parse`.
template <typename E>
struct one_of {
  std::optional<E> (*parse)(std::string_view);
  std::string_view noun;   ///< "polarity"
  std::string_view valid;  ///< every name, for the diagnostic

  E operator()(const json_value& value, const std::string& field,
               std::string_view /*subject*/) const {
    const std::string& name = get_string_checked(value, field);
    const std::optional<E> parsed = parse(name);
    if (!parsed.has_value()) {
      throw spec_error(field, "unknown " + std::string(noun) + " \"" + name +
                                  "\" (valid: " + std::string(valid) + ")");
    }
    return *parsed;
  }
};

/// One row of a section's field table.
template <typename S, typename T, typename Decode>
struct field_row {
  std::string_view key;
  T S::*member;
  Decode decode;
  emit_rule emit = emit_rule::always;
};

template <typename T>
json_value field_json(const T& value) {
  if constexpr (std::is_enum_v<T>) return std::string(to_string(value));
  else if constexpr (std::is_same_v<T, std::optional<double>>) return *value;
  else return json_value(value);
}

/// Calls `fn` on every row of `fields`, in order.
template <typename Fields, typename Fn>
void for_each_row(const Fields& fields, Fn&& fn) {
  std::apply([&](const auto&... row) { (fn(row), ...); }, fields);
}

/// Calls `fn` on the row of `fields` keyed `key`; false when none is.
template <typename Fields, typename Fn>
bool with_row(const Fields& fields, std::string_view key, Fn&& fn) {
  const auto visit = [&](const auto& row) {
    if (row.key != key) return false;
    fn(row);
    return true;
  };
  return std::apply([&](const auto&... row) { return (visit(row) || ...); },
                    fields);
}

/// Decodes `value` into the member of `out` keyed `key`, blaming
/// `field`; false when `fields` has no such key.
template <typename S, typename Fields>
bool read_field(const Fields& fields, std::string_view key,
                const json_value& value, const std::string& field, S& out) {
  return with_row(fields, key, [&](const auto& row) {
    out.*row.member = row.decode(value, field, {});
  });
}

/// Parses every member of `doc` into `out`; `context` prefixes the
/// field names that diagnostics blame.
template <typename S, typename Fields>
void read_fields(const json_value& doc, const std::string& context,
                 const Fields& fields, S& out) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = context + "." + key;
    if (!read_field(fields, key, value, field, out)) {
      throw spec_error(field, "unknown field");
    }
  }
}

/// Sets each field of `in` on `out` that its row's emit rule selects.
template <typename S, typename Fields>
void write_fields(const Fields& fields, const S& in, json_value& out) {
  for_each_row(fields, [&](const auto& row) {
    if (row.emit == emit_rule::always || in.*row.member != S{}.*row.member) {
      out.set(row.key, field_json(in.*row.member));
    }
  });
}

template <typename S, typename Fields>
bool fields_at_default(const Fields& fields, const S& in) {
  bool at_default = true;
  for_each_row(fields, [&](const auto& row) {
    at_default = at_default && in.*row.member == S{}.*row.member;
  });
  return at_default;
}

/// Bound of the row and fault counts a spec may ask for.
constexpr std::uint32_t max_count = 1u << 22;

/// The operating point of the fault section and of each region.
/// Presence is explicit, so 0 is a valid (fault-free) Pcell.
template <typename S>
constexpr auto operating_point_fields = std::tuple{
    field_row{"pcell", &S::pcell, real_in{0.0, 1.0, "[0, 1)"},
              emit_rule::unless_default},
    field_row{"vdd", &S::vdd, real_in{0.0, 2.0, "(0, 2] volts"},
              emit_rule::unless_default}};

constexpr auto geometry_fields = std::tuple{
    field_row{"rows_per_tile", &geometry_spec::rows_per_tile,
              u32_in{1, array_geometry::max_rows}},
    field_row{"word_bits", &geometry_spec::word_bits, u32_in{1, 64}},
    field_row{"frac_bits", &geometry_spec::frac_bits, u32_in{0, 63}}};

constexpr auto fault_fields = std::tuple_cat(
    operating_point_fields<fault_spec>,
    std::tuple{
        field_row{"polarity", &fault_spec::polarity,
                  one_of<fault_polarity>{parse_fault_polarity, "polarity",
                                         "flip, random-stuck, mixed"}},
        field_row{"vcrit_mean", &fault_spec::vcrit_mean,
                  real_in{0.0, 2.0, "[0, 2] volts"}},
        field_row{"vcrit_sigma", &fault_spec::vcrit_sigma,
                  real_in{0.0, 1.0, "[0, 1] volts"}},
        field_row{"model_seed", &fault_spec::model_seed, any_u64},
        // Emitted only when aging is in play, so pre-lifecycle specs
        // keep normalizing byte-identically.
        field_row{"age_hours", &fault_spec::age_hours,
                  real_in{0.0, 1e9, "[0, 1e9] hours"},
                  emit_rule::unless_default}});

constexpr auto seed_fields =
    std::tuple{field_row{"root", &seed_spec::root, any_u64},
               field_row{"app", &seed_spec::app, any_u64}};

constexpr auto run_fields =
    std::tuple{field_row{"threads", &run_spec::threads, u32_in{0, 4096}},
               field_row{"batch", &run_spec::batch, any_u64}};

constexpr auto scrub_fields = std::tuple{
    field_row{"interval", &scrub_spec::interval, u32_in{0, max_count}},
    field_row{"rows_per_pass", &scrub_spec::rows_per_pass,
              u32_in{0, max_count}},
    field_row{"retire_correctable", &scrub_spec::retire_correctable,
              boolean}};

constexpr auto retire_fields = std::tuple{
    field_row{"policy", &retire_spec::policy,
              one_of<degrade_policy>{parse_degrade_policy, "policy",
                                     "mark, remap, failstop"}},
    field_row{"max_retries", &retire_spec::max_retries, u32_in{0, 100}},
    field_row{"spare_rows", &retire_spec::spare_rows, u32_in{0, max_count}},
    // Checked against the actual region count at workload-build time;
    // the region table may not even be parsed yet here.
    field_row{"reliable_region", &retire_spec::reliable_region,
              u32_in{0, 255}}};

constexpr auto serve_fields = std::tuple{
    field_row{"clients", &serve_spec::clients, u32_in{1, 4096}},
    field_row{"requests", &serve_spec::requests, any_u64},
    field_row{"requests_per_epoch", &serve_spec::requests_per_epoch,
              any_u64},
    field_row{"store_percent", &serve_spec::store_percent, u32_in{0, 100}},
    field_row{"quality_percent", &serve_spec::quality_percent,
              u32_in{0, 100}},
    field_row{"initial_faults", &serve_spec::initial_faults, any_u64},
    field_row{"arrivals_per_epoch", &serve_spec::arrivals_per_epoch,
              u32_in{0, max_count}},
    field_row{"intermittent_cells", &serve_spec::intermittent_cells,
              u32_in{0, max_count}}};

/// A region's scalar members; "rows" and "scheme" are parsed apart. These
/// are also the reserved keys of the compact region grammar.
constexpr auto region_fields = std::tuple_cat(
    std::tuple{field_row{"spare_rows", &region_spec::spare_rows,
                         u32_in{0, max_count}, emit_rule::unless_default}},
    operating_point_fields<region_spec>);

void check_geometry(const geometry_spec& geometry) {
  if (geometry.frac_bits >= geometry.word_bits) {
    throw spec_error("geometry.frac_bits",
                     "must be smaller than geometry.word_bits (" +
                         std::to_string(geometry.word_bits) + "), got " +
                         std::to_string(geometry.frac_bits));
  }
}

void check_serve(const serve_spec& serve) {
  if (serve.store_percent + serve.quality_percent > 100) {
    throw spec_error("serve.store_percent",
                     "store_percent + quality_percent must not exceed 100");
  }
}

/// One section of the spec: its key, its field table, whether to_json
/// omits it at its defaults, and a cross-field check run after parsing.
template <typename S, typename Fields>
struct section_row {
  std::string_view key;
  S scenario_spec::*member;
  Fields fields;
  emit_rule emit = emit_rule::always;
  void (*check)(const S&) = nullptr;
};

/// The sections in to_json order. scrub, retire and serve stay out of
/// the normal form at their defaults, so specs that never mention them
/// round-trip unchanged.
constexpr auto sections = std::tuple{
    section_row{"geometry", &scenario_spec::geometry, geometry_fields,
                emit_rule::always, check_geometry},
    section_row{"fault", &scenario_spec::fault, fault_fields},
    section_row{"seeds", &scenario_spec::seeds, seed_fields},
    section_row{"run", &scenario_spec::run, run_fields},
    section_row{"scrub", &scenario_spec::scrub, scrub_fields,
                emit_rule::unless_default},
    section_row{"retire", &scenario_spec::retire, retire_fields,
                emit_rule::unless_default},
    section_row{"serve", &scenario_spec::serve, serve_fields,
                emit_rule::unless_default, check_serve}};

/// Splits a compact region value ("secded,nfm=2,spare_rows=4") into the
/// region members it sets, decoded and range-checked by the region
/// table but blamed on `field`, and returns the rest re-joined as the
/// scheme's compact form.
std::string parse_compact_region(std::string_view field, std::string_view text,
                                 region_spec& region) {
  const std::string blame(field);
  std::string scheme;
  for (const std::string& token : split_csv(text)) {
    const std::size_t eq = token.find('=');
    const std::string_view key = std::string_view(token).substr(0, eq);
    const bool reserved = with_row(region_fields, key, [&](const auto& row) {
      if (eq == std::string::npos) {
        throw spec_error(blame, std::string(key) + " needs a value");
      }
      // The text parses as the member's JSON type, then decodes (and
      // range-checks) exactly like a JSON region member.
      const std::string_view raw = std::string_view(token).substr(eq + 1);
      using T = std::remove_reference_t<decltype(region.*row.member)>;
      const json_value parsed = std::is_same_v<T, std::uint32_t>
                                    ? json_value(parse_spec_u64(field, raw))
                                    : json_value(parse_spec_double(field, raw));
      region.*row.member = row.decode(parsed, blame, std::string(key) + " ");
    });
    // Scheme name first, then its options, re-joined in compact form.
    if (!reserved) scheme += scheme.empty() ? token : ":" + token;
  }
  if (scheme.empty()) throw spec_error(blame, "region names no scheme");
  return scheme;
}

void parse_sweep(const json_value& doc, std::vector<sweep_axis>& sweep) {
  const auto& axes = doc.as_array();
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const std::string context = "sweep[" + std::to_string(i) + "]";
    if (!axes[i].is_object()) throw spec_error(context, "expected an object");
    sweep_axis axis;
    for (const auto& [key, value] : axes[i].as_object()) {
      const std::string field = context + "." + key;
      if (key == "param") {
        axis.param = std::string(
            resolve_spec_alias(get_string_checked(value, field)));
      } else if (key == "values") {
        if (!value.is_array()) throw spec_error(field, "expected an array");
        for (const json_value& v : value.as_array()) {
          if (!v.is_number() && !v.is_string() && !v.is_bool()) {
            throw spec_error(field, "sweep values must be scalars");
          }
          axis.values.push_back(v);
        }
      } else {
        throw spec_error(field, "unknown field");
      }
    }
    if (axis.param.empty()) throw spec_error(context + ".param", "must be set");
    if (axis.values.empty()) {
      throw spec_error(context + ".values", "needs at least one value");
    }
    sweep.push_back(std::move(axis));
  }
}

void parse_regions(const json_value& doc, std::vector<region_spec>& regions) {
  const auto& entries = doc.as_array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string context = "regions[" + std::to_string(i) + "]";
    if (!entries[i].is_object()) throw spec_error(context, "expected an object");
    region_spec region;
    region.scheme.options = option_map(context + ".scheme");
    bool have_rows = false;
    for (const auto& [key, value] : entries[i].as_object()) {
      const std::string field = context + "." + key;
      if (key == "rows") {
        const auto range =
            parse_row_range(field, get_string_checked(value, field));
        region.first_row = range.first;
        region.last_row = range.second;
        have_rows = true;
      } else if (key == "scheme") {
        parse_entry(value, context + ".scheme", region.scheme.name,
                    region.scheme.options);
      } else if (!read_field(region_fields, key, value, field, region)) {
        throw spec_error(field, "unknown field");
      }
    }
    if (!have_rows) {
      throw spec_error(context + ".rows", "region needs a \"rows\": \"a-b\" range");
    }
    if (region.scheme.name.empty()) {
      throw spec_error(context + ".scheme", "region needs a scheme entry");
    }
    regions.push_back(std::move(region));
  }
}

/// Validates every sweep axis against the just-parsed spec: each axis
/// value is applied onto the (sweep-free) base document and reparsed,
/// so bad dotted paths and out-of-range values surface here — before
/// any pool spawns or partial output is written — naming the axis.
void validate_sweep_axes(const scenario_spec& spec) {
  if (spec.sweep.empty()) return;
  const json_value base = sweep_base_json(spec);
  for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
    const sweep_axis& axis = spec.sweep[i];
    const std::string context = "sweep[" + std::to_string(i) + "]";
    for (const json_value& value : axis.values) {
      json_value probe = base;
      try {
        probe.set_path(axis.param, value);
      } catch (const json_type_error& error) {
        throw spec_error(context + ".param",
                         "'" + axis.param +
                             "' does not address a settable spec field (" +
                             error.what() + ")");
      }
      try {
        (void)scenario_spec::from_json(probe);
      } catch (const spec_error& error) {
        throw spec_error(context, "value " + value.dump(0) + " for '" +
                                      axis.param + "' is invalid: " +
                                      error.what());
      }
    }
  }
}

}  // namespace

scheme_ref parse_compact_scheme(std::string_view text,
                                const std::string& context) {
  scheme_ref ref;
  parse_compact_entry(text, context, ref.name, ref.options);
  return ref;
}

compact_region_value parse_compact_region_value(std::string_view field,
                                                std::string_view text) {
  region_spec region;
  compact_region_value value;
  value.scheme = parse_compact_region(field, text, region);
  if (region.spare_rows != 0) value.spare_rows = region.spare_rows;
  value.pcell = region.pcell;
  value.vdd = region.vdd;
  return value;
}

std::string region_spec::range_label() const {
  return std::to_string(first_row) + "-" + std::to_string(last_row);
}

std::pair<std::uint32_t, std::uint32_t> parse_row_range(std::string_view field,
                                                        std::string_view text) {
  const std::size_t dash = text.find('-');
  const std::string_view first_text =
      dash == std::string_view::npos ? text : text.substr(0, dash);
  const std::string_view last_text =
      dash == std::string_view::npos ? text : text.substr(dash + 1);
  const std::uint64_t first = parse_spec_u64(field, first_text);
  const std::uint64_t last = parse_spec_u64(field, last_text);
  if (first > last) {
    throw spec_error(std::string(field),
                     "range \"" + std::string(text) + "\" is descending");
  }
  if (last >= (std::uint64_t{1} << 32)) {
    throw spec_error(std::string(field), "row " + std::to_string(last) +
                                             " does not fit in 32 bits");
  }
  return {static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(last)};
}

std::optional<region_table_issue> find_region_table_issue(
    const std::vector<region_spec>& regions, std::uint32_t rows_per_tile) {
  std::uint32_t next = 0;  // first row the next region must start at
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const region_spec& region = regions[i];
    if (region.first_row != next) {
      if (region.first_row < next) {
        return region_table_issue{
            i, "rows",
            "range " + region.range_label() +
                   " overlaps (or repeats) the previous region; regions must "
                   "be ordered and disjoint"};
      }
      return region_table_issue{
          i, "rows",
          "range " + region.range_label() + " leaves rows " +
                 std::to_string(next) + "-" +
                 std::to_string(region.first_row - 1) +
                 " uncovered; regions must tile the whole tile gap-free"};
    }
    if (region.last_row >= rows_per_tile) {
      return region_table_issue{
          i, "rows",
          "range " + region.range_label() + " exceeds the tile (rows 0-" +
                 std::to_string(rows_per_tile - 1) + ")"};
    }
    if (region.spare_rows > region.rows()) {
      return region_table_issue{
          i, "spare_rows",
          "spare_rows = " + std::to_string(region.spare_rows) +
                 " exceeds the region's " + std::to_string(region.rows()) +
                 " data rows"};
    }
    next = region.last_row + 1;
  }
  if (!regions.empty() && next != rows_per_tile) {
    return region_table_issue{
        regions.size() - 1, "rows",
        "last region ends at row " + std::to_string(next - 1) +
            " but the tile has rows 0-" + std::to_string(rows_per_tile - 1) +
            "; regions must cover the tile exactly"};
  }
  return std::nullopt;
}

std::string geometry_spec::size_label() const {
  const std::uint64_t bits =
      static_cast<std::uint64_t>(rows_per_tile) * word_bits;
  if (bits % (8 * 1024) == 0) return std::to_string(bits / (8 * 1024)) + "KB";
  return std::to_string(bits / 8) + "B";
}

scenario_spec scenario_spec::from_json(const json_value& doc) {
  if (!doc.is_object()) throw spec_error("(root)", "spec must be a JSON object");
  scenario_spec spec;
  for (const auto& [key, value] : doc.as_object()) {
    const bool section = with_row(sections, key, [&](const auto& row) {
      auto& out = spec.*row.member;
      if (!value.is_object()) throw spec_error(key, "expected an object");
      read_fields(value, key, row.fields, out);
      if (row.check != nullptr) row.check(out);
    });
    if (section) continue;
    if (key == "name") {
      spec.name = get_string_checked(value, "name");
    } else if (key == "schemes") {
      if (!value.is_array()) throw spec_error("schemes", "expected an array");
      const auto& entries = value.as_array();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        scheme_ref ref;
        parse_entry(entries[i], "schemes[" + std::to_string(i) + "]", ref.name,
                    ref.options);
        spec.schemes.push_back(std::move(ref));
      }
    } else if (key == "regions") {
      if (!value.is_array()) throw spec_error("regions", "expected an array");
      parse_regions(value, spec.regions);
    } else if (key == "workload") {
      parse_entry(value, "workload", spec.workload.name, spec.workload.options);
    } else if (key == "sweep") {
      if (!value.is_array()) throw spec_error("sweep", "expected an array");
      parse_sweep(value, spec.sweep);
    } else {
      throw spec_error(key, "unknown field");
    }
  }
  // Cross-field checks run after the whole document is parsed (JSON
  // member order must not matter): the region table against the final
  // geometry, then every sweep axis against the assembled base spec.
  if (const auto issue =
          find_region_table_issue(spec.regions, spec.geometry.rows_per_tile)) {
    throw spec_error(
        "regions[" + std::to_string(issue->index) + "]." + issue->member,
        issue->message);
  }
  validate_sweep_axes(spec);
  return spec;
}

scenario_spec scenario_spec::parse_text(std::string_view text) {
  return from_json(json_value::parse(text));
}

json_value scenario_spec::to_json() const {
  json_value doc = json_value::make_object();
  doc.set("name", name);

  for_each_row(sections, [&](const auto& row) {
    const auto& in = this->*row.member;
    if (row.emit == emit_rule::always || !fields_at_default(row.fields, in)) {
      json_value fields = json_value::make_object();
      write_fields(row.fields, in, fields);
      doc.set(row.key, std::move(fields));
    }
  });

  json_value scheme_list = json_value::make_array();
  for (const scheme_ref& ref : schemes) {
    scheme_list.push_back(entry_to_json(ref.name, ref.options));
  }
  doc.set("schemes", std::move(scheme_list));

  if (!regions.empty()) {
    json_value region_list = json_value::make_array();
    for (const region_spec& region : regions) {
      json_value entry = json_value::make_object();
      entry.set("rows", region.range_label());
      entry.set("scheme",
                entry_to_json(region.scheme.name, region.scheme.options));
      write_fields(region_fields, region, entry);
      region_list.push_back(std::move(entry));
    }
    doc.set("regions", std::move(region_list));
  }

  if (!workload.name.empty()) {
    doc.set("workload", entry_to_json(workload.name, workload.options));
  }

  if (!sweep.empty()) {
    json_value axes = json_value::make_array();
    for (const sweep_axis& axis : sweep) {
      json_value a = json_value::make_object();
      a.set("param", axis.param);
      json_value values = json_value::make_array();
      for (const json_value& v : axis.values) values.push_back(v);
      a.set("values", std::move(values));
      axes.push_back(std::move(a));
    }
    doc.set("sweep", std::move(axes));
  }
  return doc;
}

std::string scenario_spec::canonical_hash() const {
  return to_hex16(fnv1a64(to_json().dump()));
}

json_value sweep_base_json(const scenario_spec& spec) {
  json_value doc = spec.to_json();
  std::erase_if(doc.as_object(),
                [](const auto& member) { return member.first == "sweep"; });
  return doc;
}

json_value section_to_json(const scrub_spec& scrub) {
  json_value doc = json_value::make_object();
  write_fields(scrub_fields, scrub, doc);
  return doc;
}

json_value section_to_json(const retire_spec& retire) {
  json_value doc = json_value::make_object();
  write_fields(retire_fields, retire, doc);
  return doc;
}

scenario_spec load_spec(
    const std::vector<std::string>& spec_files,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  if (spec_files.size() > 1) {
    throw spec_error("spec", "more than one spec file given ('" +
                                 spec_files[0] + "' and '" + spec_files[1] +
                                 "')");
  }
  json_value doc = json_value::make_object();
  if (!spec_files.empty()) {
    const std::string& path = spec_files[0];
    const std::optional<std::string> text = read_file(path);
    if (!text.has_value()) throw spec_error(path, "cannot read the file");
    try {
      doc = json_value::parse(*text);
    } catch (const json_parse_error& error) {
      throw spec_error(path, error.what());
    }
  }
  for (const auto& [key, value] : overrides) {
    apply_spec_override(doc, key, value);
  }
  return scenario_spec::from_json(doc);
}

cell_failure_model scenario_spec::failure_model() const {
  // Unset calibration fields fall back to the 28 nm-class anchors of
  // cell_failure_model::default_28nm.
  const double default_mean = 0.28937;
  const double default_sigma = 0.11848;
  cell_failure_model model =
      fault.vcrit_mean == 0.0 && fault.vcrit_sigma == 0.0
          ? cell_failure_model::default_28nm(fault.model_seed)
          : cell_failure_model{
                fault.vcrit_mean > 0.0 ? fault.vcrit_mean : default_mean,
                fault.vcrit_sigma > 0.0 ? fault.vcrit_sigma : default_sigma,
                fault.model_seed};
  if (fault.age_hours > 0.0) {
    model = model.aged(cell_failure_model::bti_vcrit_shift(fault.age_hours));
  }
  return model;
}

double scenario_spec::resolved_pcell(std::string_view consumer) const {
  // Presence decides, not the value: pcell = 0 is the fault-free point.
  if (fault.pcell.has_value()) return *fault.pcell;
  if (fault.vdd.has_value()) return failure_model().pcell(*fault.vdd);
  throw spec_error("fault.pcell", "workload '" + std::string(consumer) +
                                      "' needs fault.pcell or fault.vdd");
}

double scenario_spec::resolved_region_pcell(const region_spec& region,
                                            std::string_view consumer) const {
  if (region.pcell.has_value()) return *region.pcell;
  if (region.vdd.has_value()) return failure_model().pcell(*region.vdd);
  return resolved_pcell(consumer);
}

storage_config scenario_spec::storage(std::uint32_t spare_rows) const {
  storage_config config;
  config.rows_per_tile = geometry.rows_per_tile;
  config.word_bits = geometry.word_bits;
  config.frac_bits = geometry.frac_bits;
  config.spare_rows_per_tile = spare_rows;
  return config;
}

namespace {

/// "a-b=scheme,opt=v,spare_rows=4,pcell=1e-4" compact region form ->
/// the JSON object the spec parser accepts. Reserved keys (spare_rows,
/// pcell, vdd) become region members; everything else configures the
/// region's scheme.
json_value compact_region_to_json(std::string_view text,
                                  const std::string& context) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos) {
    throw spec_error(context, "expected <rows>=<scheme...>, got \"" +
                                  std::string(text) + "\"");
  }
  const std::string range(text.substr(0, eq));
  (void)parse_row_range(context, range);  // early, caller-blamed check

  region_spec region;
  const std::string scheme = parse_compact_region(
      context + " \"" + range + "\"", text.substr(eq + 1), region);
  json_value entry = json_value::make_object();
  entry.set("rows", range);
  entry.set("scheme", scheme);
  write_fields(region_fields, region, entry);
  return entry;
}

/// The entry of the array `doc[list]` whose string member `id_key` is
/// `id`; the array and an entry {id_key: id} are appended on demand.
json_value& list_entry(json_value& doc, std::string_view list,
                       std::string_view id_key, std::string_view id) {
  auto* entries = const_cast<json_value*>(doc.find(list));
  if (entries == nullptr || !entries->is_array()) {
    entries = &doc.set(list, json_value::make_array());
  }
  for (json_value& entry : entries->as_array()) {
    const json_value* member = entry.find(id_key);
    if (member != nullptr && member->is_string() && member->as_string() == id) {
      return entry;
    }
  }
  json_value entry = json_value::make_object();
  entry.set(id_key, id);
  return entries->push_back(std::move(entry));
}

/// A compact workload string would block dotted workload.* overrides
/// and hide its name from a workload= merge: rewrite it in object form.
void normalize_workload(json_value& doc) {
  const json_value* existing = doc.find("workload");
  if (existing == nullptr || !existing->is_string()) return;
  std::string name;
  option_map options;
  parse_compact_entry(existing->as_string(), "workload", name, options);
  doc.set("workload", entry_to_json(name, options));
}

}  // namespace

void apply_spec_override(json_value& doc, std::string_view key,
                         std::string_view value) {
  key = resolve_spec_alias(key);

  if (key == "regions") {
    // Colon-separated compact region entries replace the whole list;
    // an empty value clears it (back to a homogeneous tile).
    json_value list = json_value::make_array();
    for (const std::string& item : split_csv(value, ':')) {
      list.push_back(compact_region_to_json(item, "regions"));
    }
    doc.set("regions", std::move(list));
    return;
  }

  if (key.starts_with("regions.")) {
    // regions.<range>.<member>=value merges into the region whose rows
    // match <range> (appending a new entry for an unseen range, which
    // the spec parser then validates for coverage and a scheme).
    const std::string_view rest = key.substr(8);
    const std::size_t dot = rest.rfind('.');
    if (dot == std::string_view::npos) {
      throw spec_error(std::string(key),
                       "expected regions.<range>.<member>=value");
    }
    const std::string range(rest.substr(0, dot));
    (void)parse_row_range(std::string(key), range);
    list_entry(doc, "regions", "rows", range)
        .set(rest.substr(dot + 1), option_value_to_json(std::string(value)));
    return;
  }

  if (key == "schemes") {
    // Comma-separated compact scheme forms replace the whole list.
    json_value list = json_value::make_array();
    for (const std::string& item : split_scheme_list(value)) {
      list.push_back(json_value(item));
    }
    doc.set("schemes", std::move(list));
    return;
  }

  if (key.starts_with("sweep.")) {
    const std::string param(resolve_spec_alias(key.substr(6)));
    json_value values = json_value::make_array();
    for (const std::string& item : split_csv(value)) {
      values.push_back(option_value_to_json(item));
    }
    json_value axis = json_value::make_object();
    axis.set("param", param);
    axis.set("values", std::move(values));
    list_entry(doc, "sweep", "param", param) = std::move(axis);
    return;
  }

  if (key.starts_with("workload.")) {
    // "workload.name=x" and the shorthand "workload=x" both land on the
    // object's name member.
    normalize_workload(doc);
  }
  if (key == "workload") {
    // Merge into an existing workload object (so the override orders
    // `workload.samples=2 workload=fig7-quality` and
    // `workload=fig7-quality workload.samples=2` mean the same thing) —
    // but only while the name is unset or unchanged: switching to a
    // DIFFERENT workload drops the old one's options, whose names would
    // otherwise be silently reinterpreted (or rejected) by the new one.
    std::string name;
    option_map options;
    parse_compact_entry(value, "workload", name, options);
    normalize_workload(doc);
    const json_value* existing = doc.find("workload");
    const json_value* existing_name =
        existing != nullptr ? existing->find("name") : nullptr;
    const bool same = existing != nullptr && existing->is_object() &&
                      (existing_name == nullptr ||
                       (existing_name->is_string() &&
                        existing_name->as_string() == name));
    json_value merged = same ? *existing : json_value::make_object();
    merged.set("name", name);
    for (const auto& [opt_key, opt_value] : options.entries()) {
      merged.set(opt_key, option_value_to_json(opt_value));
    }
    doc.set("workload", std::move(merged));
    return;
  }

  try {
    doc.set_path(key, option_value_to_json(std::string(value)));
  } catch (const json_type_error& error) {
    throw spec_error(std::string(key),
                     std::string("cannot set this path (") + error.what() + ")");
  }
}

}  // namespace urmem
