#include "urmem/scenario/scenario_spec.hpp"

#include <utility>

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

double get_number(const json_value& value, const std::string& field) {
  if (!value.is_number()) throw spec_error(field, "expected a number");
  return value.as_double();
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

const json_value& get_object_checked(const json_value& value,
                                     const std::string& field) {
  if (!value.is_object()) throw spec_error(field, "expected an object");
  return value;
}

unsigned get_bounded_unsigned(const json_value& value, const std::string& field,
                              std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t v = get_u64_checked(value, field);
  if (v < lo || v > hi) {
    throw spec_error(field, "must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(v));
  }
  return static_cast<unsigned>(v);
}

void parse_geometry(const json_value& doc, geometry_spec& geometry) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "geometry." + key;
    if (key == "rows_per_tile") {
      geometry.rows_per_tile =
          get_bounded_unsigned(value, field, 1, array_geometry::max_rows);
    } else if (key == "word_bits") {
      geometry.word_bits = get_bounded_unsigned(value, field, 1, 64);
    } else if (key == "frac_bits") {
      geometry.frac_bits = get_bounded_unsigned(value, field, 0, 63);
    } else {
      throw spec_error(field, "unknown field");
    }
  }
  if (geometry.frac_bits >= geometry.word_bits) {
    throw spec_error("geometry.frac_bits",
                     "must be smaller than geometry.word_bits (" +
                         std::to_string(geometry.word_bits) + "), got " +
                         std::to_string(geometry.frac_bits));
  }
}

/// Shared range checks for the spec-level and per-region operating
/// points; presence is explicit, so 0 is a valid (fault-free) Pcell.
double checked_pcell(const json_value& value, const std::string& field) {
  const double pcell = get_number(value, field);
  if (pcell < 0.0 || pcell >= 1.0) {
    throw spec_error(field, "must be in [0, 1), got " + value.dump(0));
  }
  return pcell;
}

double checked_vdd(const json_value& value, const std::string& field) {
  const double vdd = get_number(value, field);
  if (vdd <= 0.0 || vdd > 2.0) {
    throw spec_error(field, "must be in (0, 2] volts, got " + value.dump(0));
  }
  return vdd;
}

void parse_fault(const json_value& doc, fault_spec& fault) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "fault." + key;
    if (key == "pcell") {
      fault.pcell = checked_pcell(value, field);
    } else if (key == "vdd") {
      fault.vdd = checked_vdd(value, field);
    } else if (key == "polarity") {
      const std::string name = get_string_checked(value, field);
      const auto polarity = parse_fault_polarity(name);
      if (!polarity.has_value()) {
        throw spec_error(field, "unknown polarity \"" + name +
                                    "\" (valid: flip, random-stuck, mixed)");
      }
      fault.polarity = *polarity;
    } else if (key == "vcrit_mean") {
      fault.vcrit_mean = get_number(value, field);
      if (fault.vcrit_mean < 0.0 || fault.vcrit_mean > 2.0) {
        throw spec_error(field, "must be in [0, 2] volts, got " + value.dump(0));
      }
    } else if (key == "vcrit_sigma") {
      fault.vcrit_sigma = get_number(value, field);
      if (fault.vcrit_sigma < 0.0 || fault.vcrit_sigma > 1.0) {
        throw spec_error(field, "must be in [0, 1] volts, got " + value.dump(0));
      }
    } else if (key == "model_seed") {
      fault.model_seed = get_u64_checked(value, field);
    } else if (key == "age_hours") {
      fault.age_hours = get_number(value, field);
      if (fault.age_hours < 0.0 || fault.age_hours > 1e9) {
        throw spec_error(field, "must be in [0, 1e9] hours, got " + value.dump(0));
      }
    } else {
      throw spec_error(field, "unknown field");
    }
  }
}

void parse_scrub(const json_value& doc, scrub_spec& scrub) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "scrub." + key;
    if (key == "interval") {
      scrub.interval = get_bounded_unsigned(value, field, 0, 1u << 22);
    } else if (key == "rows_per_pass") {
      scrub.rows_per_pass = get_bounded_unsigned(value, field, 0, 1u << 22);
    } else if (key == "retire_correctable") {
      if (!value.is_bool()) throw spec_error(field, "expected a boolean");
      scrub.retire_correctable = value.as_bool();
    } else {
      throw spec_error(field, "unknown field");
    }
  }
}

void parse_retire(const json_value& doc, retire_spec& retire) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "retire." + key;
    if (key == "policy") {
      const std::string name = get_string_checked(value, field);
      const auto policy = parse_degrade_policy(name);
      if (!policy.has_value()) {
        throw spec_error(field, "unknown policy \"" + name +
                                    "\" (valid: mark, remap, failstop)");
      }
      retire.policy = *policy;
    } else if (key == "max_retries") {
      retire.max_retries = get_bounded_unsigned(value, field, 0, 100);
    } else if (key == "spare_rows") {
      retire.spare_rows = get_bounded_unsigned(value, field, 0, 1u << 22);
    } else if (key == "reliable_region") {
      // Checked against the actual region count at workload-build time;
      // the region table may not even be parsed yet here.
      retire.reliable_region = get_bounded_unsigned(value, field, 0, 255);
    } else {
      throw spec_error(field, "unknown field");
    }
  }
}

void parse_serve(const json_value& doc, serve_spec& serve) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "serve." + key;
    if (key == "clients") {
      serve.clients = get_bounded_unsigned(value, field, 1, 4096);
    } else if (key == "requests") {
      serve.requests = get_u64_checked(value, field);
    } else if (key == "requests_per_epoch") {
      serve.requests_per_epoch = get_u64_checked(value, field);
    } else if (key == "store_percent") {
      serve.store_percent = get_bounded_unsigned(value, field, 0, 100);
    } else if (key == "quality_percent") {
      serve.quality_percent = get_bounded_unsigned(value, field, 0, 100);
    } else if (key == "initial_faults") {
      serve.initial_faults = get_u64_checked(value, field);
    } else if (key == "arrivals_per_epoch") {
      serve.arrivals_per_epoch = get_bounded_unsigned(value, field, 0, 1u << 22);
    } else if (key == "intermittent_cells") {
      serve.intermittent_cells = get_bounded_unsigned(value, field, 0, 1u << 22);
    } else {
      throw spec_error(field, "unknown field");
    }
  }
  if (serve.store_percent + serve.quality_percent > 100) {
    throw spec_error("serve.store_percent",
                     "store_percent + quality_percent must not exceed 100");
  }
}

void parse_seeds(const json_value& doc, seed_spec& seeds) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "seeds." + key;
    if (key == "root") {
      seeds.root = get_u64_checked(value, field);
    } else if (key == "app") {
      seeds.app = get_u64_checked(value, field);
    } else {
      throw spec_error(field, "unknown field");
    }
  }
}

void parse_run(const json_value& doc, run_spec& run) {
  for (const auto& [key, value] : doc.as_object()) {
    const std::string field = "run." + key;
    if (key == "threads") {
      run.threads = get_bounded_unsigned(value, field, 0, 4096);
    } else if (key == "batch") {
      run.batch = get_u64_checked(value, field);
    } else {
      throw spec_error(field, "unknown field");
    }
  }
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
      } else if (key == "spare_rows") {
        region.spare_rows = get_bounded_unsigned(value, field, 0, 1u << 22);
      } else if (key == "pcell") {
        region.pcell = checked_pcell(value, field);
      } else if (key == "vdd") {
        region.vdd = checked_vdd(value, field);
      } else {
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
  json_value base = spec.to_json();
  auto& members = base.as_object();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == "sweep") {
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
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
  compact_region_value value;
  for (const std::string& token : split_csv(text)) {
    const std::size_t eq = token.find('=');
    const std::string key = eq == std::string::npos ? token : token.substr(0, eq);
    if (key == "spare_rows" || key == "pcell" || key == "vdd") {
      if (eq == std::string::npos) {
        throw spec_error(std::string(field), key + " needs a value");
      }
      const std::string raw = token.substr(eq + 1);
      if (key == "spare_rows") {
        // Bounded like the JSON path — no silent 32-bit wrap-around.
        const std::uint64_t spares = parse_spec_u64(field, raw);
        if (spares > (1u << 22)) {
          throw spec_error(std::string(field),
                           "spare_rows must be at most " +
                               std::to_string(1u << 22) + ", got " + raw);
        }
        value.spare_rows = static_cast<std::uint32_t>(spares);
      } else if (key == "pcell") {
        const double pcell = parse_spec_double(field, raw);
        if (pcell < 0.0 || pcell >= 1.0) {
          throw spec_error(std::string(field),
                           "pcell must be in [0, 1), got " + raw);
        }
        value.pcell = pcell;
      } else {
        const double vdd = parse_spec_double(field, raw);
        if (vdd <= 0.0 || vdd > 2.0) {
          throw spec_error(std::string(field),
                           "vdd must be in (0, 2] volts, got " + raw);
        }
        value.vdd = vdd;
      }
      continue;
    }
    // Scheme name first, then its options, re-joined in compact form.
    value.scheme += value.scheme.empty() ? token : ":" + token;
  }
  if (value.scheme.empty()) {
    throw spec_error(std::string(field), "region names no scheme");
  }
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
    if (key == "name") {
      spec.name = get_string_checked(value, "name");
    } else if (key == "geometry") {
      parse_geometry(get_object_checked(value, "geometry"), spec.geometry);
    } else if (key == "fault") {
      parse_fault(get_object_checked(value, "fault"), spec.fault);
    } else if (key == "seeds") {
      parse_seeds(get_object_checked(value, "seeds"), spec.seeds);
    } else if (key == "run") {
      parse_run(get_object_checked(value, "run"), spec.run);
    } else if (key == "scrub") {
      parse_scrub(get_object_checked(value, "scrub"), spec.scrub);
    } else if (key == "retire") {
      parse_retire(get_object_checked(value, "retire"), spec.retire);
    } else if (key == "serve") {
      parse_serve(get_object_checked(value, "serve"), spec.serve);
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

  json_value g = json_value::make_object();
  g.set("rows_per_tile", geometry.rows_per_tile);
  g.set("word_bits", geometry.word_bits);
  g.set("frac_bits", geometry.frac_bits);
  doc.set("geometry", std::move(g));

  json_value f = json_value::make_object();
  // Absent operating points stay absent (an emitted 0 would turn the
  // unset state into "inject zero faults" on reparse).
  if (fault.pcell.has_value()) f.set("pcell", *fault.pcell);
  if (fault.vdd.has_value()) f.set("vdd", *fault.vdd);
  f.set("polarity", std::string(to_string(fault.polarity)));
  f.set("vcrit_mean", fault.vcrit_mean);
  f.set("vcrit_sigma", fault.vcrit_sigma);
  f.set("model_seed", fault.model_seed);
  // Emitted only when aging is in play, like the optional sections
  // below: pre-lifecycle specs keep normalizing byte-identically.
  if (fault.age_hours > 0.0) f.set("age_hours", fault.age_hours);
  doc.set("fault", std::move(f));

  json_value s = json_value::make_object();
  s.set("root", seeds.root);
  s.set("app", seeds.app);
  doc.set("seeds", std::move(s));

  json_value r = json_value::make_object();
  r.set("threads", run.threads);
  r.set("batch", run.batch);
  doc.set("run", std::move(r));

  if (scrub != scrub_spec{}) {
    json_value sc = json_value::make_object();
    sc.set("interval", scrub.interval);
    sc.set("rows_per_pass", scrub.rows_per_pass);
    sc.set("retire_correctable", scrub.retire_correctable);
    doc.set("scrub", std::move(sc));
  }

  if (retire != retire_spec{}) {
    json_value rt = json_value::make_object();
    rt.set("policy", std::string(to_string(retire.policy)));
    rt.set("max_retries", retire.max_retries);
    rt.set("spare_rows", retire.spare_rows);
    rt.set("reliable_region", retire.reliable_region);
    doc.set("retire", std::move(rt));
  }

  if (serve != serve_spec{}) {
    json_value sv = json_value::make_object();
    sv.set("clients", serve.clients);
    sv.set("requests", serve.requests);
    sv.set("requests_per_epoch", serve.requests_per_epoch);
    sv.set("store_percent", serve.store_percent);
    sv.set("quality_percent", serve.quality_percent);
    sv.set("initial_faults", serve.initial_faults);
    sv.set("arrivals_per_epoch", serve.arrivals_per_epoch);
    sv.set("intermittent_cells", serve.intermittent_cells);
    doc.set("serve", std::move(sv));
  }

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
      if (region.spare_rows != 0) entry.set("spare_rows", region.spare_rows);
      if (region.pcell.has_value()) entry.set("pcell", *region.pcell);
      if (region.vdd.has_value()) entry.set("vdd", *region.vdd);
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

  json_value entry = json_value::make_object();
  entry.set("rows", range);
  const compact_region_value tokens =
      parse_compact_region_value(context + " \"" + range + "\"",
                                 text.substr(eq + 1));
  entry.set("scheme", tokens.scheme);
  if (tokens.spare_rows.has_value()) entry.set("spare_rows", *tokens.spare_rows);
  if (tokens.pcell.has_value()) entry.set("pcell", *tokens.pcell);
  if (tokens.vdd.has_value()) entry.set("vdd", *tokens.vdd);
  return entry;
}

}  // namespace

void apply_spec_override(json_value& doc, std::string_view key,
                         std::string_view value) {
  key = resolve_spec_alias(key);

  if (key == "regions") {
    // Colon-separated compact region entries replace the whole list;
    // an empty value clears it (back to a homogeneous tile).
    json_value list = json_value::make_array();
    std::size_t start = 0;
    while (start < value.size()) {
      const std::size_t colon = value.find(':', start);
      const std::string_view item = colon == std::string_view::npos
                                        ? value.substr(start)
                                        : value.substr(start, colon - start);
      if (!item.empty()) {
        list.push_back(compact_region_to_json(item, "regions"));
      }
      if (colon == std::string_view::npos) break;
      start = colon + 1;
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
    const std::string member(rest.substr(dot + 1));
    (void)parse_row_range(std::string(key), range);
    json_value* regions = const_cast<json_value*>(doc.find("regions"));
    if (regions == nullptr || !regions->is_array()) {
      json_value list = json_value::make_array();
      doc.set("regions", std::move(list));
      regions = const_cast<json_value*>(doc.find("regions"));
    }
    for (json_value& existing : regions->as_array()) {
      const json_value* rows = existing.find("rows");
      if (rows != nullptr && rows->is_string() && rows->as_string() == range) {
        existing.set(member, option_value_to_json(std::string(value)));
        return;
      }
    }
    json_value entry = json_value::make_object();
    entry.set("rows", range);
    entry.set(member, option_value_to_json(std::string(value)));
    regions->push_back(std::move(entry));
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
    json_value* sweep = const_cast<json_value*>(doc.find("sweep"));
    if (sweep == nullptr || !sweep->is_array()) {
      json_value list = json_value::make_array();
      list.push_back(std::move(axis));
      doc.set("sweep", std::move(list));
      return;
    }
    for (json_value& existing : sweep->as_array()) {
      const json_value* existing_param = existing.find("param");
      if (existing_param != nullptr && existing_param->is_string() &&
          existing_param->as_string() == param) {
        existing = std::move(axis);
        return;
      }
    }
    sweep->push_back(std::move(axis));
    return;
  }

  // A compact workload string would block dotted workload.* overrides:
  // normalize it to object form first.
  if (key.starts_with("workload.")) {
    const json_value* existing = doc.find("workload");
    if (existing != nullptr && existing->is_string()) {
      std::string name;
      option_map options;
      parse_compact_entry(existing->as_string(), "workload", name, options);
      doc.set("workload", entry_to_json(name, options));
    }
    // "workload.name=x" and the shorthand "workload=x" both land on the
    // object's name member below.
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
    // Normalize a compact-string spec workload to object form first, so
    // the merge decision below sees its name and options either way.
    json_value existing;
    if (const json_value* node = doc.find("workload"); node != nullptr) {
      if (node->is_string()) {
        std::string existing_name;
        option_map existing_options;
        parse_compact_entry(node->as_string(), "workload", existing_name,
                            existing_options);
        existing = entry_to_json(existing_name, existing_options);
      } else {
        existing = *node;
      }
    }
    const json_value* existing_name = existing.find("name");
    if (existing.is_object() &&
        (existing_name == nullptr ||
         (existing_name->is_string() && existing_name->as_string() == name))) {
      json_value merged = std::move(existing);
      merged.set("name", name);
      for (const auto& [opt_key, opt_value] : options.entries()) {
        merged.set(opt_key, option_value_to_json(opt_value));
      }
      doc.set("workload", std::move(merged));
    } else {
      doc.set("workload", entry_to_json(name, options));
    }
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
