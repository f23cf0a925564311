#include "urmem/memory/fault_map_io.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>

#include "urmem/common/contracts.hpp"

namespace urmem {

std::string fault_kind_name(fault_kind kind) {
  switch (kind) {
    case fault_kind::stuck_at_zero: return "sa0";
    case fault_kind::stuck_at_one: return "sa1";
    case fault_kind::flip: return "flip";
    case fault_kind::transition_up_fail: return "tfup";
    case fault_kind::transition_down_fail: return "tfdown";
  }
  return "unknown";
}

fault_kind fault_kind_from_name(const std::string& name) {
  if (name == "sa0") return fault_kind::stuck_at_zero;
  if (name == "sa1") return fault_kind::stuck_at_one;
  if (name == "flip") return fault_kind::flip;
  if (name == "tfup") return fault_kind::transition_up_fail;
  if (name == "tfdown") return fault_kind::transition_down_fail;
  throw std::invalid_argument("unknown fault kind: " + name);
}

namespace {

/// Decimal digits only (no sign, no whitespace) within [lo, hi].
std::optional<std::uint32_t> parse_bounded(const std::string& text,
                                           std::uint32_t lo, std::uint32_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

/// Parses line 2 of either format, "geometry <rows> <width>", bounding
/// both fields before anything is sized from them: a hostile header
/// must be a line-numbered error, not a multi-gigabyte allocation.
array_geometry parse_geometry_line(const std::string& line) {
  std::istringstream geo(line);
  std::string tag;
  std::string rows_text;
  std::string width_text;
  geo >> tag >> rows_text >> width_text;
  expects(tag == "geometry" && !geo.fail(), "bad geometry line 2: " + line);
  const auto rows = parse_bounded(rows_text, 1, array_geometry::max_rows);
  expects(rows.has_value(), "fault map line 2: geometry rows must be in [1, " +
                                std::to_string(array_geometry::max_rows) +
                                "], got " + rows_text);
  const auto width = parse_bounded(width_text, 1, 64);
  expects(width.has_value(),
          "fault map line 2: geometry width must be in [1, 64], got " +
              width_text);
  return {*rows, *width};
}

}  // namespace

void write_fault_map(std::ostream& out, const fault_map& map) {
  out << "urmem-faultmap v1\n";
  out << "geometry " << map.geometry().rows << " " << map.geometry().width << "\n";
  for (const fault& f : map.all_faults()) {
    out << "fault " << f.row << " " << f.col << " " << fault_kind_name(f.kind)
        << "\n";
  }
}

fault_map read_fault_map(std::istream& in) {
  std::string line;
  expects(static_cast<bool>(std::getline(in, line)), "empty fault map file");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  expects(line == "urmem-faultmap v1", "bad fault map header: " + line);

  expects(static_cast<bool>(std::getline(in, line)), "missing geometry line");
  fault_map map(parse_geometry_line(line));
  std::string tag;
  std::size_t line_no = 2;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    std::istringstream ss(line);
    std::string kind_name;
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    ss >> tag >> row >> col >> kind_name;
    expects(tag == "fault" && !ss.fail(),
            "bad fault line " + std::to_string(line_no) + ": " + line);
    map.add(fault{row, col, fault_kind_from_name(kind_name)});
  }
  return map;
}

void write_timeline_faults(std::ostream& out, const timeline_fault_set& set) {
  out << "urmem-faultmap v2\n";
  out << "geometry " << set.geometry.rows << " " << set.geometry.width << "\n";
  for (const timeline_fault& record : set.faults) {
    out << "fault " << record.f.row << " " << record.f.col << " "
        << fault_kind_name(record.f.kind) << " " << record.birth_epoch;
    if (record.intermittent) out << " intermittent";
    out << "\n";
  }
}

timeline_fault_set read_timeline_faults(std::istream& in) {
  std::string line;
  expects(static_cast<bool>(std::getline(in, line)), "empty fault map file");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const bool v2 = line == "urmem-faultmap v2";
  expects(v2 || line == "urmem-faultmap v1", "bad fault map header: " + line);

  expects(static_cast<bool>(std::getline(in, line)), "missing geometry line");
  timeline_fault_set set;
  set.geometry = parse_geometry_line(line);
  std::string tag;

  std::size_t line_no = 2;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    std::istringstream ss(line);
    std::string kind_name;
    timeline_fault record;
    ss >> tag >> record.f.row >> record.f.col >> kind_name;
    expects(tag == "fault" && !ss.fail(),
            "bad fault line " + std::to_string(line_no) + ": " + line);
    record.f.kind = fault_kind_from_name(kind_name);
    if (v2) {
      ss >> record.birth_epoch;
      expects(!ss.fail(),
              "fault line " + std::to_string(line_no) +
                  " misses the birth epoch: " + line);
      std::string flag;
      if (ss >> flag) {
        expects(flag == "intermittent",
                "bad annotation on line " + std::to_string(line_no) + ": " +
                    flag);
        record.intermittent = true;
      }
    }
    std::string junk;
    expects(!(ss >> junk),
            "trailing junk on line " + std::to_string(line_no) + ": " + line);
    expects(record.f.row < set.geometry.rows &&
                record.f.col < set.geometry.width,
            "fault line " + std::to_string(line_no) +
                " lies outside the geometry: " + line);
    set.faults.push_back(record);
  }
  return set;
}

void save_fault_map(const std::string& path, const fault_map& map) {
  std::ofstream out(path);
  expects(out.good(), "cannot open for writing: " + path);
  write_fault_map(out, map);
  expects(out.good(), "write failed: " + path);
}

fault_map load_fault_map(const std::string& path) {
  std::ifstream in(path);
  expects(in.good(), "cannot open fault map file: " + path);
  return read_fault_map(in);
}

}  // namespace urmem
