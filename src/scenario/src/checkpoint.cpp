#include "urmem/scenario/checkpoint.hpp"

#include <utility>

#include "urmem/common/fs.hpp"

namespace urmem {

namespace {

/// Zero-padded index, "000003" — point files list in grid order.
std::string padded_index(std::uint64_t grid_index) {
  std::string digits = std::to_string(grid_index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

/// Parses one checkpoint document; nullopt unless `text` is well-formed
/// JSON carrying the expected schema tag (a truncated atomic write can
/// never produce one, but any other torn or foreign file lands here).
/// A JSON syntax error's message, with its line/column, goes to `why`
/// when given.
std::optional<json_value> parse_document(const std::string& text,
                                         std::string* why = nullptr) {
  try {
    json_value doc = json_value::parse(text);
    const json_value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != checkpoint_schema) {
      return std::nullopt;
    }
    return doc;
  } catch (const json_parse_error& error) {
    if (why != nullptr) *why = error.what();
    return std::nullopt;
  }
}

/// ": <why>" when a parse error was recorded, "" otherwise.
std::string because(const std::string& why) {
  return why.empty() ? std::string() : ": " + why;
}

enum class point_file_state { missing, corrupt, stale, ok };

struct loaded_point {
  point_file_state state = point_file_state::missing;
  scenario_point_result point;
  std::string found_hash;  ///< hash the file claims (stale diagnostics)
  std::string parse_error;  ///< JSON syntax error (corrupt diagnostics)
  json_value doc;          ///< full parsed document (duplicate compare)
};

/// Classifies and decodes one point file against the expected identity.
loaded_point load_point_file(const std::string& path,
                             std::uint64_t grid_index,
                             const std::string& spec_hash) {
  loaded_point result;
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) return result;  // missing

  result.state = point_file_state::corrupt;
  const std::optional<json_value> doc =
      parse_document(*text, &result.parse_error);
  if (!doc.has_value()) return result;

  const json_value* hash = doc->find("spec_hash");
  if (hash == nullptr || !hash->is_string()) return result;
  if (hash->as_string() != spec_hash) {
    result.state = point_file_state::stale;
    result.found_hash = hash->as_string();
    return result;
  }

  try {
    const json_value* index = doc->find("grid_index");
    const json_value* assignments = doc->find("assignments");
    const json_value* trials = doc->find("trials");
    const json_value* data = doc->find("data");
    if (index == nullptr || index->as_u64() != grid_index ||
        assignments == nullptr || trials == nullptr || data == nullptr) {
      return result;  // corrupt (or misplaced)
    }
    if (const json_value* label = doc->find("point")) {
      result.point.label = label->as_string();
    }
    result.point.assignments = *assignments;
    result.point.output.trials = trials->as_u64();
    result.point.output.json = *data;
  } catch (const json_type_error&) {
    return result;  // corrupt
  }
  result.state = point_file_state::ok;
  result.doc = *doc;
  return result;
}

[[noreturn]] void throw_stale(const std::string& path,
                              const std::string& found,
                              const std::string& expected) {
  throw spec_error(
      "checkpoint-dir",
      "'" + path + "' belongs to spec hash " + found +
          " but the current spec hashes to " + expected +
          " — stale checkpoints are rejected; use a fresh directory or "
          "re-run with the original spec");
}

}  // namespace

checkpoint_store::checkpoint_store(std::string dir, std::string spec_hash)
    : dir_(std::move(dir)), spec_hash_(std::move(spec_hash)) {}

std::string checkpoint_store::manifest_path() const {
  return dir_ + "/manifest.json";
}

std::string checkpoint_store::point_path(std::uint64_t grid_index) const {
  return dir_ + "/point_" + padded_index(grid_index) + ".json";
}

void checkpoint_store::write_manifest(const json_value& spec,
                                      std::uint64_t grid_size) const {
  const std::string path = manifest_path();
  if (const std::optional<std::string> existing = read_file(path)) {
    if (const std::optional<json_value> doc = parse_document(*existing)) {
      const json_value* hash = doc->find("spec_hash");
      if (hash != nullptr && hash->is_string() &&
          hash->as_string() != spec_hash_) {
        throw_stale(path, hash->as_string(), spec_hash_);
      }
    }
    // An unparseable manifest (torn on a filesystem without atomic
    // rename) is simply republished below.
  }
  json_value doc = json_value::make_object();
  doc.set("schema", std::string(checkpoint_schema));
  doc.set("spec_hash", spec_hash_);
  doc.set("grid_size", grid_size);
  doc.set("spec", spec);
  write_file_atomic(path, doc.dump() + "\n");
}

std::optional<scenario_point_result> checkpoint_store::load_point(
    std::uint64_t grid_index) const {
  const std::string path = point_path(grid_index);
  loaded_point loaded = load_point_file(path, grid_index, spec_hash_);
  switch (loaded.state) {
    case point_file_state::ok:
      return std::move(loaded.point);
    case point_file_state::stale:
      throw_stale(path, loaded.found_hash, spec_hash_);
    case point_file_state::missing:
    case point_file_state::corrupt:
      // A truncated or foreign file is treated as "not checkpointed":
      // the point re-runs and the file is atomically replaced.
      return std::nullopt;
  }
  return std::nullopt;
}

void checkpoint_store::store_point(std::uint64_t grid_index,
                                   std::uint64_t grid_size,
                                   const scenario_point_result& point) const {
  json_value doc = json_value::make_object();
  doc.set("schema", std::string(checkpoint_schema));
  doc.set("spec_hash", spec_hash_);
  doc.set("grid_index", grid_index);
  doc.set("grid_size", grid_size);
  if (!point.label.empty()) doc.set("point", point.label);
  doc.set("assignments", point.assignments);
  doc.set("trials", point.output.trials);
  doc.set("data", point.output.json);
  write_file_atomic(point_path(grid_index), doc.dump() + "\n");
}

scenario_report merge_checkpoints(const std::vector<std::string>& dirs) {
  if (dirs.empty()) {
    throw spec_error("merge", "at least one checkpoint directory is required");
  }

  // Every manifest must name the same campaign (spec hash + grid size);
  // the first one supplies the spec echo of the merged report.
  std::string hash;
  std::uint64_t grid_size = 0;
  json_value spec;
  for (const std::string& dir : dirs) {
    const std::string path = dir + "/manifest.json";
    const std::optional<std::string> text = read_file(path);
    if (!text.has_value()) {
      throw spec_error("merge", "'" + dir +
                                    "' has no readable manifest.json — not a "
                                    "checkpoint directory (or its campaign "
                                    "never started)");
    }
    std::string why;
    const std::optional<json_value> doc = parse_document(*text, &why);
    const json_value* h = doc.has_value() ? doc->find("spec_hash") : nullptr;
    const json_value* size = doc.has_value() ? doc->find("grid_size") : nullptr;
    const json_value* s = doc.has_value() ? doc->find("spec") : nullptr;
    if (h == nullptr || !h->is_string() || size == nullptr ||
        !size->is_integer() || s == nullptr) {
      throw spec_error("merge", "'" + path +
                                    "' is not a valid checkpoint manifest" +
                                    because(why));
    }
    if (hash.empty()) {
      hash = h->as_string();
      grid_size = size->as_u64();
      spec = *s;
    } else if (h->as_string() != hash) {
      throw spec_error("merge", "'" + path + "' belongs to spec hash " +
                                    h->as_string() + " but '" + dirs.front() +
                                    "' holds spec hash " + hash +
                                    " — these directories come from "
                                    "different campaigns");
    } else if (size->as_u64() != grid_size) {
      throw spec_error("merge", "'" + path + "' reports a grid of " +
                                    std::to_string(size->as_u64()) +
                                    " point(s) but '" + dirs.front() +
                                    "' reports " + std::to_string(grid_size));
    }
  }

  scenario_report report;
  report.spec = spec;
  std::vector<std::uint64_t> missing;
  for (std::uint64_t i = 0; i < grid_size; ++i) {
    std::optional<loaded_point> merged;
    std::string merged_path;
    for (const std::string& dir : dirs) {
      const std::string path =
          dir + "/point_" + padded_index(i) + ".json";
      loaded_point loaded = load_point_file(path, i, hash);
      switch (loaded.state) {
        case point_file_state::missing:
          continue;
        case point_file_state::corrupt:
          // Unlike a resuming shard (which can recompute), the merge
          // has nothing to fall back on — fail loudly.
          throw spec_error("merge", "'" + path +
                                        "' is truncated or corrupt — delete "
                                        "it and re-run its shard" +
                                        because(loaded.parse_error));
        case point_file_state::stale:
          throw_stale(path, loaded.found_hash, hash);
        case point_file_state::ok:
          break;
      }
      if (!merged.has_value()) {
        merged = std::move(loaded);
        merged_path = path;
      } else if (!(loaded.doc == merged->doc)) {
        throw spec_error("merge", "conflicting checkpoints for grid point " +
                                      std::to_string(i) + ": '" + merged_path +
                                      "' and '" + path +
                                      "' disagree — the shards did not run "
                                      "identical campaigns");
      }
    }
    if (!merged.has_value()) {
      missing.push_back(i);
      continue;
    }
    report.total_trials += merged->point.output.trials;
    report.points.push_back(std::move(merged->point));
  }

  if (!missing.empty()) {
    std::string list;
    for (std::size_t k = 0; k < missing.size() && k < 10; ++k) {
      if (k != 0) list += ", ";
      list += std::to_string(missing[k]);
    }
    if (missing.size() > 10) list += ", ...";
    throw spec_error("merge",
                     std::to_string(missing.size()) + " of " +
                         std::to_string(grid_size) +
                         " grid point(s) have no checkpoint (indices " + list +
                         ") — run the remaining shard(s) to completion "
                         "before merging");
  }
  return report;
}

}  // namespace urmem
