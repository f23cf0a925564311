// Small filesystem helpers for the tools and the checkpoint layer.
//
// Campaign checkpoints are written by shards that may be killed at any
// instant (and may share one directory over a network filesystem), so
// the one write primitive offered here is atomic publication:
// write_file_atomic streams the content to a process-unique sibling
// temp file, fsyncs it and renames it over the target, so readers only
// ever see either the previous complete file or the new complete file —
// never a truncated one. Syncing the directory after the rename makes
// the publication survive power loss, not just a killed process.
// Parent directories are created on demand (shared with
// `urmem-run --out`, which historically failed bare when FILE's
// directory was missing).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace urmem {

/// Creates `path`'s parent directories (like `mkdir -p $(dirname p)`).
/// No-op when the parent already exists or `path` has no directory
/// component; throws std::runtime_error naming the directory otherwise.
void ensure_parent_dirs(const std::string& path);

/// Atomically and durably replaces `path` with `content`: writes a
/// process-unique sibling temp file, fsyncs it, renames it over `path`
/// (POSIX rename is atomic within a filesystem) and fsyncs the parent
/// directory. Parent directories are created on demand. Throws
/// std::runtime_error on I/O failure; the temp file is removed on every
/// failure path.
void write_file_atomic(const std::string& path, std::string_view content);

/// Whole-file read; nullopt when the file is missing or unreadable.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace urmem
