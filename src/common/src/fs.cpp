#include "urmem/common/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace urmem {

namespace {

/// fsync(2)s `path` opened with `flags`; the error of the first failing
/// call (open, fsync or close), or an empty code.
std::error_code sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return {errno, std::system_category()};
  const int synced = ::fsync(fd) == 0 ? 0 : errno;
  const int closed = ::close(fd) == 0 ? 0 : errno;
  return {synced != 0 ? synced : closed, std::system_category()};
}

}  // namespace

void ensure_parent_dirs(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory '" + parent.string() +
                             "': " + ec.message());
  }
}

void write_file_atomic(const std::string& path, std::string_view content) {
  ensure_parent_dirs(path);
  // Process-unique temp name: concurrent shards publishing into the
  // same directory never clobber each other's in-flight writes.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write '" + temp + "'");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      throw std::runtime_error("short write to '" + temp + "'");
    }
  }
  // The data must be on stable storage before the rename publishes it,
  // or a power loss could leave `path` naming an empty file.
  if (const std::error_code error = sync_path(temp, O_WRONLY)) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw std::runtime_error("cannot fsync '" + temp + "': " +
                             error.message());
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw std::runtime_error("cannot rename '" + temp + "' to '" + path +
                             "': " + ec.message());
  }
  // The rename itself is a directory update: sync the directory so the
  // new name survives a power loss too.
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  if (const std::error_code error =
          sync_path(dir.string(), O_RDONLY | O_DIRECTORY)) {
    throw std::runtime_error("cannot fsync directory '" + dir.string() +
                             "': " + error.message());
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace urmem
