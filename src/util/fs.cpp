#include "util/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dpho::util {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for reading: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& contents) {
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open for writing: " + path.string());
  out << contents;
  if (!out) throw IoError("short write: " + path.string());
}

namespace {
std::atomic<unsigned> g_atomic_write_counter{0};
}

void atomic_write_file(const fs::path& path, std::string_view contents) {
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  const fs::path dir = path.has_parent_path() ? path.parent_path() : fs::path(".");
  const fs::path tmp =
      path.string() + ".tmp-" + std::to_string(::getpid()) + "-" +
      std::to_string(g_atomic_write_counter.fetch_add(1));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw IoError("cannot open temp file for writing: " + tmp.string());
  std::size_t written = 0;
  while (written < contents.size()) {
    const ::ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      throw IoError("short write: " + tmp.string());
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw IoError("fsync failed: " + tmp.string());
  }
  ::close(fd);

  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    throw IoError("atomic rename to " + path.string() + " failed: " + ec.message());
  }
  // Make the rename durable: fsync the containing directory.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

fs::path make_run_dir(const fs::path& base, const std::string& name) {
  const fs::path dir = base / name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw IoError("cannot create run dir " + dir.string() + ": " + ec.message());
  return dir;
}

namespace {
std::atomic<unsigned> g_tempdir_counter{0};
}

TempDir::TempDir(const std::string& prefix) {
  const unsigned id = g_tempdir_counter.fetch_add(1);
  path_ = fs::temp_directory_path() /
          (prefix + "-" + std::to_string(::getpid()) + "-" + std::to_string(id));
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; never throw from a destructor
}

}  // namespace dpho::util
