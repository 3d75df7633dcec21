// Filesystem helpers for run directories and small text files.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

namespace dpho::util {

/// Reads an entire file; throws IoError when the file cannot be opened.
std::string read_file(const std::filesystem::path& path);

/// Writes (replacing) an entire file; creates parent directories as needed.
void write_file(const std::filesystem::path& path, const std::string& contents);

/// Crash-safe whole-file replacement: the contents are written to a unique
/// temporary sibling, flushed with fsync, and renamed over `path`; the parent
/// directory is fsynced afterwards so the rename itself is durable.  A reader
/// therefore observes either the previous file or the complete new one --
/// never a torn intermediate -- which is the invariant the checkpoint layer
/// depends on.  Leftover "*.tmp-*" siblings from a crashed writer are inert.
void atomic_write_file(const std::filesystem::path& path, std::string_view contents);

/// Creates a fresh unique directory under `base` (created too, if missing).
std::filesystem::path make_run_dir(const std::filesystem::path& base,
                                   const std::string& name);

/// A directory deleted on destruction; used by tests and the workspace layer.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "dpho");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace dpho::util
