#include "common/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/error.hpp"

namespace gridtrust {

namespace {

std::atomic<std::uint64_t> g_file_syncs{0};
std::atomic<std::uint64_t> g_dir_syncs{0};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void remove_best_effort(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Writes all of `content` to fd, retrying short writes and EINTR.
/// Returns false (with errno set) on a write error.
bool write_all(int fd, const std::string& content) {
  const char* data = content.data();
  std::size_t size = content.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  GT_REQUIRE(!path.empty(), "atomic_write_file requires a path");
  // The pid suffix keeps concurrent writers (e.g. two cache processes
  // storing the same key) from clobbering each other's temp file; the
  // rename still serializes them to one winner with complete content.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  GT_REQUIRE(fd >= 0, "cannot create temp file: " + tmp);

  if (!write_all(fd, content)) {
    const int saved = errno;
    ::close(fd);
    remove_best_effort(tmp);
    errno = saved;
    throw_errno("short write to temp file: " + tmp);
  }
  // Flush data to stable storage *before* the rename becomes visible —
  // otherwise a crash can expose a renamed-but-empty file.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    remove_best_effort(tmp);
    errno = saved;
    throw_errno("fsync of temp file: " + tmp);
  }
  g_file_syncs.fetch_add(1, std::memory_order_relaxed);
  if (::close(fd) != 0) {
    remove_best_effort(tmp);
    throw_errno("close of temp file: " + tmp);
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    remove_best_effort(tmp);
    errno = saved;
    throw_errno("cannot rename " + tmp + " over " + path);
  }

  // Persist the directory entry: the rename only lives in the parent
  // directory's data, which has its own dirty pages.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) throw_errno("cannot open parent directory: " + dir);
  if (::fsync(dir_fd) != 0) {
    const int saved = errno;
    ::close(dir_fd);
    errno = saved;
    throw_errno("fsync of parent directory: " + dir);
  }
  g_dir_syncs.fetch_add(1, std::memory_order_relaxed);
  ::close(dir_fd);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GT_REQUIRE(static_cast<bool>(in), "cannot read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

AppendFile::AppendFile(const std::string& path) : path_(path) {
  GT_REQUIRE(!path.empty(), "AppendFile requires a path");
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  GT_REQUIRE(fd_ >= 0, "cannot open for appending: " + path);
}

AppendFile::~AppendFile() { ::close(fd_); }

void AppendFile::append(const std::string& data) {
  if (!write_all(fd_, data)) throw_errno("short append to " + path_);
  // fdatasync suffices: it also flushes the file size an append changes.
  // The directory entry is the creator's concern (the journal header goes
  // through atomic_write_file, which syncs the parent directory).
  if (::fdatasync(fd_) != 0) throw_errno("fdatasync of " + path_);
  g_file_syncs.fetch_add(1, std::memory_order_relaxed);
}

FsSyncStats fs_sync_stats() {
  FsSyncStats stats;
  stats.file_syncs = g_file_syncs.load(std::memory_order_relaxed);
  stats.dir_syncs = g_dir_syncs.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace gridtrust
