// Filesystem helpers shared by every layer that persists artifacts.
//
// The one that matters is atomic_write_file: manifests, result-cache
// entries, checkpoint journal headers, and metrics dumps are all read back
// by other processes (CI compare gates, --resume, cache hits), so a crash or
// SIGKILL mid-write must never leave a torn file behind.  The helper writes
// the full content to a sibling temp file, fsyncs it, and renames it over
// the target — rename(2) is atomic on POSIX, so readers observe either the
// old complete file or the new complete file, never a prefix.  After the
// rename the *parent directory* is fsynced too: without that, a power cut
// can persist the data blocks but lose the directory entry, and a journal
// the supervisor already acknowledged would silently vanish on reboot.
#pragma once

#include <cstdint>
#include <string>

namespace gridtrust {

/// Writes `content` to `path` atomically and durably (write temp sibling,
/// fsync it, rename over, fsync the parent directory).  Throws
/// PreconditionError when the temp file cannot be created (missing
/// directory, bad path) and std::system_error — classified `resource` by
/// common/retry — when a write/fsync/rename fails underneath a valid path;
/// on failure the target is untouched and the temp file is removed
/// best-effort.
void atomic_write_file(const std::string& path, const std::string& content);

/// Reads a whole file into a string; throws PreconditionError when the
/// file cannot be opened.
std::string read_file(const std::string& path);

/// An existing file grown by durable appends: the checkpoint journal's
/// cell lines after its header was written with atomic_write_file.  Unlike
/// atomic_write_file this is not all-or-nothing: a crash mid-append can
/// leave a torn last line, so readers of append-only files must tolerate
/// one (lab::parse_journal drops it).  Not thread-safe: callers serialize
/// appends, so concurrent lines cannot interleave.
class AppendFile {
 public:
  /// Opens `path` for appending; throws PreconditionError when it cannot
  /// be opened (missing file or directory, bad path).
  explicit AppendFile(const std::string& path);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Appends all of `data` with one write(2) (short writes and EINTR are
  /// retried) and makes it durable with one fdatasync.  Throws
  /// std::system_error — classified `resource` by common/retry — when the
  /// write or the sync fails; a failed append counts no sync.
  void append(const std::string& data);

 private:
  std::string path_;
  int fd_ = -1;
};

/// Process-wide durability counters, bumped by atomic_write_file and
/// AppendFile::append.  They exist so tests can assert the fsync paths
/// actually executed (a silent fsync regression is invisible to a content
/// check — the file looks fine until the machine loses power).  The
/// backing counters are relaxed atomics, not a mutex-guarded pair: the two
/// counts are independent monotone tallies, so there is no cross-field
/// invariant for a lock (or a GT_GUARDED_BY annotation) to protect — see
/// the thread-safety audit in docs/static-analysis.md.
struct FsSyncStats {
  std::uint64_t file_syncs = 0;  ///< fsync(temp) or fdatasync(append)
  std::uint64_t dir_syncs = 0;   ///< fsync(parent dir) after rename
};

/// Snapshot of the counters above (monotonic since process start).
FsSyncStats fs_sync_stats();

}  // namespace gridtrust
