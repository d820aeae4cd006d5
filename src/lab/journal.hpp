// Crash-safe sweep checkpoint journal.
//
// Before a sweep runs, the engine writes the header (plus any resumed or
// cached cells) through gridtrust::atomic_write_file.  After that the file
// is append-only: every cell that completes cleanly is appended as one
// line through gridtrust::AppendFile (one write, one fdatasync), one
// append at a time.  A SIGKILL can therefore leave at most a torn last
// line, which parse_journal drops — the file is always a parseable record
// of the finished work minus at most that one cell.
// `--resume <journal>` loads it back, re-anchors the completed cells onto
// the expanded grid (guarded by the spec content hash, so a journal can
// never resume a different sweep), rewrites the header atomically, and
// runs only the remainder; because each cell's results are a pure
// function of (spec, seed), the resumed manifest is byte-identical to an
// uninterrupted run.
//
// Format: JSON lines.  The first line is a header object; each further
// line is one completed cell in the cell_to_json shape:
//
//   {"schema":"gridtrust.lab.journal/v1","spec":...,"spec_hash":...,
//    "seed":...,"replications":...}
//   {"index":0,"params":{...},...}
//   {"index":3,"params":{...},...}
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lab/manifest.hpp"

namespace gridtrust::lab {

/// A parsed journal, or the header-time state the engine writes: run
/// identity plus completed cells in completion order.
struct Journal {
  std::string spec;
  /// hash_hex(content hash) of the effective spec — must match for resume.
  std::string spec_hash;
  std::uint64_t seed = 0;
  std::size_t replications = 0;
  std::vector<ManifestCell> cells;
};

/// Serializes header + cells as JSON lines (deterministic for a given
/// cell order).
std::string journal_to_jsonl(const Journal& journal);

/// Parses a journal document.  Throws PreconditionError on a malformed
/// header, an unknown schema, or a header seed/replications that is not a
/// count (lab::parse_count); a malformed *cell* line anywhere (the torn
/// tail a crash mid-append leaves, or a torn middle record in an appended
/// shard journal) is dropped with a warning — the damaged cell just
/// re-runs.
Journal parse_journal(const std::string& text);

/// Loads and parses a journal file, or nullopt when the file does not
/// exist (resume of a run that died before its first checkpoint).
std::optional<Journal> load_journal(const std::string& path);

}  // namespace gridtrust::lab
