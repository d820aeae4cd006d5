#include "lab/journal.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/json_in.hpp"

namespace gridtrust::lab {

namespace {

constexpr const char* kJournalSchema = "gridtrust.lab.journal/v1";

using obs::detail::json_escape;
using obs::detail::json_number;

}  // namespace

std::string journal_to_jsonl(const Journal& journal) {
  std::string out = "{\"schema\":\"";
  out += kJournalSchema;
  out += "\",\"spec\":\"";
  out += json_escape(journal.spec);
  out += "\",\"spec_hash\":\"";
  out += json_escape(journal.spec_hash);
  out += "\",\"seed\":";
  out += std::to_string(journal.seed);  // exact: a double drops low bits
  out += ",\"replications\":";
  out += json_number(static_cast<double>(journal.replications));
  out += "}\n";
  for (const ManifestCell& cell : journal.cells) {
    out += cell_to_json(cell);
    out += '\n';
  }
  return out;
}

Journal parse_journal(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      if (i > start) lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  GT_REQUIRE(!lines.empty(), "empty journal");

  const obs::JsonValue header = obs::parse_json(lines.front());
  GT_REQUIRE(header.has("schema") &&
                 header.at("schema").as_string() == kJournalSchema,
             "unknown journal schema");
  Journal journal;
  journal.spec = header.at("spec").as_string();
  journal.spec_hash = header.at("spec_hash").as_string();
  journal.seed = parse_count(header.at("seed"), "journal seed");
  journal.replications =
      parse_count(header.at("replications"), "journal replications");

  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      journal.cells.push_back(
          parse_manifest_cell(obs::parse_json(lines[i])));
    } catch (const PreconditionError&) {
      // A torn cell record is recoverable wherever it sits: the classic
      // case is a torn tail (non-atomic writer died mid-line), but a
      // shard journal that was partially flushed and then appended to can
      // leave a torn record *followed by* valid ones.  Either way the
      // damaged cell simply re-runs; only the header stays load-bearing.
      log_warn("dropping torn journal cell at line ", i + 1);
    }
  }
  return journal;
}

std::optional<Journal> load_journal(const std::string& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  return parse_journal(read_file(path));
}

}  // namespace gridtrust::lab
