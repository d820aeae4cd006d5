#include "trust/serialization.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace gridtrust::trust {

namespace {

constexpr const char* kTableHeader = "gridtrust-trust-table v1";

std::string next_line(std::istream& is, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    // Skip blank lines and comments.
    if (line.empty() || line[0] == '#') continue;
    return line;
  }
  GT_REQUIRE(false, std::string("unexpected end of input reading ") + what);
  return {};
}

/// Reads one unsigned decimal field.  operator>> would wrap "-1" to
/// 2^64 - 1, so the token must be digits only and fit a size_t.
std::size_t read_count(std::istringstream& line, const char* what) {
  std::string token;
  line >> token;
  std::size_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  GT_REQUIRE(!token.empty() && ec == std::errc() && ptr == end,
             std::string("malformed ") + what + ": '" + token + "'");
  return value;
}

}  // namespace

void save_table(const TrustLevelTable& table, std::ostream& os) {
  os << kTableHeader << "\n"
     << "dims " << table.client_domains() << " " << table.resource_domains()
     << " " << table.activities() << "\n";
  for (std::size_t cd = 0; cd < table.client_domains(); ++cd) {
    for (std::size_t rd = 0; rd < table.resource_domains(); ++rd) {
      os << "row " << cd << " " << rd << " ";
      for (std::size_t act = 0; act < table.activities(); ++act) {
        os << to_string(table.get(cd, rd, act));
      }
      os << "\n";
    }
  }
}

TrustLevelTable load_table(std::istream& is) {
  GT_REQUIRE(next_line(is, "header") == kTableHeader,
             "not a gridtrust trust-table file (bad header)");
  std::istringstream dims(next_line(is, "dims"));
  std::string tag;
  dims >> tag;
  GT_REQUIRE(tag == "dims", "malformed dims line");
  const std::size_t n_cd = read_count(dims, "dims line");
  const std::size_t n_rd = read_count(dims, "dims line");
  const std::size_t n_act = read_count(dims, "dims line");
  GT_REQUIRE(n_cd > 0 && n_rd > 0 && n_act > 0,
             "trust table dims must be positive");
  GT_REQUIRE(n_rd <= std::numeric_limits<std::size_t>::max() / n_cd,
             "trust table dims overflow");
  // Rows are kept as read, keyed by cd * n_rd + rd; n_cd * n_rd distinct
  // in-range keys cover every (cd, rd) exactly once.
  std::map<std::size_t, std::string> rows;
  for (std::size_t i = 0; i < n_cd * n_rd; ++i) {
    std::istringstream row(next_line(is, "row"));
    row >> tag;
    GT_REQUIRE(tag == "row", "malformed row line");
    const std::size_t cd = read_count(row, "row line");
    const std::size_t rd = read_count(row, "row line");
    std::string levels;
    row >> levels;
    GT_REQUIRE(!row.fail(), "malformed row line");
    GT_REQUIRE(cd < n_cd && rd < n_rd, "row indices out of range");
    GT_REQUIRE(levels.size() == n_act,
               "row has the wrong number of activity levels");
    GT_REQUIRE(rows.emplace(cd * n_rd + rd, std::move(levels)).second,
               "row " + std::to_string(cd) + " " + std::to_string(rd) +
                   " given twice");
  }
  TrustLevelTable table(n_cd, n_rd, n_act);
  for (const auto& [key, levels] : rows) {
    for (std::size_t act = 0; act < n_act; ++act) {
      table.set(key / n_rd, key % n_rd, act,
                level_from_string(std::string(1, levels[act])));
    }
  }
  return table;
}

std::string table_to_string(const TrustLevelTable& table) {
  std::ostringstream os;
  save_table(table, os);
  return os.str();
}

TrustLevelTable table_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_table(is);
}

}  // namespace gridtrust::trust
