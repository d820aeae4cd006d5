#include "obs/report.hpp"

#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace gridtrust::obs {

std::size_t RunReport::position(const std::string& name) const {
  std::size_t at = 0;
  while (at < entries_.size() && entries_[at].name != name) ++at;
  return at;
}

RunReport::Entry& RunReport::upsert(const std::string& name) {
  GT_REQUIRE(!name.empty(), "report entry names must be non-empty");
  const std::size_t at = position(name);
  if (at != entries_.size()) return entries_[at];
  entries_.push_back(Entry{name, false, 0.0, {}});
  return entries_.back();
}

const RunReport::Entry& RunReport::find(const std::string& name) const {
  const std::size_t at = position(name);
  GT_REQUIRE(at != entries_.size(), "no report entry named " + name);
  return entries_[at];
}

RunReport& RunReport::set(const std::string& name, double value) {
  Entry& entry = upsert(name);
  entry.is_series = false;
  entry.scalar = value;
  entry.series.clear();
  return *this;
}

RunReport& RunReport::set_count(const std::string& name, std::uint64_t value) {
  GT_REQUIRE(value <= (std::uint64_t{1} << 53),
             "count too large to represent exactly as a double");
  return set(name, static_cast<double>(value));
}

RunReport& RunReport::set_series(const std::string& name,
                                 std::vector<double> values) {
  Entry& entry = upsert(name);
  entry.is_series = true;
  entry.series = std::move(values);
  return *this;
}

bool RunReport::has(const std::string& name) const {
  return position(name) != entries_.size();
}

double RunReport::get(const std::string& name) const {
  const Entry& entry = find(name);
  GT_REQUIRE(!entry.is_series, name + " is a series, not a scalar");
  return entry.scalar;
}

const std::vector<double>& RunReport::get_series(
    const std::string& name) const {
  const Entry& entry = find(name);
  GT_REQUIRE(entry.is_series, name + " is a scalar, not a series");
  return entry.series;
}

std::vector<std::string> RunReport::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

std::string RunReport::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& entry : entries_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += detail::json_escape(entry.name);
    out += "\":";
    if (entry.is_series) {
      out += '[';
      for (std::size_t i = 0; i < entry.series.size(); ++i) {
        if (i != 0) out += ',';
        out += detail::json_number(entry.series[i]);
      }
      out += ']';
    } else {
      out += detail::json_number(entry.scalar);
    }
  }
  out += '}';
  return out;
}

std::string RunReport::to_csv() const {
  std::ostringstream out;
  out.precision(17);
  out << "name,index,value\n";
  for (const Entry& entry : entries_) {
    if (entry.is_series) {
      for (std::size_t i = 0; i < entry.series.size(); ++i) {
        out << entry.name << "," << i << "," << entry.series[i] << "\n";
      }
    } else {
      out << entry.name << ",," << entry.scalar << "\n";
    }
  }
  return out.str();
}

}  // namespace gridtrust::obs
