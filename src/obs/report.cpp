#include "obs/report.hpp"

#include "common/error.hpp"

namespace gridtrust::obs {

std::size_t RunReport::position(const std::string& name) const {
  std::size_t at = 0;
  while (at < entries_.size() && entries_[at].name != name) ++at;
  return at;
}

RunReport& RunReport::set(const std::string& name, double value) {
  GT_REQUIRE(!name.empty(), "report entry names must be non-empty");
  const std::size_t at = position(name);
  if (at == entries_.size()) {
    entries_.push_back(Entry{name, value});
  } else {
    entries_[at].value = value;
  }
  return *this;
}

RunReport& RunReport::set_count(const std::string& name, std::uint64_t value) {
  GT_REQUIRE(value <= (std::uint64_t{1} << 53),
             "count too large to represent exactly as a double");
  return set(name, static_cast<double>(value));
}

bool RunReport::has(const std::string& name) const {
  return position(name) != entries_.size();
}

double RunReport::get(const std::string& name) const {
  const std::size_t at = position(name);
  GT_REQUIRE(at != entries_.size(), "no report entry named " + name);
  return entries_[at].value;
}

std::vector<std::string> RunReport::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

}  // namespace gridtrust::obs
