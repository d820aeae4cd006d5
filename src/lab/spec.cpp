#include "lab/spec.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"

namespace gridtrust::lab {

double ParamValue::number() const {
  GT_REQUIRE(is_number_, "parameter value is not a number");
  return number_;
}

const std::string& ParamValue::text() const {
  GT_REQUIRE(!is_number_, "parameter value is not a string");
  return text_;
}

std::string ParamValue::canonical() const {
  return is_number_ ? obs::detail::json_number(number_) : text_;
}

bool ParamValue::operator==(const ParamValue& other) const {
  if (is_number_ != other.is_number_) return false;
  return is_number_ ? number_ == other.number_ : text_ == other.text_;
}

namespace {

const ParamValue& find_param(const Cell& cell, const std::string& name) {
  for (const auto& [key, value] : cell.params) {
    if (key == name) return value;
  }
  GT_REQUIRE(false, "cell has no parameter \"" + name + "\"");
  std::abort();  // unreachable; GT_REQUIRE throws
}

}  // namespace

double Cell::number(const std::string& name) const {
  return find_param(*this, name).number();
}

const std::string& Cell::text(const std::string& name) const {
  return find_param(*this, name).text();
}

void AggregateSet::set(const std::string& name, MetricAggregate aggregate) {
  for (auto& [key, value] : entries_) {
    if (key == name) {
      value = aggregate;
      return;
    }
  }
  entries_.emplace_back(name, aggregate);
}

void AggregateSet::set_derived(const std::string& name, double value) {
  set(name, MetricAggregate{value, 0.0, 0});
}

const MetricAggregate& AggregateSet::get(const std::string& name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) return value;
  }
  GT_REQUIRE(false, "no aggregate named \"" + name + "\"");
  std::abort();  // unreachable; GT_REQUIRE throws
}

std::vector<Cell> SweepSpec::cells() const {
  std::size_t total = 1;
  for (const Axis& axis : axes) {
    GT_REQUIRE(!axis.values.empty(),
               "axis \"" + axis.name + "\" of spec \"" + name +
                   "\" has no values");
    total *= axis.values.size();
  }
  std::vector<Cell> out;
  out.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    Cell cell;
    cell.index = index;
    cell.params.reserve(axes.size());
    // Row-major: the last axis varies fastest.
    std::size_t remainder = index;
    std::size_t divisor = total;
    for (const Axis& axis : axes) {
      divisor /= axis.values.size();
      const std::size_t pick = remainder / divisor;
      remainder %= divisor;
      cell.params.emplace_back(axis.name, axis.values[pick]);
    }
    out.push_back(std::move(cell));
  }
  return out;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t SweepSpec::content_hash() const {
  std::string canon = name;
  canon += '\x1f';
  canon += version;
  canon += '\x1f';
  canon += std::to_string(seed);
  canon += '\x1f';
  canon += std::to_string(replications);
  for (const Axis& axis : axes) {
    canon += '\x1e';
    canon += axis.name;
    for (const ParamValue& value : axis.values) {
      canon += '\x1f';
      canon += value.canonical();
    }
  }
  return fnv1a64(canon);
}

std::uint64_t cell_param_hash(const Cell& cell) {
  std::string canon;
  for (const auto& [key, value] : cell.params) {
    canon += key;
    canon += '\x1f';
    canon += value.canonical();
    canon += '\x1e';
  }
  return fnv1a64(canon);
}

std::uint64_t derive_rep_seed(std::uint64_t master_seed,
                              std::uint64_t param_hash, std::size_t rep) {
  // Three SplitMix64 steps fold the words together; the result is as
  // statistically independent across (cell, rep) pairs as the generator's
  // streams themselves.
  std::uint64_t state = master_seed;
  state ^= splitmix64(state) + param_hash;
  state ^= splitmix64(state) + static_cast<std::uint64_t>(rep);
  return splitmix64(state);
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace gridtrust::lab
