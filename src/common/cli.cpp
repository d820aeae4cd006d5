#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace gridtrust {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_int(const std::string& name, std::int64_t def,
                        const std::string& help) {
  GT_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Kind::kInt, help, std::to_string(def), false};
  order_.push_back(name);
}

void CliParser::add_uint(const std::string& name, std::uint64_t def,
                         const std::string& help) {
  GT_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Kind::kUint, help, std::to_string(def), false};
  order_.push_back(name);
}

void CliParser::add_double(const std::string& name, double def,
                           const std::string& help) {
  GT_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  std::ostringstream os;
  os << def;
  flags_[name] = Flag{Kind::kDouble, help, os.str(), false};
  order_.push_back(name);
}

void CliParser::add_string(const std::string& name, std::string def,
                           const std::string& help) {
  GT_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Kind::kString, help, std::move(def), false};
  order_.push_back(name);
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  GT_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Kind::kBool, help, "false", false};
  order_.push_back(name);
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    GT_REQUIRE(arg.rfind("--", 0) == 0, "unexpected argument: " + arg);
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    GT_REQUIRE(it != flags_.end(), "unknown flag: --" + arg);
    Flag& flag = it->second;
    if (flag.kind == Kind::kBool) {
      GT_REQUIRE(!has_value || value == "true" || value == "false",
                 "boolean flag --" + arg + " takes no value");
      flag.value = has_value ? value : "true";
    } else {
      if (!has_value) {
        GT_REQUIRE(i + 1 < argc, "flag --" + arg + " needs a value");
        value = argv[++i];
      }
      flag.value = value;
    }
    flag.set_by_user = true;
  }
  // Validate numeric flags eagerly so typos fail at startup.
  for (const auto& [name, flag] : flags_) {
    if (flag.kind == Kind::kInt) (void)get_int(name);
    if (flag.kind == Kind::kUint) (void)get_uint(name);
    if (flag.kind == Kind::kDouble) (void)get_double(name);
  }
}

const CliParser::Flag& CliParser::find(const std::string& name,
                                       Kind kind) const {
  auto it = flags_.find(name);
  GT_REQUIRE(it != flags_.end(), "flag not registered: --" + name);
  GT_REQUIRE(it->second.kind == kind, "flag type mismatch: --" + name);
  return it->second;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const Flag& flag = find(name, Kind::kInt);
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(flag.value, &pos);
  } catch (const std::exception&) {
    GT_REQUIRE(false, "flag --" + name + " is not an integer: " + flag.value);
  }
  GT_REQUIRE(pos == flag.value.size(),
             "flag --" + name + " is not an integer: " + flag.value);
  return v;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::string& text = find(name, Kind::kUint).value;
  GT_REQUIRE(text.empty() || text.front() != '-',
             "--" + name + " must be >= 0");
  // Digits only: from_chars takes no sign, space or base prefix, and
  // reports values past 2^64 - 1 as out of range.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  GT_REQUIRE(ec != std::errc::result_out_of_range,
             "flag --" + name + " exceeds 2^64 - 1: " + text);
  GT_REQUIRE(ec == std::errc() && ptr == end,
             "flag --" + name + " is not an unsigned integer: " + text);
  return v;
}

double CliParser::get_double(const std::string& name) const {
  const Flag& flag = find(name, Kind::kDouble);
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(flag.value, &pos);
  } catch (const std::exception&) {
    GT_REQUIRE(false, "flag --" + name + " is not a number: " + flag.value);
  }
  GT_REQUIRE(pos == flag.value.size(),
             "flag --" + name + " is not a number: " + flag.value);
  return v;
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name, Kind::kBool).value == "true";
}

bool CliParser::was_set(const std::string& name) const {
  auto it = flags_.find(name);
  GT_REQUIRE(it != flags_.end(), "flag not registered: --" + name);
  return it->second.set_by_user;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\nFlags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kInt:
        os << "=<int>";
        break;
      case Kind::kUint:
        os << "=<uint>";
        break;
      case Kind::kDouble:
        os << "=<num>";
        break;
      case Kind::kString:
        os << "=<str>";
        break;
      case Kind::kBool:
        break;
    }
    os << "  " << flag.help << " (default: " << flag.value << ")\n";
  }
  os << "  --help  show this message\n";
  return os.str();
}

}  // namespace gridtrust
