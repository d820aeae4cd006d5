// Minimal command-line flag parsing for bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`.  Every
// binary registers its flags with defaults and help text so that `--help`
// prints a usage summary; unknown flags are an error (they usually indicate
// a typo in an experiment sweep script).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gridtrust {

/// Declarative flag parser.  Usage:
///
///   CliParser cli("bench_table4", "Reproduces Table 4");
///   cli.add_int("replications", 40, "independent simulation replications");
///   cli.add_flag("csv", "emit CSV instead of an ASCII table");
///   cli.parse(argc, argv);           // exits(0) on --help, throws on errors
///   int reps = cli.get_int("replications");
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers an integer flag with a default.
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  /// Registers an unsigned integer flag over the whole uint64 range (seeds,
  /// counts).  A negative value fails with "--<name> must be >= 0".
  void add_uint(const std::string& name, std::uint64_t def,
                const std::string& help);
  /// Registers a floating-point flag with a default.
  void add_double(const std::string& name, double def, const std::string& help);
  /// Registers a string flag with a default.
  void add_string(const std::string& name, std::string def,
                  const std::string& help);
  /// Registers a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  On `--help` prints usage and calls std::exit(0).
  /// Throws PreconditionError on unknown flags or malformed values.
  void parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// True if the user supplied the flag explicitly (vs default).
  bool was_set(const std::string& name) const;

  /// Renders the usage text.
  std::string usage() const;

 private:
  enum class Kind { kInt, kUint, kDouble, kString, kBool };

  struct Flag {
    Kind kind;
    std::string help;
    std::string value;  // textual; parsed on get
    bool set_by_user = false;
  };

  const Flag& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace gridtrust
