// Minimal strict JSON reader for the obs/lab tooling layer.
//
// The exporters in this library *write* JSON (obs/json.hpp); the lab sweep
// engine also needs to read it back — manifests for baseline comparison,
// cached cell results, round-trip tests.  This is a small recursive-descent
// parser over the full JSON grammar (RFC 8259) that preserves object key
// order (manifests are order-sensitive so re-serialization is bit-stable)
// and rejects malformed input with GT_REQUIRE rather than guessing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gridtrust::obs {

/// One parsed JSON value.  Objects keep their keys in document order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each throws PreconditionError on a kind mismatch.
  double as_number() const;
  /// The exact value of a number written as plain digits (no sign,
  /// fraction or exponent) that fits in 64 bits; nullopt for any other
  /// number.  as_number() holds the same value rounded to a double.
  /// Throws PreconditionError when this is not a number.
  std::optional<std::uint64_t> exact_uint() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// True when this is an object containing `key`.
  bool has(const std::string& key) const;
  /// Object member lookup; throws PreconditionError when absent.
  const JsonValue& at(const std::string& key) const;

  /// Builders (used by the parser; handy for tests).
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  /// A number that also keeps `n` exactly (see exact_uint()).
  static JsonValue make_uint(std::uint64_t n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<std::uint64_t> uint_;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).  Throws PreconditionError with a byte offset on any
/// syntax error, and on objects and arrays nested more than 64 deep.
JsonValue parse_json(const std::string& text);

}  // namespace gridtrust::obs
