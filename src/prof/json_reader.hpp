// Minimal JSON DOM parser.
//
// The analyze/compare CLI paths read metrics documents back; the existing
// JsonChecker (tests/testing/json.hpp) only validates syntax, so this is
// the dependency-free counterpart of JsonWriter: it parses the subset of
// JSON our exporters emit (plus standard escapes and nesting) into an
// ordered DOM. Errors come back as rt::Status with the byte offset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rt/status.hpp"

namespace gnnbridge::prof {

/// One parsed JSON value. Objects keep member order; lookups are linear
/// (our documents have tens of keys, not thousands).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Typed member getters with defaults: absent or mistyped members fall
  /// back, and so do numbers outside the integer getters' target range
  /// (converting those to an integer type is undefined behaviour).
  double num_or(std::string_view key, double dflt) const {
    const JsonValue* v = find(key);
    return v && v->is_number() ? v->number_value : dflt;
  }
  std::int64_t int_or(std::string_view key, std::int64_t dflt) const {
    constexpr double kTwoPow63 = 9223372036854775808.0;
    const JsonValue* v = find(key);
    return v && v->is_number() && v->number_value >= -kTwoPow63 && v->number_value < kTwoPow63
               ? static_cast<std::int64_t>(v->number_value)
               : dflt;
  }
  std::uint64_t uint_or(std::string_view key, std::uint64_t dflt) const {
    constexpr double kTwoPow64 = 18446744073709551616.0;
    const JsonValue* v = find(key);
    return v && v->is_number() && v->number_value >= 0.0 && v->number_value < kTwoPow64
               ? static_cast<std::uint64_t>(v->number_value)
               : dflt;
  }
  std::string str_or(std::string_view key, std::string dflt) const {
    const JsonValue* v = find(key);
    return v && v->is_string() ? v->string_value : dflt;
  }
  bool bool_or(std::string_view key, bool dflt) const {
    const JsonValue* v = find(key);
    return v && v->kind == Kind::kBool ? v->bool_value : dflt;
  }
};

/// Parses a complete JSON document (trailing whitespace allowed).
rt::Result<JsonValue> parse_json(std::string_view text);

/// Reads and parses a file.
rt::Result<JsonValue> parse_json_file(const std::string& path);

}  // namespace gnnbridge::prof
