// Minimal JSON DOM parser.
//
// The dependency-free counterpart of JsonWriter: parses RFC 8259 JSON into
// an ordered DOM for every reader of our artifacts (the metrics, trace and
// journal checks, analyze/compare/stats, perfbench's reference file).
// Anything RFC 8259 rejects is rejected here too: leading zeros or '+',
// bare '.5' or '1.', raw control characters in strings. Errors come back as
// rt::Status with the byte offset.
#pragma once

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
  /// kNumber only: the token had no fraction and no exponent.
  bool integer = false;
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

  /// The string member `key`; `dflt` when absent or not a string.
  std::string str_or(std::string_view key, std::string dflt) const {
    const JsonValue* v = find(key);
    return v && v->is_string() ? v->string_value : dflt;
  }
};

/// Parses a complete JSON document (trailing whitespace allowed).
rt::Result<JsonValue> parse_json(std::string_view text);

/// Reads and parses a file.
rt::Result<JsonValue> parse_json_file(const std::string& path);

}  // namespace gnnbridge::prof
