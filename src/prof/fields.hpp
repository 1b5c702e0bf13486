// Field lists: one function per record drives both its writer and its
// strict reader.
//
// Each record of the gnnbridge-metrics document and of the event journal
// has one field list, a generic callable `fields(v, rec)` that visits the
// record's keys in document order (prof/metrics_json.cpp, obs/registry.hpp,
// obs/journal.hpp). It calls, in order:
//   v.field(key, member)        a stored member: written, and read back
//   v.derived(key, value)       computed from stored members: written, and
//                               on read only type-checked
//   v.object(key, rec, fields)  a nested object / v.array(key, items, fields)
//   v.check(ok, what)           a value invariant, tested on read only;
//                               `what` is a string or a callable making one
// The C++ type fixes the JSON type: std::string a string, bool a boolean,
// an integral type an integer token inside the type's range (so 5.0 is not
// an int), double a finite number; kRate bounds it to [0, 1]. A read object
// must hold exactly the visited keys, in order. A failed read names the
// first bad field's path, e.g. `runs[0].kernels[2].l2_misses: missing key`.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "prof/json_reader.hpp"
#include "prof/json_writer.hpp"
#include "rt/status.hpp"

namespace gnnbridge::prof {

enum class Bound { kNone, kRate };
inline constexpr Bound kRate = Bound::kRate;

class FieldWriter {
 public:
  explicit FieldWriter(JsonWriter& w) : w_(&w) {}

  template <typename T>
  void field(std::string_view key, const T& x, Bound = Bound::kNone) {
    w_->key(key);
    w_->value(x);
  }
  template <typename T>
  void derived(std::string_view key, const T& x, Bound = Bound::kNone) {
    field(key, x);
  }
  template <typename R, typename Fields>
  void object(std::string_view key, const R& rec, Fields fields) {
    w_->key(key);
    write(rec, fields);
  }
  template <typename Items, typename Fields>
  void array(std::string_view key, const Items& items, Fields fields) {
    w_->key(key);
    w_->begin_array();
    for (const auto& x : items) write(x, fields);
    w_->end_array();
  }
  template <typename Msg>
  void check(bool, const Msg&) {}

  /// Writes `rec` through its field list as one JSON object.
  template <typename R, typename Fields>
  void write(const R& rec, Fields fields) {
    w_->begin_object();
    fields(*this, rec);
    w_->end_object();
  }

 private:
  JsonWriter* w_;
};

class FieldReader {
 public:
  /// A reader whose first failure lands in `*error` (empty while none).
  FieldReader(std::string path, std::string* error) : path_(std::move(path)), error_(error) {}

  /// Reads the object `j` into `rec` through `fields`.
  template <typename R, typename Fields>
  void read(const JsonValue& j, R& rec, Fields fields) {
    if (!j.is_object()) return fail(path_, "expected object");
    obj_ = &j;
    fields(*this, rec);
    if (ok() && next_ < j.members.size()) fail(join(j.members[next_].first), "unexpected key");
  }

  template <typename T>
  void field(std::string_view key, T& out, Bound bound = Bound::kNone) {
    if (const JsonValue* j = next(key)) read_value(join(key), *j, out, bound);
  }
  template <typename T>
  void derived(std::string_view key, const T&, Bound bound = Bound::kNone) {
    T ignored{};
    field(key, ignored, bound);
  }
  template <typename R, typename Fields>
  void object(std::string_view key, R& rec, Fields fields) {
    if (const JsonValue* j = next(key)) FieldReader(join(key), error_).read(*j, rec, fields);
  }
  template <typename Items, typename Fields>
  void array(std::string_view key, Items& items, Fields fields) {
    const JsonValue* j = next(key);
    if (j && !j->is_array()) return fail(join(key), "expected array");
    for (std::size_t i = 0; j && i < j->items.size() && ok(); ++i) {
      FieldReader(join(key) + "[" + std::to_string(i) + "]", error_)
          .read(j->items[i], items.emplace_back(), fields);
    }
  }
  template <typename Msg>
  void check(bool holds, const Msg& what) {
    if (holds || !ok()) return;
    if constexpr (std::is_invocable_v<const Msg&>) {
      fail(path_, what());
    } else {
      fail(path_, what);
    }
  }

 private:
  bool ok() const { return error_->empty(); }
  std::string join(std::string_view key) const {
    return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  }
  void fail(const std::string& path, std::string_view what) {
    if (ok()) *error_ = (path.empty() ? "" : path + ": ") + std::string(what);
  }

  /// The member `key`, which must come next in document order.
  const JsonValue* next(std::string_view key) {
    if (!ok()) return nullptr;
    if (next_ < obj_->members.size() && obj_->members[next_].first == key) {
      return &obj_->members[next_++].second;
    }
    fail(join(key), obj_->find(key) ? "key out of order" : "missing key");
    return nullptr;
  }

  template <typename T>
  void read_value(const std::string& path, const JsonValue& j, T& out, Bound bound) {
    if constexpr (std::is_same_v<T, std::string>) {
      if (!j.is_string()) return fail(path, "expected string");
      out = j.string_value;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (j.kind != JsonValue::Kind::kBool) return fail(path, "expected boolean");
      out = j.bool_value;
    } else if constexpr (std::is_integral_v<T>) {
      // Inside [lo, hi) the conversion is exact.
      const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
      const double lo = std::is_signed_v<T> ? -hi : 0.0;
      if (!j.is_number() || !j.integer) return fail(path, "expected integer");
      if (j.number_value < lo || j.number_value >= hi) return fail(path, "integer out of range");
      out = static_cast<T>(j.number_value);
    } else {
      static_assert(std::is_same_v<T, double>);
      if (!j.is_number()) return fail(path, "expected number");
      if (!std::isfinite(j.number_value)) return fail(path, "non-finite number");
      if (bound == kRate && !(j.number_value >= 0.0 && j.number_value <= 1.0)) {
        return fail(path, "out of [0, 1]");
      }
      out = j.number_value;
    }
  }

  const JsonValue* obj_ = nullptr;
  std::string path_;
  std::string* error_;
  std::size_t next_ = 0;
};

/// Reads `rec` from `j` through its field list; kDataLoss naming the first
/// bad field otherwise. `path` prefixes every field's path.
template <typename R, typename Fields>
rt::Status read_record(const JsonValue& j, const std::string& path, R& rec, Fields fields) {
  std::string error;
  FieldReader(path, &error).read(j, rec, fields);
  if (error.empty()) return rt::OkStatus();
  return rt::Status(rt::StatusCode::kDataLoss, std::move(error));
}

}  // namespace gnnbridge::prof
