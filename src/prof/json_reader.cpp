#include "prof/json_reader.hpp"

#include <cstdio>
#include <cstdlib>

namespace gnnbridge::prof {

namespace {

// Local early-return helper (Result<T> and Status do not convert).
#define GNNBRIDGE_JSON_TRY(expr)                        \
  do {                                                  \
    ::gnnbridge::rt::Status s_ = (expr);                \
    if (!s_.ok()) return s_;                            \
  } while (false)

/// Recursive-descent parser over a string_view. Depth-limited so a
/// pathological document cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  rt::Result<JsonValue> parse() {
    JsonValue v;
    GNNBRIDGE_JSON_TRY(parse_value(v, 0));
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  rt::Status error(const std::string& what) const {
    return rt::Status(rt::StatusCode::kDataLoss,
                      what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  rt::Status parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string_value);
      case 't':
      case 'f': return parse_literal(out);
      case 'n': return parse_literal(out);
      default: return parse_number(out);
    }
  }

  rt::Status parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return rt::OkStatus();
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return error("expected object key");
      std::string key;
      GNNBRIDGE_JSON_TRY(parse_string(key));
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      JsonValue member;
      GNNBRIDGE_JSON_TRY(parse_value(member, depth + 1));
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return rt::OkStatus();
      return error("expected ',' or '}'");
    }
  }

  rt::Status parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return rt::OkStatus();
    while (true) {
      JsonValue item;
      GNNBRIDGE_JSON_TRY(parse_value(item, depth + 1));
      out.items.push_back(std::move(item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return rt::OkStatus();
      return error("expected ',' or ']'");
    }
  }

  rt::Status parse_string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return rt::OkStatus();
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return error("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return error("bad \\u escape");
            }
          }
          // Our writer only emits \u00xx control escapes; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return error("bad escape");
      }
    }
    return error("unterminated string");
  }

  rt::Status parse_literal(JsonValue& out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.substr(0, 4) == "true") {
      out.kind = JsonValue::Kind::kBool;
      out.bool_value = true;
      pos_ += 4;
      return rt::OkStatus();
    }
    if (rest.substr(0, 5) == "false") {
      out.kind = JsonValue::Kind::kBool;
      out.bool_value = false;
      pos_ += 5;
      return rt::OkStatus();
    }
    if (rest.substr(0, 4) == "null") {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return rt::OkStatus();
    }
    return error("bad literal");
  }

  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  rt::Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    consume('-');
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return error(pos_ == start ? "expected value" : "bad number");
    }
    if (!consume('0')) digits();
    out.integer = true;
    if (consume('.')) {
      out.integer = false;
      if (!digits()) return error("bad number");
    }
    if (consume('e') || consume('E')) {
      out.integer = false;
      if (!consume('+')) consume('-');
      if (!digits()) return error("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number_value = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return rt::OkStatus();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

#undef GNNBRIDGE_JSON_TRY

}  // namespace

rt::Result<JsonValue> parse_json(std::string_view text) {
  Parser p(text);
  auto r = p.parse();
  if (!r.ok()) return rt::Status(r.status()).with_context("parse_json");
  return r;
}

rt::Result<JsonValue> parse_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return rt::Status(rt::StatusCode::kNotFound, "cannot open '" + path + "'")
        .with_context("parse_json_file");
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return rt::Status(rt::StatusCode::kUnavailable, "read error on '" + path + "'")
        .with_context("parse_json_file");
  }
  auto r = parse_json(text);
  if (!r.ok()) {
    return rt::Status(r.status()).with_context("parse_json_file('" + path + "')");
  }
  return r;
}

}  // namespace gnnbridge::prof
