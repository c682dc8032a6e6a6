// Minimal recursive-descent JSON reader (header-only, no dependencies).
// Used by txlint to load baseline.json and to structurally validate
// emitted SARIF — NOT a general-purpose
// parser: numbers are stored as double plus the raw text, and input is
// assumed to be reasonably sized (whole-document in memory).
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace txlint::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string raw;  // number literal text, or string contents
  std::vector<ValuePtr> arr;
  std::map<std::string, ValuePtr> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  const Value* get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : it->second.get();
  }
  const std::string& str() const { return raw; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(num); }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  /// Parse one document. Returns nullptr (and sets error()) on failure.
  ValuePtr parse() {
    ValuePtr v = value();
    if (v == nullptr) return nullptr;
    ws();
    if (i_ != s_.size()) {
      fail("trailing characters after document");
      return nullptr;
    }
    return v;
  }

  const std::string& error() const { return err_; }

 private:
  const std::string& s_;
  size_t i_ = 0;
  std::string err_;

  void fail(const std::string& what) {
    if (err_.empty()) {
      err_ = what + " at offset " + std::to_string(i_);
    }
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool lit(const char* word) {
    size_t len = 0;
    while (word[len] != '\0') ++len;
    if (s_.compare(i_, len, word) == 0) {
      i_ += len;
      return true;
    }
    return false;
  }

  ValuePtr value() {
    ws();
    if (i_ >= s_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (!lit("null")) {
        fail("bad literal");
        return nullptr;
      }
      return std::make_shared<Value>();
    }
    return number();
  }

  ValuePtr object() {
    ++i_;  // {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kObject;
    ws();
    if (eat('}')) return v;
    while (true) {
      ws();
      if (i_ >= s_.size() || s_[i_] != '"') {
        fail("expected object key");
        return nullptr;
      }
      std::string key;
      if (!string_raw(&key)) return nullptr;
      if (!eat(':')) {
        fail("expected ':'");
        return nullptr;
      }
      ValuePtr member = value();
      if (member == nullptr) return nullptr;
      v->obj[key] = std::move(member);
      if (eat(',')) continue;
      if (eat('}')) return v;
      fail("expected ',' or '}'");
      return nullptr;
    }
  }

  ValuePtr array() {
    ++i_;  // [
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kArray;
    ws();
    if (eat(']')) return v;
    while (true) {
      ValuePtr elem = value();
      if (elem == nullptr) return nullptr;
      v->arr.push_back(std::move(elem));
      if (eat(',')) continue;
      if (eat(']')) return v;
      fail("expected ',' or ']'");
      return nullptr;
    }
  }

  bool string_raw(std::string* out) {
    ++i_;  // "
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\' && i_ + 1 < s_.size()) {
        ++i_;
        const char e = s_[i_];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'u': {
            // \uXXXX: decode BMP code points to UTF-8 (enough for
            // txlint's own output, which is ASCII).
            if (i_ + 4 >= s_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned cp = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = s_[i_ + k];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= h - '0';
              else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            i_ += 4;
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            fail("unknown escape");
            return false;
        }
        ++i_;
        continue;
      }
      out->push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) {
      fail("unterminated string");
      return false;
    }
    ++i_;  // closing "
    return true;
  }

  ValuePtr string_value() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kString;
    if (!string_raw(&v->raw)) return nullptr;
    return v;
  }

  ValuePtr boolean() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kBool;
    if (lit("true")) {
      v->b = true;
      return v;
    }
    if (lit("false")) {
      v->b = false;
      return v;
    }
    fail("bad literal");
    return nullptr;
  }

  ValuePtr number() {
    const size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool any = false;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '-' || s_[i_] == '+')) {
      any = true;
      ++i_;
    }
    if (!any) {
      fail("expected value");
      return nullptr;
    }
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kNumber;
    v->raw = s_.substr(start, i_ - start);
    v->num = std::strtod(v->raw.c_str(), nullptr);
    return v;
  }
};

inline ValuePtr parse(const std::string& text, std::string* err = nullptr) {
  Parser p(text);
  ValuePtr v = p.parse();
  if (v == nullptr && err != nullptr) *err = p.error();
  return v;
}

}  // namespace txlint::json
