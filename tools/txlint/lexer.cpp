#include "lexer.hpp"

#include <cstdio>
#include <sstream>
#include <string_view>

namespace txlint {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parse directives out of a comment's text (text excludes the // or /*).
// A directive counts only when it starts the trimmed comment body, so
// prose that mentions one (in backticks, mid-sentence) is just prose.
void parse_comment(std::string_view body, int line, const std::string& path,
                   Lexed* fx) {
  body = trim(body);
  constexpr std::string_view kAllow = "txlint: allow(";
  constexpr std::string_view kExpect = "txlint-expect:";
  constexpr std::string_view kScope = "txlint-scope:";
  auto warn = [&](const char* what, std::string_view name) {
    std::fprintf(stderr, "txlint: warning: %s:%d: unknown %s '%.*s'\n",
                 path.c_str(), line, what, static_cast<int>(name.size()),
                 name.data());
  };
  if (body.starts_with(kScope)) {
    auto name = trim(body.substr(kScope.size()));
    if (name == "ipc-client") {
      fx->ipc_client_scope = true;
    } else {
      warn("scope", name);
    }
  } else if (body.starts_with(kAllow)) {
    auto rest = body.substr(kAllow.size());
    auto close = rest.find(')');
    if (close != std::string_view::npos) {
      std::string list(rest.substr(0, close));
      std::stringstream ss(list);
      std::string item;
      while (std::getline(ss, item, ',')) {
        auto name = trim(item);
        Rule r;
        if (name == "*") {
          fx->allow[line].insert(-1);
        } else if (rule_from_name(name, &r)) {
          fx->allow[line].insert(static_cast<int>(r));
        } else {
          warn("rule in allow()", name);
        }
      }
    }
  } else if (body.starts_with(kExpect)) {
    auto name = trim(body.substr(kExpect.size()));
    fx->has_expectations = true;
    Rule r;
    if (name == "none") {
      fx->expect_none = true;
    } else if (rule_from_name(name, &r)) {
      fx->expect.emplace_back(line, r);
    } else {
      warn("rule in txlint-expect", name);
    }
  }
}

// A d-char per [lex.string]: any member of the basic character set
// except space, '(', ')', '\\', and the control characters. The 16-char
// length bound is also part of the grammar. Enforcing this is what keeps
// the delimiter scan from running off the end of a *non*-raw-string
// (e.g. an identifier `R` followed by an ordinary string) and swallowing
// unrelated code — the v1 lexer's brace-depth corruption bug.
bool dchar(char c) {
  return c != ' ' && c != '(' && c != ')' && c != '\\' && c != '"' &&
         static_cast<unsigned char>(c) > 0x1f;
}

}  // namespace

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

Lexed lex(const std::string& src, const std::string& path) {
  Lexed fx;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace so far on this line

  auto peek = [&](size_t off) -> char {
    return i + off < n ? src[i + off] : '\0';
  };

  // If position i starts a raw-string literal — `R"`, optionally behind
  // one of the encoding prefixes (u8, u, U, L) — consume it, update
  // `line`, push a single collapsed token, and return true. Returns
  // false (consuming nothing) when the text merely resembles one.
  auto try_raw_string = [&]() -> bool {
    size_t p = i;
    if (src[p] == 'u' && p + 1 < n && src[p + 1] == '8') {
      p += 2;
    } else if (src[p] == 'u' || src[p] == 'U' || src[p] == 'L') {
      p += 1;
    }
    if (p >= n || src[p] != 'R' || p + 1 >= n || src[p + 1] != '"') {
      return false;
    }
    size_t j = p + 2;
    std::string delim;
    while (j < n && dchar(src[j]) && delim.size() < 16) delim += src[j++];
    if (j >= n || src[j] != '(') return false;  // ill-formed; lex normally
    const std::string close = ")" + delim + "\"";
    const size_t end = src.find(close, j + 1);
    const size_t stop =
        end == std::string::npos ? n : end + close.size();
    for (size_t k = i; k < stop; ++k) {
      if (src[k] == '\n') ++line;
    }
    i = stop;
    fx.toks.push_back({TokKind::kString, "\"\"", line});
    return true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Preprocessor line (possibly continued with backslash-newline).
    if (c == '#' && at_line_start) {
      const size_t dir_start = i;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      // Record quoted #include targets for include-graph resolution.
      std::string_view dir(src.data() + dir_start, i - dir_start);
      dir.remove_prefix(1);  // '#'
      dir = trim(dir);
      constexpr std::string_view kInclude = "include";
      if (dir.substr(0, kInclude.size()) == kInclude) {
        dir = trim(dir.substr(kInclude.size()));
        if (!dir.empty() && dir.front() == '"') {
          auto close = dir.find('"', 1);
          if (close != std::string_view::npos && close > 1) {
            fx.includes.emplace_back(dir.substr(1, close - 1));
          }
        }
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && peek(1) == '/') {
      size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_comment(std::string_view(src).substr(start, i - start), line, path,
                    &fx);
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      size_t start = i + 2;
      int start_line = line;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      parse_comment(std::string_view(src).substr(start, i - start), start_line,
                    path, &fx);
      i = std::min(n, i + 2);
      continue;
    }
    // Raw strings, with or without an encoding prefix: R"d(...)d",
    // u8R"(...)", LR"(...)" — the whole literal collapses to one string
    // token so braces/parens/quotes inside it can never perturb
    // brace-depth tracking (transaction-body extents depend on it).
    if ((c == 'R' || c == 'u' || c == 'U' || c == 'L') && try_raw_string()) {
      continue;
    }
    // Strings and char literals.
    if (c == '"' || c == '\'') {
      const char q = c;
      size_t j = i + 1;
      while (j < n && src[j] != q) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // unterminated; keep line count sane
        ++j;
      }
      fx.toks.push_back(
          {q == '"' ? TokKind::kString : TokKind::kChar, "\"\"", line});
      i = std::min(n, j + 1);
      continue;
    }
    // Identifiers / keywords.
    if (ident_char(c) && !(c >= '0' && c <= '9')) {
      size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      fx.toks.push_back({TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Numbers (incl. hex, suffixes; pragmatic — consume ident chars and '.').
    if (c >= '0' && c <= '9') {
      size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      fx.toks.push_back({TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Two-char punctuation we care about; everything else single char.
    static const char* kTwo[] = {"::", "->", "&&", "||", "<<", ">>",
                                 "==", "!=", "<=", ">=", "+=", "-="};
    std::string p(1, c);
    for (const char* t : kTwo) {
      if (c == t[0] && peek(1) == t[1]) {
        p = t;
        break;
      }
    }
    fx.toks.push_back({TokKind::kPunct, p, line});
    i += p.size();
    continue;
  }
  return fx;
}

}  // namespace txlint
