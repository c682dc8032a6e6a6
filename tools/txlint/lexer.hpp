// txlint lexer: a dependency-free C++ token stream with full comment,
// string, raw-string (including encoding prefixes), and preprocessor
// handling, plus the txlint comment directives (allow / expect / scope).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model.hpp"

namespace txlint {

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Tok {
  TokKind kind;
  std::string text;  // punctuation is 1-2 chars ("::", "->", "(", ...)
  int line;
};

struct Lexed {
  std::vector<Tok> toks;
  // Quoted #include targets, as written ("veb/veb_core.hpp"). Pass 2
  // scopes call-graph name resolution by the include graph; system
  // includes (<...>) are ignored — their definitions are not in-tree.
  std::vector<std::string> includes;
  // line -> rules allowed on that line (suppression applies to its own
  // line and the one below, so `// txlint: allow(x)` above a statement
  // works). -1 == all rules.
  std::map<int, std::set<int>> allow;
  std::vector<std::pair<int, Rule>> expect;  // (line, rule) ground truth
  bool expect_none = false;
  bool has_expectations = false;
  // File carries `txlint-scope: ipc-client`: client side of the shm
  // transport; durable-core calls are flagged (ipc-client-nvm).
  bool ipc_client_scope = false;
};

bool ident_char(char c);

/// `path` names the file in directive warnings.
Lexed lex(const std::string& src, const std::string& path);

}  // namespace txlint
