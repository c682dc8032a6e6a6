#include "analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string_view>

#include "lexer.hpp"

namespace txlint {
namespace {

// ---------------------------------------------------------------------------
// Operation vocabularies (see DESIGN.md §9 rule table)

// Operations that persist (or order persists) — illegal inside a tx body;
// the write-back belongs to the epoch advancer after commit (§4).
const std::set<std::string, std::less<>> kPersistCalls = {
    "clwb",       "clwb_nontxn",          "drain",
    "persist",    "flush_range_to_media", "flush_line_run_to_media",
    "pSet",       "pwb",                  "pfence",
    "psync",      "clflush",              "clflushopt",
    "sfence",     "msync",
};

// Allocation — must be hoisted before tx_begin (Table 2 preallocation).
const std::set<std::string, std::less<>> kAllocCalls = {
    "malloc",      "calloc",      "realloc", "aligned_alloc",
    "posix_memalign", "strdup",   "pNew",    "allocate",
    "make_unique", "make_shared",
};

// Durable-reclamation ordering — strictly post-commit (pDelete: abort path).
const std::set<std::string, std::less<>> kRetireCalls = {
    "pRetire",
    "pTrack",
    "pDelete",
};

// Irrevocable: syscalls/I-O, blocking locks, epoch-table mutation.
const std::set<std::string, std::less<>> kIrrevocableCalls = {
    "printf", "fprintf",  "puts",      "fputs",     "fwrite",
    "fread",  "fopen",    "fclose",    "fsync",     "open",
    "close",  "write",    "read",      "system",    "exit",
    "sleep",  "usleep",   "nanosleep", "sleep_for", "acquire",
    "lock",   "unlock",   "try_lock",  "beginOp",   "endOp",
    "abortOp",
};

// Observability emission (no-obs-in-tx, split from irrevocable-in-tx):
// trace-ring and histogram stores are speculative inside a transaction —
// an aborted transaction has already emitted the event — and the clock
// read can abort real HTM. Runtime mirror: BDHTM_CHECKED traps in
// obs::Histogram::record / trace emission.
const std::set<std::string, std::less<>> kObsCalls = {
    "trace_instant", "trace_complete", "trace_begin", "trace_end",
    "record",
};

// Bare identifiers (no call parens required) that are irrevocable.
const std::set<std::string, std::less<>> kIrrevocableIdents = {
    "cout",
    "cerr",
    "clog",
};

// Durable-core entry points forbidden anywhere in a file marked
// `// txlint-scope: ipc-client` (DESIGN.md §12).
const std::set<std::string, std::less<>> kIpcClientForbidden = {
    "pNew",   "pRetire", "pDelete", "pTrack",
    "pSet",   "beginOp", "endOp",   "abortOp",
};

// Identifiers that head call-like syntax but are never call-graph edges:
// control flow, casts, operators — traversing them would only add noise.
const std::set<std::string, std::less<>> kNotCallees = {
    "if",        "while",       "for",         "switch",
    "catch",     "sizeof",      "alignof",     "alignas",
    "decltype",  "static_assert", "assert",    "typeid",
    "noexcept",  "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "defined",    "__builtin_expect",
    // Ubiquitous container/utility member names: in practice these
    // resolve to STL members, and a same-named in-tree definition
    // (e.g. a structure's find/insert, which wraps its own elide) is an
    // operation-level entry point, not an in-tx helper. Terminal.
    "find",      "insert",      "erase",       "emplace",
    "emplace_back", "push_back", "pop_back",   "push",
    "pop",       "top",         "front",       "back",
    "begin",     "end",         "size",        "empty",
    "clear",     "reserve",     "resize",      "at",
    "count",     "contains",    "substr",      "append",
    "c_str",     "data",        "str",         "swap",
    "reset",     "get",         "min",         "max",
    "load",      "store",       "store_nvm",   "exchange",
    "fetch_add", "fetch_sub",   "fetch_or",    "fetch_and",
    "compare_exchange_weak",    "compare_exchange_strong",
    "wait",      "notify_one",  "notify_all",
};

// Definitions transaction context is never propagated INTO: the HTM
// entry wrappers. Context originates at their *lambdas* (handled by the
// elide-argument/Txn-parameter detection); treating the retry/engine
// machinery itself as an in-tx callee manufactures chains through
// fallback bookkeeping that never runs speculatively.
const std::set<std::string, std::less<>> kNoPropagateInto = {
    "elide",
    "run",
};

// Declaration-introducer identifiers that cannot be the *type* token of a
// `Type name` local-variable declaration (keeps local detection honest).
const std::set<std::string, std::less<>> kNotTypeHeads = {
    "return", "else",   "delete", "new",      "throw",    "case",
    "goto",   "using",  "namespace", "struct", "class",   "enum",
    "public", "private", "protected", "template", "typename",
    "operator", "break", "continue", "do",     "co_return", "co_await",
    "if",     "while",  "for",    "switch",   "catch",    "sizeof",
};

bool is_op_name(const std::string& name) {
  return kPersistCalls.count(name) || kAllocCalls.count(name) ||
         kRetireCalls.count(name) || kIrrevocableCalls.count(name) ||
         kObsCalls.count(name);
}

// ---------------------------------------------------------------------------
// Pass 1

struct Pass1 {
  const std::string& path;
  const Lexed& fx;
  FileModel& out;

  const std::vector<Tok>& toks;
  std::vector<int> match;  // matching bracket index, -1 if none

  // Blocks on the brace stack.
  struct Block {
    bool tx = false;           // lexically inside a transaction body
    bool fn = false;           // a function/lambda body (own return scope)
    bool fn_top = false;       // outermost function body: epoch balancing unit
    bool tx_begin_region = false;  // saw qualified tx_begin, awaiting commit
    bool tx_accessed = false;  // tracked access seen since this tx began
    int open_ops = 0;          // beginOp minus endOp/abortOp (fn_top only)
    int first_begin_line = 0;
    bool unbalanced_reported = false;
    std::string name;
    int def_index = -1;        // index into out.defs when fn
    // Where this block's transaction context began — the first frame of
    // a lexical finding's code flow. Only set on the block that
    // *introduced* the context (not inheritors).
    int tx_origin_line = 0;
    std::string tx_origin_what;
    // Stripe-index literals this function body currently holds via
    // acquire_stripe(<literal>) — the lexical mirror of the runtime
    // held-mask check (fn blocks only; non-literal indices are opaque).
    std::set<long> stripes_held;
    // Dataflow state (fn blocks only): pNew-tainted locals (allocated
    // but not yet captured/published) and plain local declarations.
    std::map<std::string, int> pnew_tainted;  // var -> pNew line
    std::map<std::string, int> locals;        // var -> decl line
  };
  std::vector<Block> blocks;
  // Paren stack: per open argument list, whether it belongs to an elide
  // call / a store_nvm call.
  struct ParenCtx {
    bool elide = false;
    bool store_nvm = false;
  };
  std::vector<ParenCtx> parens;
  // Lambda bodies resolved by lookahead: brace index -> tx flag.
  std::map<int, bool> lambda_brace;

  Pass1(const std::string& p, const Lexed& f, FileModel& o)
      : path(p), fx(f), out(o), toks(f.toks) {
    compute_matches();
  }

  void compute_matches() {
    match.assign(toks.size(), -1);
    std::vector<size_t> stack;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kPunct) continue;
      const std::string& t = toks[i].text;
      if (t == "(" || t == "{" || t == "[") {
        stack.push_back(i);
      } else if (t == ")" || t == "}" || t == "]") {
        // Pop until we find the partner kind; tolerates template `<`-free
        // imbalance from macros.
        const char want = t == ")" ? '(' : t == "}" ? '{' : '[';
        while (!stack.empty() && toks[stack.back()].text[0] != want) {
          stack.pop_back();
        }
        if (!stack.empty()) {
          match[stack.back()] = static_cast<int>(i);
          match[i] = static_cast<int>(stack.back());
          stack.pop_back();
        }
      }
    }
  }

  bool tok_is(int i, std::string_view s) const {
    return i >= 0 && i < static_cast<int>(toks.size()) && toks[i].text == s;
  }
  bool tok_ident(int i) const {
    return i >= 0 && i < static_cast<int>(toks.size()) &&
           toks[i].kind == TokKind::kIdent;
  }

  // Heuristic: if token i (an identifier) heads a call expression, return
  // the index of the call's `(`; else -1. A call may carry an explicit
  // template argument list (`pNew<Node>(...)`). Not a call when it looks
  // like a declaration (type token right before the name) or a function
  // definition (`{`/const/noexcept/-> after the closing paren).
  int call_open_paren(int i) const {
    const int nt = static_cast<int>(toks.size());
    int p = i - 1;
    if (tok_is(p, "::")) p -= 2;  // skip one level of qualification
    if (p >= 0 && (toks[p].kind == TokKind::kIdent || toks[p].text == ">" ||
                   toks[p].text == "*" || toks[p].text == "&")) {
      // `uint64_t beginOp(` — a declaration... unless the preceding token
      // is a keyword that introduces expressions.
      static const std::set<std::string, std::less<>> kExprKw = {
          "return", "co_return", "co_await", "throw", "else", "do",
      };
      if (toks[p].kind != TokKind::kIdent || !kExprKw.count(toks[p].text)) {
        return -1;
      }
    }
    int open = i + 1;
    if (tok_is(open, "<")) {
      // Explicit template arguments: balanced-skip to the matching `>`
      // (the lexer folds `>>`, which closes two levels).
      int depth = 1;
      int j = open + 1;
      int guard = 0;
      while (j < nt && depth > 0 && guard++ < 64) {
        const std::string& t = toks[j].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          --depth;
        } else if (t == ">>") {
          depth -= 2;
        } else if (t == ";" || t == "{" || t == "}") {
          return -1;  // was a comparison, not template args
        }
        ++j;
      }
      if (depth > 0) return -1;
      open = j;
    }
    if (open >= nt || toks[open].text != "(" || match[open] < 0) return -1;
    const int after = match[open] + 1;
    if (after < nt) {
      const std::string& a = toks[after].text;
      if (a == "{" || a == "const" || a == "noexcept" || a == "->" ||
          a == "override" || a == "final") {
        return -1;  // function definition, not a call
      }
    }
    return open;
  }

  bool suppressed(int line, Rule r) const {
    for (int l : {line, line - 1}) {
      auto it = fx.allow.find(l);
      if (it == fx.allow.end()) continue;
      if (it->second.count(-1) || it->second.count(static_cast<int>(r))) {
        return true;
      }
    }
    return false;
  }

  // Direct (lexical) finding. `lead` frames precede the violation site in
  // the code flow; pass {} for single-frame findings.
  void report(int line, Rule r, const std::string& what,
              std::vector<Frame> lead = {}) {
    Finding f;
    f.file = path;
    f.line = line;
    f.rule = r;
    f.message = what;
    f.suppressed = suppressed(line, r);
    f.path = std::move(lead);
    f.path.push_back({path, line, what});
    out.direct.push_back(std::move(f));
  }

  // The frame describing where the current lexical transaction context
  // was entered (outermost tx block on the stack).
  Frame tx_origin_frame() const {
    for (const Block& b : blocks) {
      if (b.tx || b.tx_begin_region) {
        return {path, b.tx_origin_line,
                b.tx_origin_what.empty() ? "transaction body"
                                         : b.tx_origin_what};
      }
    }
    return {path, 0, "transaction body"};
  }

  // Scan a parameter list `(`..`)` for the accessor/transaction markers.
  bool params_mark_tx(int open) const {
    if (open < 0 || match[open] < 0) return false;
    for (int j = open + 1; j < match[open]; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const std::string& t = toks[j].text;
      if (t == "Txn" || t == "Acc") return true;
      // `auto& acc` in generic accessor lambdas — but not the `acc::`
      // namespace qualifier of a type (acc::NontxAccess& na).
      if (t == "acc" && !tok_is(j + 1, "::") &&
          (tok_is(j - 1, "&") || tok_is(j - 1, "*"))) {
        return true;
      }
    }
    return false;
  }

  bool in_tx() const {
    for (const Block& b : blocks) {
      if (b.tx || b.tx_begin_region) return true;
    }
    return false;
  }
  // The block that carries the current transaction scope (tx bodies do
  // not nest in this codebase; the outermost tx block owns the
  // accessed-before-subscribe state).
  Block* tx_block() {
    for (Block& b : blocks) {
      if (b.tx || b.tx_begin_region) return &b;
    }
    return nullptr;
  }
  Block* innermost_fn() {
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
      if (it->fn) return &*it;
    }
    return nullptr;
  }
  Block* fn_top() {
    for (Block& b : blocks) {
      if (b.fn_top) return &b;
    }
    return nullptr;
  }
  FuncDef* cur_def() {
    Block* f = innermost_fn();
    return f != nullptr && f->def_index >= 0 ? &out.defs[f->def_index]
                                             : nullptr;
  }

  // Record an op that is a violation iff executed under tx context: emit
  // a direct finding when lexically in tx, otherwise park it as a
  // CtxEvent for pass-2 propagation.
  void ctx_op(Rule r, int line, const std::string& message) {
    if (in_tx()) {
      report(line, r, message, {tx_origin_frame()});
    } else if (FuncDef* d = cur_def()) {
      d->events.push_back({r, line, message});
    }
  }

  void record_call(const std::string& name, int line) {
    FuncDef* d = cur_def();
    if (d == nullptr) return;
    if (kNotCallees.count(name)) return;
    int held = -1;
    if (Block* f = innermost_fn(); f != nullptr && !f->stripes_held.empty()) {
      held = static_cast<int>(*f->stripes_held.rbegin());
    }
    d->calls.push_back({name, line, in_tx(), held});
  }

  // Remove pNew taint from every identifier appearing in [from, to) —
  // used when a tainted pointer is passed to a call (the callee may
  // capture/track it; stay conservative to avoid false positives).
  void untaint_range(Block* f, int from, int to) {
    if (f == nullptr || f->pnew_tainted.empty()) return;
    for (int j = from; j < to; ++j) {
      if (toks[j].kind == TokKind::kIdent) f->pnew_tainted.erase(toks[j].text);
    }
  }

  // Split a call's argument list into top-level comma-separated ranges.
  std::vector<std::pair<int, int>> arg_ranges(int open) const {
    std::vector<std::pair<int, int>> out_ranges;
    if (match[open] < 0) return out_ranges;
    int depth = 0;
    int start = open + 1;
    for (int j = open + 1; j < match[open]; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0 && t == ",") {
        out_ranges.emplace_back(start, j);
        start = j + 1;
      }
    }
    if (start < match[open]) out_ranges.emplace_back(start, match[open]);
    return out_ranges;
  }

  void run() {
    const int nt = static_cast<int>(toks.size());
    for (int i = 0; i < nt; ++i) {
      const Tok& tk = toks[i];

      if (tk.kind == TokKind::kPunct) {
        handle_punct(i);
        continue;
      }
      if (tk.kind != TokKind::kIdent) continue;
      handle_ident(i);
    }
  }

  void handle_punct(int i) {
    const Tok& tk = toks[i];
    const int nt = static_cast<int>(toks.size());
    if (tk.text == "(") {
      ParenCtx pc;
      // Call head directly before `(`, walking back over a template
      // argument list (flat scan; explicit args are simple types here).
      int h = i - 1;
      if (tok_is(h, ">")) {
        int depth = 1;
        int j = h - 1;
        while (j >= 0 && depth > 0 && h - j < 64) {
          if (toks[j].text == ">") ++depth;
          if (toks[j].text == "<") --depth;
          --j;
        }
        if (depth == 0) h = j;
      }
      if (h >= 0 && toks[h].kind == TokKind::kIdent) {
        if (toks[h].text == "elide") pc.elide = true;
        if (toks[h].text == "store_nvm") pc.store_nvm = true;
      }
      parens.push_back(pc);
    } else if (tk.text == ")") {
      if (!parens.empty()) parens.pop_back();
    } else if (tk.text == "&") {
      // escape-unpersisted-stack, channel 1: &local used as an argument
      // of a store_nvm(...) call — the stack address becomes the durable
      // value. `&local->field` / `&local.field` is the address of the
      // *pointee*, not the stack, and is skipped.
      bool in_store_nvm = false;
      for (const ParenCtx& pc : parens) in_store_nvm |= pc.store_nvm;
      if (in_store_nvm && tok_ident(i + 1) &&
          (tok_is(i - 1, "(") || tok_is(i - 1, ","))) {
        const std::string& v = toks[i + 1].text;
        const bool plain = !tok_is(i + 2, "->") && !tok_is(i + 2, ".") &&
                           !tok_is(i + 2, "[");
        Block* f = innermost_fn();
        if (plain && f != nullptr && f->locals.count(v)) {
          report(toks[i].line, Rule::kEscapeUnpersistedStack,
                 "address of stack object '" + v +
                     "' stored into an NVM-resident field (dangles after "
                     "crash recovery)",
                 {{path, f->locals[v], "'" + v + "' declared on the stack"}});
          f->locals.erase(v);  // one finding per object
        }
      }
    } else if (tk.text == "[") {
      // Lambda-introducer position: not subscripting (prev is not a
      // value-producing token).
      int p = i - 1;
      bool subscript = p >= 0 && (toks[p].kind == TokKind::kIdent ||
                                  toks[p].kind == TokKind::kNumber ||
                                  toks[p].text == ")" || toks[p].text == "]");
      if (p >= 0 && toks[p].kind == TokKind::kIdent) {
        // `return [..]` / `= [..]` style keywords still introduce.
        if (toks[p].text == "return") subscript = false;
      }
      if (!subscript && match[i] >= 0) {
        int j = match[i] + 1;  // after capture list
        bool tx_params = false;
        if (j < nt && toks[j].text == "(") {
          tx_params = params_mark_tx(j);
          if (match[j] >= 0) j = match[j] + 1;
        }
        // Skip specifiers / trailing return type up to the body brace.
        int guard = 0;
        while (j < nt && toks[j].text != "{" && guard++ < 64) {
          if (toks[j].text == ";" || toks[j].text == ")") break;
          ++j;
        }
        if (j < nt && toks[j].text == "{") {
          bool in_elide = false;
          for (const ParenCtx& pc : parens) in_elide |= pc.elide;
          lambda_brace[j] = tx_params || in_elide;
        }
      }
    } else if (tk.text == "{") {
      open_block(i);
    } else if (tk.text == "}") {
      close_block();
    }
  }

  void open_block(int i) {
    Block b;
    // Inherit transaction scope lexically.
    for (const Block& e : blocks) {
      if (e.tx || e.tx_begin_region) b.tx = true;
    }
    bool fresh_tx = false;
    if (auto it = lambda_brace.find(i); it != lambda_brace.end()) {
      b.fn = true;
      fresh_tx = it->second && !b.tx;
      b.tx = b.tx || it->second;
      b.name = "<lambda>";
      if (fresh_tx) {
        b.tx_origin_line = toks[i].line;
        b.tx_origin_what = "transaction body (lambda)";
      }
      if (!fn_top()) b.fn_top = true;
    } else {
      // Function definition? Look back for `) {` (allowing const/
      // noexcept/override between).
      int p = i - 1;
      int guard = 0;
      while (p >= 0 && toks[p].kind == TokKind::kIdent &&
             (toks[p].text == "const" || toks[p].text == "noexcept" ||
              toks[p].text == "override" || toks[p].text == "final" ||
              toks[p].text == "mutable") &&
             guard++ < 8) {
        --p;
      }
      if (p >= 0 && toks[p].text == ")" && match[p] >= 0) {
        const int open = match[p];
        int head = open - 1;
        if (head >= 0 && toks[head].kind == TokKind::kIdent) {
          static const std::set<std::string, std::less<>> kCtl = {
              "if", "while", "for", "switch", "catch"};
          if (!kCtl.count(toks[head].text)) {
            b.fn = true;
            b.name = toks[head].text;
            if (!fn_top()) b.fn_top = true;
            if (params_mark_tx(open) && !b.tx) {
              b.tx = true;
              b.tx_origin_line = toks[i].line;
              b.tx_origin_what =
                  "transaction/accessor body '" + b.name + "'";
            }
          }
        }
      }
    }
    if (b.fn) {
      FuncDef d;
      d.name = b.name;
      d.file = path;
      d.line = toks[i].line;
      d.tx_root = b.tx;
      d.is_lambda = b.name == "<lambda>";
      b.def_index = static_cast<int>(out.defs.size());
      out.defs.push_back(std::move(d));
    }
    blocks.push_back(std::move(b));
  }

  void close_block() {
    if (blocks.empty()) return;
    Block b = blocks.back();
    blocks.pop_back();
    if (b.fn_top && b.open_ops > 0 && !b.unbalanced_reported) {
      report(b.first_begin_line, Rule::kUnbalancedEpochOp,
             "beginOp in '" + b.name +
                 "' has no matching endOp/abortOp on some path");
    }
  }

  void handle_ident(int i) {
    const Tok& tk = toks[i];

    // Returning while an epoch operation is open leaks the epoch
    // reservation — the advancer can never pass this thread's epoch.
    // Only a `return` in the balancing unit itself counts (a nested
    // lambda's return does not exit the enclosing operation).
    if (tk.text == "return") {
      Block* top = fn_top();
      if (top != nullptr && top->open_ops > 0 && innermost_fn() == top) {
        report(tk.line, Rule::kUnbalancedEpochOp,
               "return from '" + top->name +
                   "' while an epoch operation is open (missing "
                   "endOp/abortOp on this path)");
        top->unbalanced_reported = true;
      }
      return;
    }

    // Bare irrevocable identifiers (std::cout etc.).
    if (kIrrevocableIdents.count(tk.text)) {
      ctx_op(Rule::kIrrevocableInTx, tk.line,
             "'" + tk.text + "' stream I/O inside a transaction body");
      return;
    }

    // `new` / `delete` expressions.
    if (tk.text == "new" || tk.text == "delete") {
      int p = i - 1;
      // `operator new` declarations and `= delete`d functions are not
      // allocation expressions (`x = new T` is — only `delete` can
      // directly follow `=` in a declaration context).
      const bool op_decl = tok_is(p, "operator") ||
                           (tk.text == "delete" && tok_is(p, "="));
      const bool member = p >= 0 && (toks[p].text == "." ||
                                     toks[p].text == "->" ||
                                     toks[p].text == "::");
      if (!op_decl && !member) {
        ctx_op(Rule::kAllocInTx, tk.line,
               "'" + tk.text +
                   "' expression inside a transaction body (preallocate "
                   "before tx_begin; reclaim after commit)");
      }
      return;
    }

    // Local-declaration detection for escape-unpersisted-stack:
    // `Type name =|;` and `Type * name =|;`, skipping member accesses.
    if (Block* f = innermost_fn(); f != nullptr) {
      // `ns::Type name` keeps the trailing type component as the head;
      // only member-access chains (`.`/`->`) disqualify the position.
      if (!kNotTypeHeads.count(tk.text) && !tok_is(i - 1, ".") &&
          !tok_is(i - 1, "->")) {
        int v = -1;
        if (tok_ident(i + 1) &&
            (tok_is(i + 2, "=") || tok_is(i + 2, ";"))) {
          v = i + 1;
        } else if (tok_is(i + 1, "*") && tok_ident(i + 2) &&
                   (tok_is(i + 3, "=") || tok_is(i + 3, ";"))) {
          v = i + 2;
        }
        if (v >= 0 && !kNotTypeHeads.count(toks[v].text)) {
          f->locals.emplace(toks[v].text, toks[v].line);
        }
      }
    }

    // publish-before-persist, assignment channel: `lhs = taintedVar;`
    // where lhs dereferences memory (member store / pointer store). A
    // store inside a transaction is captured by the write-set on commit
    // and is the sanctioned Listing-1 publish; a raw store outside any
    // transaction makes the pointer durable while the block's lines have
    // never entered the epoch write-set.
    if (Block* f = innermost_fn();
        f != nullptr && f->pnew_tainted.count(tk.text) &&
        tok_is(i - 1, "=") && tok_is(i + 1, ";")) {
      const int eq = i - 1;
      const bool member_store =
          tok_ident(eq - 1) && (tok_is(eq - 2, "->") || tok_is(eq - 2, "."));
      // `*p = x;` — statement starts with a deref.
      const bool deref_store =
          tok_ident(eq - 1) && tok_is(eq - 2, "*") &&
          (tok_is(eq - 3, ";") || tok_is(eq - 3, "{") || tok_is(eq - 3, "}"));
      if (member_store || deref_store) {
        const int pnew_line = f->pnew_tainted[tk.text];
        if (!in_tx()) {
          report(tk.line, Rule::kPublishBeforePersist,
                 "pNew'd block '" + tk.text +
                     "' linked reachable outside any transaction before "
                     "its lines entered the epoch write-set "
                     "(pSet/pTrack/transactional capture must intervene)",
                 {{path, pnew_line, "'" + tk.text + "' allocated by pNew"}});
        }
        f->pnew_tainted.erase(tk.text);
        return;
      }
    }

    // escape-unpersisted-stack, channel 2: `tainted->field = &local;` —
    // the base object is pNew'd NVM, so the field is NVM-resident.
    if (tok_is(i - 1, "&") && tok_is(i - 2, "=") && tok_is(i + 1, ";")) {
      Block* f = innermost_fn();
      if (f != nullptr && f->locals.count(tk.text) && tok_ident(i - 3) &&
          (tok_is(i - 4, "->") || tok_is(i - 4, ".")) && tok_ident(i - 5) &&
          f->pnew_tainted.count(toks[i - 5].text)) {
        report(tk.line, Rule::kEscapeUnpersistedStack,
               "address of stack object '" + tk.text +
                   "' stored into NVM-resident field of pNew'd block '" +
                   toks[i - 5].text + "'",
               {{path, f->locals[tk.text],
                 "'" + tk.text + "' declared on the stack"}});
        f->locals.erase(tk.text);
        return;
      }
    }

    const int open = call_open_paren(i);
    if (open < 0) return;
    const std::string& name = tk.text;
    const bool qualified = tok_is(i - 1, "::");

    // ipc-client-nvm: in a `txlint-scope: ipc-client` file, NO durable
    // -core call is reachable, transaction body or not — the remote
    // client process owns no NVM state (DESIGN.md §12).
    if (fx.ipc_client_scope && kIpcClientForbidden.count(name)) {
      report(tk.line, Rule::kIpcClientNvm,
             "'" + name +
                 "' (durable-core entry point) in ipc-client scope: the "
                 "shm transport's client side must stay NVM-free");
      return;
    }

    // Fallback protocol (fallback-stripe-order, two obligations):
    //
    // 1. A tracked access before the subscription leaves a window where
    //    a fallback holder slips between the access and the (late)
    //    subscribe. Tracked accesses are the tx/acc member calls; the
    //    subscription must be the body's first tracked interaction.
    if ((tok_is(i - 1, ".") || tok_is(i - 1, "->")) &&
        (tok_is(i - 2, "tx") || tok_is(i - 2, "acc"))) {
      if (Block* tb = tx_block()) {
        if (name == "load" || name == "store" || name == "store_nvm" ||
            name == "read" || name == "write") {
          tb->tx_accessed = true;
        }
      }
    }
    if (name == "subscribe") {
      if (Block* tb = tx_block(); tb != nullptr && tb->tx_accessed) {
        report(tk.line, Rule::kFallbackStripeOrder,
               "'subscribe' after the transaction already made a tracked "
               "access (the subscription must cover the footprint before "
               "it is touched)",
               {tx_origin_frame()});
      }
      return;
    }
    // 2. Stripes must be acquired in ascending index order (the
    //    canonical order — any holder acquiring a lower stripe while
    //    holding a higher one can deadlock against a canonical peer).
    //    Mirrors the runtime held-mask check for literal indices. The
    //    interprocedural half (caller-held stripes flowing into callees)
    //    lives in pass 2, fed by the StripeAcq records made here.
    if (name == "acquire_stripe" || name == "release_stripe") {
      long lit = -1;
      if (match[open] == open + 2 && toks[open + 1].kind == TokKind::kNumber) {
        lit = std::strtol(toks[open + 1].text.c_str(), nullptr, 0);
      }
      if (Block* f = innermost_fn(); f != nullptr && lit >= 0) {
        if (name == "acquire_stripe") {
          const int held_before =
              f->stripes_held.empty()
                  ? -1
                  : static_cast<int>(*f->stripes_held.rbegin());
          if (held_before >= 0 && held_before >= lit) {
            report(tk.line, Rule::kFallbackStripeOrder,
                   "'acquire_stripe(" + toks[open + 1].text +
                       ")' while already holding stripe " +
                       std::to_string(held_before) +
                       " (stripes must be acquired in ascending order)");
          }
          if (FuncDef* d = cur_def()) {
            d->stripe_acqs.push_back(
                {static_cast<int>(lit), tk.line, held_before});
          }
          f->stripes_held.insert(lit);
        } else {
          f->stripes_held.erase(lit);
        }
      }
      return;
    }

    // tx_begin/tx_commit regions (only qualified uses — the emulation's
    // own definitions in htm/engine are not call sites).
    if (qualified && name == "tx_begin") {
      Block* holder = innermost_fn();
      if (holder == nullptr && !blocks.empty()) holder = &blocks.back();
      if (holder != nullptr) {
        holder->tx_begin_region = true;
        holder->tx_origin_line = tk.line;
        holder->tx_origin_what = "tx_begin region";
      }
      if (FuncDef* d = cur_def()) d->starts_tx = true;
      return;
    }
    if (name == "elide") {
      if (FuncDef* d = cur_def()) d->starts_tx = true;
    }
    if (name == "tx_commit" || name == "tx_abort") {
      for (auto& b : blocks) b.tx_begin_region = false;
      return;
    }

    // publish-before-persist dataflow bookkeeping. pNew taints the
    // variable it initializes; passing the variable to any call is a
    // conservative capture (pTrack/pDelete/pSet-into-block included);
    // pSet is special-cased: its FIRST argument writes INTO the block
    // (capture), but a tainted pointer in a later argument is being
    // stored AS DATA — a publish while the block is virgin.
    Block* f = innermost_fn();
    if (name == "pNew") {
      int j = i - 1;
      if (tok_is(j, ".") || tok_is(j, "->") || tok_is(j, "::")) j -= 2;
      if (tok_is(j, "=") && tok_ident(j - 1) && f != nullptr) {
        f->pnew_tainted[toks[j - 1].text] = tk.line;
      }
    } else if (name == "pSet" && f != nullptr && !f->pnew_tainted.empty()) {
      auto args = arg_ranges(open);
      for (size_t a = 0; a < args.size(); ++a) {
        for (int j = args[a].first; j < args[a].second; ++j) {
          if (toks[j].kind != TokKind::kIdent) continue;
          auto it = f->pnew_tainted.find(toks[j].text);
          if (it == f->pnew_tainted.end()) continue;
          if (a >= 1 && !in_tx()) {
            report(toks[j].line, Rule::kPublishBeforePersist,
                   "pNew'd block '" + toks[j].text +
                       "' published via pSet before its lines entered the "
                       "epoch write-set (pSet/pTrack the block first)",
                   {{path, it->second,
                     "'" + toks[j].text + "' allocated by pNew"}});
          }
          f->pnew_tainted.erase(it);
        }
      }
    } else if (!is_op_name(name)) {
      untaint_range(f, open + 1, match[open]);
    } else {
      untaint_range(f, open + 1, match[open]);
    }

    const bool tx = in_tx();

    if (kPersistCalls.count(name)) {
      ctx_op(Rule::kPersistInTx, tk.line,
             "'" + name +
                 "' inside a transaction body (buffered durability "
                 "defers persists to the epoch advancer)");
      return;
    }
    if (kAllocCalls.count(name)) {
      ctx_op(Rule::kAllocInTx, tk.line,
             "'" + name +
                 "' inside a transaction body (preallocate before "
                 "tx_begin)");
      return;
    }
    if (kRetireCalls.count(name)) {
      ctx_op(Rule::kRetireBeforeCommit, tk.line,
             "'" + name +
                 "' inside a transaction body (durable reclamation is "
                 "ordered strictly after commit)");
      return;
    }
    if (name == "beginOp" || name == "endOp" || name == "abortOp") {
      if (tx) {
        report(tk.line, Rule::kIrrevocableInTx,
               "'" + name +
                   "' mutates the epoch table inside a transaction body",
               {tx_origin_frame()});
      } else {
        if (FuncDef* d = cur_def()) {
          d->events.push_back(
              {Rule::kIrrevocableInTx, tk.line,
               "'" + name +
                   "' mutates the epoch table inside a transaction body"});
        }
        if (Block* top = fn_top()) {
          if (name == "beginOp") {
            if (top->open_ops == 0) top->first_begin_line = tk.line;
            top->open_ops++;
          } else {
            top->open_ops--;
          }
        }
      }
      return;
    }
    if (kObsCalls.count(name)) {
      ctx_op(Rule::kNoObsInTx, tk.line,
             "'" + name +
                 "' emits observability data inside a transaction body "
                 "(speculative stores leak on abort; sample before "
                 "tx_begin or after commit)");
      return;
    }
    if (kIrrevocableCalls.count(name)) {
      ctx_op(Rule::kIrrevocableInTx, tk.line,
             "'" + name +
                 "' is irrevocable inside a transaction body (cannot be "
                 "rolled back on abort)");
      return;
    }

    // An ordinary call: a call-graph edge for pass 2.
    record_call(name, tk.line);
  }
};

}  // namespace

FileModel analyze_file(const std::string& path, const std::string& src) {
  FileModel fm;
  fm.path = path;
  Lexed fx = lex(src, path);
  fm.includes = fx.includes;
  fm.ipc_client_scope = fx.ipc_client_scope;
  fm.allow = fx.allow;
  fm.expect = fx.expect;
  fm.expect_none = fx.expect_none;
  fm.has_expectations = fx.has_expectations;
  Pass1 p1(path, fx, fm);
  p1.run();
  return fm;
}

// ---------------------------------------------------------------------------
// Pass 2

namespace {

struct DefRef {
  int file = 0;
  int def = 0;
};
bool operator<(const DefRef& a, const DefRef& b) {
  return a.file != b.file ? a.file < b.file : a.def < b.def;
}

struct CtxState {
  bool in_ctx = false;
  // Witness for path reconstruction: the caller def (or -1/-1 for a
  // lexical origin) and the call line in the caller's file.
  DefRef parent{-1, -1};
  int call_line = 0;
  // Interprocedural stripes: largest literal stripe that can be held by
  // some caller chain when this def is entered; -1 = none known.
  int entry_max_stripe = -1;
  DefRef stripe_parent{-1, -1};
  int stripe_call_line = 0;
};

}  // namespace

std::vector<Finding> Program::run() {
  std::vector<Finding> findings;

  // Collect direct findings.
  for (const FileModel& fm : files_) {
    findings.insert(findings.end(), fm.direct.begin(), fm.direct.end());
  }

  // Name -> candidate definitions (overload sets by name, conservative).
  std::map<std::string, std::vector<DefRef>, std::less<>> by_name;
  for (int fi = 0; fi < static_cast<int>(files_.size()); ++fi) {
    const auto& defs = files_[fi].defs;
    for (int di = 0; di < static_cast<int>(defs.size()); ++di) {
      if (!defs[di].is_lambda) by_name[defs[di].name].push_back({fi, di});
    }
  }

  // Include-graph visibility: a call site in file A resolves to a
  // definition in file B only when B is transitively #include-reachable
  // from A, or B is the .cpp twin (same path stem) of a reachable
  // header. Name-only resolution across unrelated translation units —
  // e.g. two backends sharing an API surface — is pure noise.
  const int nf = static_cast<int>(files_.size());
  auto suffix_match = [](const std::string& path, const std::string& inc) {
    if (path.size() < inc.size()) return false;
    if (path.compare(path.size() - inc.size(), inc.size(), inc) != 0) {
      return false;
    }
    return path.size() == inc.size() ||
           path[path.size() - inc.size() - 1] == '/';
  };
  auto stem = [](const std::string& p) {
    auto dot = p.rfind('.');
    return dot == std::string::npos ? p : p.substr(0, dot);
  };
  auto is_source = [](const std::string& p) {
    auto dot = p.rfind('.');
    if (dot == std::string::npos) return false;
    const std::string ext = p.substr(dot);
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx";
  };
  // reach[i][j]: file j's text is visible from file i via includes.
  std::vector<std::vector<bool>> reach(nf, std::vector<bool>(nf, false));
  for (int i = 0; i < nf; ++i) {
    std::deque<int> q{i};
    reach[i][i] = true;
    while (!q.empty()) {
      const int cur = q.front();
      q.pop_front();
      for (const std::string& inc : files_[cur].includes) {
        for (int j = 0; j < nf; ++j) {
          if (!reach[i][j] && suffix_match(files_[j].path, inc)) {
            reach[i][j] = true;
            q.push_back(j);
          }
        }
      }
    }
    // A reachable header exposes its .cpp twin's definitions.
    for (int j = 0; j < nf; ++j) {
      if (reach[i][j] || !is_source(files_[j].path)) continue;
      const std::string s = stem(files_[j].path);
      for (int k = 0; k < nf; ++k) {
        if (reach[i][k] && k != j && stem(files_[k].path) == s) {
          reach[i][j] = true;
          break;
        }
      }
    }
  }
  auto visible = [&](int caller_file, DefRef target) {
    return reach[caller_file][target.file];
  };

  std::map<DefRef, CtxState> state;
  auto def_of = [&](DefRef r) -> const FuncDef& {
    return files_[r.file].defs[r.def];
  };

  // ---- Transaction-context propagation ----
  std::deque<DefRef> work;
  auto mark_ctx = [&](DefRef target, DefRef parent, int call_line) {
    CtxState& st = state[target];
    if (st.in_ctx) return;
    st.in_ctx = true;
    st.parent = parent;
    st.call_line = call_line;
    work.push_back(target);
  };

  for (int fi = 0; fi < static_cast<int>(files_.size()); ++fi) {
    const auto& defs = files_[fi].defs;
    for (int di = 0; di < static_cast<int>(defs.size()); ++di) {
      for (const CallSite& c : defs[di].calls) {
        if (!c.lexically_in_tx) continue;
        if (kNoPropagateInto.count(c.callee)) continue;
        auto it = by_name.find(c.callee);
        if (it == by_name.end()) continue;
        for (DefRef t : it->second) {
          if (visible(fi, t) && !def_of(t).starts_tx) {
            mark_ctx(t, {fi, di}, c.line);
          }
        }
      }
    }
  }
  while (!work.empty()) {
    DefRef cur = work.front();
    work.pop_front();
    for (const CallSite& c : def_of(cur).calls) {
      if (kNoPropagateInto.count(c.callee)) continue;
      auto it = by_name.find(c.callee);
      if (it == by_name.end()) continue;
      for (DefRef t : it->second) {
        if (visible(cur.file, t) && !def_of(t).starts_tx) {
          mark_ctx(t, cur, c.line);
        }
      }
    }
  }

  // Path reconstruction for a context-carrying def.
  auto build_path = [&](DefRef leaf) {
    std::vector<Frame> rev;  // leaf-to-root, reversed at the end
    DefRef cur = leaf;
    for (int guard = 0; guard < 64; ++guard) {
      const CtxState& st = state[cur];
      const FuncDef& d = def_of(cur);
      const FuncDef& p = def_of(st.parent);
      rev.push_back({p.file, st.call_line,
                     "'" + p.name + "' calls '" + d.name + "'"});
      if (!state.count(st.parent) || !state[st.parent].in_ctx) {
        // Parent is the lexical origin: its call site was inside a
        // transaction region of its own body.
        rev.push_back({p.file, p.line,
                       "transaction context enters in '" + p.name + "'"});
        break;
      }
      cur = st.parent;
    }
    std::reverse(rev.begin(), rev.end());
    return rev;
  };

  for (auto& [ref, st] : state) {
    if (!st.in_ctx) continue;
    const FuncDef& d = def_of(ref);
    if (d.events.empty()) continue;
    std::vector<Frame> lead = build_path(ref);
    const FileModel& fm = files_[ref.file];
    for (const CtxEvent& e : d.events) {
      Finding f;
      f.file = d.file;
      f.line = e.line;
      f.rule = e.rule;
      f.message = e.message + " [reached via call chain]";
      f.suppressed = is_suppressed(fm, e.line, e.rule);
      f.path = lead;
      f.path.push_back({d.file, e.line, e.message});
      findings.push_back(std::move(f));
    }
  }

  // ---- Interprocedural stripe-order fixpoint ----
  // entry_max_stripe only ever increases and is bounded by the stripe
  // count, so the worklist terminates.
  work.clear();
  std::set<DefRef> queued;
  auto feed_stripes = [&](DefRef from) {
    const CtxState& fst = state[from];
    for (const CallSite& c : def_of(from).calls) {
      const int eff = std::max(fst.entry_max_stripe, c.max_stripe_held);
      if (eff < 0) continue;
      if (kNoPropagateInto.count(c.callee)) continue;
      auto it = by_name.find(c.callee);
      if (it == by_name.end()) continue;
      for (DefRef t : it->second) {
        if (!visible(from.file, t) || def_of(t).starts_tx) continue;
        CtxState& tst = state[t];
        if (eff > tst.entry_max_stripe) {
          tst.entry_max_stripe = eff;
          tst.stripe_parent = from;
          tst.stripe_call_line = c.line;
          if (queued.insert(t).second) work.push_back(t);
        }
      }
    }
  };
  for (int fi = 0; fi < static_cast<int>(files_.size()); ++fi) {
    for (int di = 0; di < static_cast<int>(files_[fi].defs.size()); ++di) {
      feed_stripes({fi, di});
    }
  }
  while (!work.empty()) {
    DefRef cur = work.front();
    work.pop_front();
    queued.erase(cur);
    feed_stripes(cur);
  }

  auto build_stripe_path = [&](DefRef leaf) {
    std::vector<Frame> rev;
    DefRef cur = leaf;
    for (int guard = 0; guard < 64; ++guard) {
      const CtxState& st = state[cur];
      if (st.stripe_parent.file < 0) break;
      const FuncDef& d = def_of(cur);
      const FuncDef& p = def_of(st.stripe_parent);
      rev.push_back({p.file, st.stripe_call_line,
                     "'" + p.name + "' calls '" + d.name +
                         "' while holding stripes"});
      if (state[st.stripe_parent].stripe_parent.file < 0) {
        rev.push_back({p.file, p.line,
                       "stripe(s) first acquired in '" + p.name + "'"});
        break;
      }
      cur = st.stripe_parent;
    }
    std::reverse(rev.begin(), rev.end());
    return rev;
  };

  for (auto& [ref, st] : state) {
    if (st.entry_max_stripe < 0) continue;
    const FuncDef& d = def_of(ref);
    const FileModel& fm = files_[ref.file];
    for (const StripeAcq& a : d.stripe_acqs) {
      // The purely local inversion was already reported by pass 1.
      if (a.max_held_before >= a.index) continue;
      if (st.entry_max_stripe < a.index) continue;
      Finding f;
      f.file = d.file;
      f.line = a.line;
      f.rule = Rule::kFallbackStripeOrder;
      f.message = "'acquire_stripe(" + std::to_string(a.index) +
                  ")' in '" + d.name + "' while a caller chain already " +
                  "holds stripe " + std::to_string(st.entry_max_stripe) +
                  " (stripes must be acquired in ascending order across "
                  "calls)";
      f.suppressed = is_suppressed(fm, a.line, Rule::kFallbackStripeOrder);
      f.path = build_stripe_path(ref);
      f.path.push_back({d.file, a.line,
                        "acquire_stripe(" + std::to_string(a.index) + ")"});
      findings.push_back(std::move(f));
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  return findings;
}

}  // namespace txlint
