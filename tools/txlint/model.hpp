// txlint v2 data model (DESIGN.md §9): rules, findings with call-path
// traces, and the pass-1 symbol table (function definitions, protocol
// events, call sites) that pass 2 propagates transaction context over.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace txlint {

// ---------------------------------------------------------------------------
// Rules

enum class Rule {
  kPersistInTx,
  kAllocInTx,
  kRetireBeforeCommit,
  kIrrevocableInTx,
  kUnbalancedEpochOp,
  kFallbackStripeOrder,
  kIpcClientNvm,
  kNoObsInTx,
  kPublishBeforePersist,
  kEscapeUnpersistedStack,
  kNumRules,
};

constexpr int kNumRules = static_cast<int>(Rule::kNumRules);

const char* rule_name(Rule r);
/// One-line rule description for SARIF rule metadata and --help.
const char* rule_description(Rule r);
bool rule_from_name(std::string_view s, Rule* out);

// ---------------------------------------------------------------------------
// Findings

/// One hop of a finding's propagated call path. The first frame is the
/// transaction-context origin (an elide/Txn/Acc body or tx_begin region);
/// the last frame is the violating operation itself.
struct Frame {
  std::string file;
  int line = 0;
  std::string what;  // "transaction body 'insert'", "call to 'helper'", ...
};

struct Finding {
  std::string file;  // file of the violating operation
  int line = 0;
  Rule rule = Rule::kPersistInTx;
  std::string message;
  bool suppressed = false;
  /// Always non-empty: context origin first, violation site last. A
  /// purely lexical finding carries a single- or two-frame path.
  std::vector<Frame> path;
};

// ---------------------------------------------------------------------------
// Pass-1 symbol table

/// A protocol operation found in a function body that is a violation
/// if — and only if — the body executes under transaction context. Ops
/// lexically inside a tx region are emitted as direct findings by pass 1;
/// the rest wait here for pass 2 to decide reachability.
struct CtxEvent {
  Rule rule = Rule::kPersistInTx;
  int line = 0;
  std::string message;
};

/// A call site inside a function body. `callee` is the identifier that
/// heads the call; overload sets are resolved by name, conservatively
/// (every definition with the name is a possible target).
struct CallSite {
  std::string callee;
  int line = 0;
  /// The site is lexically inside a transaction region of this body
  /// (elide/Txn/Acc scope or a tx_begin region) — context flows into the
  /// callee even if the enclosing function itself is not a tx body.
  bool lexically_in_tx = false;
  /// Largest literal stripe index held (acquire_stripe) at this site;
  /// -1 when none. Pass 2 threads this into callees for the
  /// interprocedural fallback-stripe-order check.
  int max_stripe_held = -1;
};

/// A literal acquire_stripe(i) inside a body, with the largest stripe
/// already held locally just before it (for the interprocedural check:
/// pass 2 combines caller-held stripes with this).
struct StripeAcq {
  int index = 0;
  int line = 0;
  int max_held_before = -1;
};

struct FuncDef {
  std::string name;  // "<lambda>" for lambdas (not callable by name)
  std::string file;
  int line = 0;
  /// Body is a transaction context from its first token (elide lambda,
  /// Txn/Acc parameter, or defined inside an enclosing tx region).
  bool tx_root = false;
  bool is_lambda = false;
  /// Body starts its own transaction (elide call or tx_begin): an
  /// operation-level entry point. Pass 2 never propagates context INTO
  /// such a def — an in-tx call resolving to one is a name collision
  /// with the same-named in-tx helper of another class (the different
  /// backends deliberately share an API surface).
  bool starts_tx = false;
  std::vector<CtxEvent> events;  // ops NOT lexically inside a tx region
  std::vector<CallSite> calls;
  std::vector<StripeAcq> stripe_acqs;
};

/// Everything pass 1 extracts from one file.
struct FileModel {
  std::string path;  // as scanned (possibly relative)
  bool ipc_client_scope = false;
  /// Quoted #include targets; pass 2 resolves a call site only to
  /// definitions whose file is visible from the caller's file through
  /// the include graph (or is the .cpp twin of a visible header) —
  /// name-only resolution across unrelated backends is pure noise.
  std::vector<std::string> includes;
  /// line -> allowed rules (-1 == all); needed after pass 1 because
  /// propagated findings apply suppressions of the *event's* file.
  std::map<int, std::set<int>> allow;
  std::vector<std::pair<int, Rule>> expect;  // corpus ground truth
  bool expect_none = false;
  bool has_expectations = false;
  /// Findings decided lexically in pass 1 (in-tx ops, unbalanced epochs,
  /// local stripe order, publish/escape dataflow, ipc-client scope).
  std::vector<Finding> direct;
  std::vector<FuncDef> defs;
};

bool is_suppressed(const FileModel& fm, int line, Rule r);

}  // namespace txlint
