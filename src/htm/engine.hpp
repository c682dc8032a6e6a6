// Software best-effort HTM with Intel TSX semantics (DESIGN.md §2).
//
// The machine this reproduction runs on has no TSX, so transactions are
// emulated with a TL2-style software engine: a global version clock, a
// table of versioned stripe locks at cache-line granularity, lazy redo
// logging, and commit-time validation. The emulation deliberately keeps
// TSX's *best-effort* contract:
//
//   - conflict aborts   — another thread (transactional or not) touched a
//                         line in the read/write set (kAbortConflict),
//   - capacity aborts   — read/write set exceeds configured L1-like limits
//                         (kAbortCapacity),
//   - explicit aborts   — Txn::abort(code), code returned in bits 31:24
//                         (kAbortExplicit), like _xabort(imm8),
//   - persist aborts    — nvm::Device::clwb() inside a transaction aborts
//                         it (kAbortPersist); this is the HTM/NVM
//                         incompatibility the paper resolves,
//   - spurious aborts   — injected with configurable probability to
//                         exercise fallback paths (kAbortSpurious), and
//   - memtype aborts    — a knob reproducing the ABORTED_MEMTYPE anomaly
//                         of the paper's Fig. 2, suppressed for one
//                         attempt after prewalk_hint() (kAbortMemtype),
//
// so every algorithm needs the same global-lock fallback it needs on real
// hardware. Non-transactional accesses interoperate through the same
// stripe table: nontx_store bumps the stripe version, aborting any
// transaction that read the line, just as cache coherence would.
//
// All transactional data must be accessed through Txn::load/Txn::store
// (word-tracking software TM cannot trap raw loads); this mirrors how an
// STM-instrumented program is written and is a documented limitation of
// the emulation, not of the reproduced algorithms.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/checked.hpp"
#include "common/spin.hpp"

namespace bdhtm::nvm {
class Device;
}

namespace bdhtm::htm {

// ---- Status word (TSX _xbegin layout, plus emulation-specific bits) ----
inline constexpr unsigned kAbortExplicit = 1u << 0;
inline constexpr unsigned kAbortRetry = 1u << 1;
inline constexpr unsigned kAbortConflict = 1u << 2;
inline constexpr unsigned kAbortCapacity = 1u << 3;
inline constexpr unsigned kAbortPersist = 1u << 6;   // clwb inside txn
inline constexpr unsigned kAbortMemtype = 1u << 7;   // simulated anomaly
inline constexpr unsigned kAbortSpurious = 1u << 8;  // injected transient

/// Returned by run() when the transaction committed.
inline constexpr unsigned kCommitted = ~0u;

constexpr unsigned make_explicit_status(std::uint8_t code) {
  return kAbortExplicit | (static_cast<unsigned>(code) << 24);
}
constexpr std::uint8_t explicit_code(unsigned status) {
  return static_cast<std::uint8_t>(status >> 24);
}

// Well-known explicit-abort codes, split out of the generic "explicit"
// bucket by the abort-cause taxonomy (obs registry + TxStats): lock
// subscription found the elided lock held (htm/fallback.hpp), and an
// old-epoch operation saw a newer-epoch block. epoch_sys.hpp's
// kLockedException and kOldSeeNewException are aliases of these. Both
// are convention codes — the engine treats them like any _xabort(imm8),
// the taxonomy just names them because the paper's evaluation (Fig. 2)
// hinges on telling contention from algorithmic restarts.
inline constexpr std::uint8_t kLockSubscriptionCode = 0x52;
inline constexpr std::uint8_t kOldSeeNewCode = 0x51;
/// Lock-subscription abort raised by the STRIPED fallback policy
/// (htm/fallback.hpp). Same meaning as kLockSubscriptionCode — a
/// subscribed elided lock word was held — but carrying its own code lets
/// the taxonomy attribute contention per policy (global vs. striped).
inline constexpr std::uint8_t kStripedLockSubscriptionCode = 0x53;

/// True for either of the lock-subscription convention codes; retry loops
/// treat both as "a fallback holder is in the way", not a failed attempt.
constexpr bool is_lock_subscription_code(std::uint8_t code) {
  return code == kLockSubscriptionCode ||
         code == kStripedLockSubscriptionCode;
}

struct EngineConfig {
  // L1-like speculative capacity: 32 KiB of write lines, a larger
  // Bloom-summarized read capacity, per TSX on Skylake-era parts.
  std::size_t write_cap_lines = 512;
  std::size_t read_cap_entries = 8192;
  double spurious_abort_prob = 0.0;
  double memtype_abort_prob = 0.0;
  std::uint64_t seed = 0xabcd;
};

/// Snapshot of the engine's abort-cause taxonomy. Storage is per-thread
/// sharded counters in the global obs::Registry ("htm.*" names);
/// collect_stats() sums the shards into this plain struct.
struct TxStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  /// Explicit aborts with codes other than the two well-known ones below.
  std::uint64_t aborts_explicit = 0;
  /// Lock-subscription aborts (kLockSubscriptionCode): the fallback lock
  /// was held — contention, not a failed attempt.
  std::uint64_t aborts_lock_subscription = 0;
  /// OldSeeNewException (kOldSeeNewCode): epoch-ordering restart.
  std::uint64_t aborts_old_see_new = 0;
  std::uint64_t aborts_persist = 0;
  std::uint64_t aborts_memtype = 0;
  std::uint64_t aborts_spurious = 0;
  /// Fallback acquisitions (htm.fallback.total). Every acquisition names
  /// exactly one cause, so the four counters below add up to this one:
  ///   - lockwait: elide() kept finding the lock held (contention);
  ///   - exhausted: elide() ran out of its retry budget on conflict,
  ///     capacity or spurious aborts;
  ///   - wait_timeout: elide()'s total-wait deadline
  ///     (ElideOptions::max_wait_us) expired behind a fallback holder,
  ///     e.g. one descheduled mid-critical-section;
  ///   - structural: a deliberate acquisition outside elide(), such as a
  ///     BD-Spash directory split taking every stripe.
  std::uint64_t fallback_acquisitions = 0;
  std::uint64_t fallbacks_lockwait = 0;
  std::uint64_t fallbacks_exhausted = 0;
  std::uint64_t fallbacks_wait_timeout = 0;
  std::uint64_t fallbacks_structural = 0;
  /// Stripe locks taken across all fallback acquisitions (==
  /// fallback_acquisitions under the global policy, whose footprint is
  /// always the single lock word; larger under striped policies).
  std::uint64_t fallback_stripes_acquired = 0;

  std::uint64_t total_aborts() const {
    return aborts_conflict + aborts_capacity + aborts_explicit +
           aborts_lock_subscription + aborts_old_see_new + aborts_persist +
           aborts_memtype + aborts_spurious;
  }
  std::uint64_t attempts() const { return commits + total_aborts(); }
};

/// (Re)configure the global engine. Not thread safe; call while quiesced.
void configure(const EngineConfig& cfg);
const EngineConfig& config();

/// Aggregate per-thread statistics.
TxStats collect_stats();
void reset_stats();
/// Why a fallback acquisition was taken (TxStats documents each cause).
enum class FallbackCause {
  kLockWait,
  kRetryExhausted,
  kWaitTimeout,
  kStructural,
};

/// Count one fallback acquisition: htm.fallback.total plus the counter
/// of its one cause, so the causes always add up to the total.
void note_fallback(FallbackCause cause);
/// Stripe-level fallback accounting (htm/fallback.hpp): `n` stripe locks
/// acquired in one fallback acquisition that took `wait_ns` to complete
/// (htm.fallback.stripes_acquired / htm.fallback.stripe_wait_ns).
void note_fallback_stripes(int n, std::uint64_t wait_ns);

/// True while the calling thread executes inside run().
bool in_txn();

/// Abort the transaction running on this thread with the given status
/// bits. Precondition: in_txn(). Used by nvm::Device::clwb.
[[noreturn]] void abort_current(unsigned status_bits);

/// Arm the one-shot suppression of the simulated MEMTYPE abort; the
/// paper's mitigation performs a non-transactional pre-walk and retries.
void prewalk_hint();

namespace detail {

struct AbortException {
  unsigned status;
};

struct WriteEntry {
  std::uintptr_t word_addr;  // 8-byte aligned
  std::uint64_t value;
  nvm::Device* dev;  // non-null: mark line dirty on commit
};

struct ReadEntry {
  std::atomic<std::uint64_t>* stripe;
  std::uint64_t version;
};

// Stripe word encoding (TL2): bit 0 = locked, bits 63..1 = version.
constexpr bool is_locked(std::uint64_t v) { return (v & 1) != 0; }
constexpr std::uint64_t version_of(std::uint64_t v) { return v >> 1; }

/// The part of a thread's transaction context that Txn::load reads
/// inline (line-grain read tracking, DESIGN.md §6): the TL2 snapshot,
/// the line read last, whose stripe is already in the read set, and a
/// summary of the lines written so far (bit (addr >> 6) & 63).
struct LineTrack {
  static constexpr std::uintptr_t kNoLine = ~std::uintptr_t{0};

  std::uint64_t rv = 0;  // read version (TL2 snapshot)
  std::uintptr_t last_line = kNoLine;
  std::atomic<std::uint64_t>* last_stripe = nullptr;
  std::uint64_t written_lines = 0;

  static std::uint64_t line_bit(std::uintptr_t line) {
    return std::uint64_t{1} << (line & 63);
  }
  /// A further read of the last line read, which this transaction has
  /// not written: it needs no stripe lookup and no write-set probe.
  bool repeat_read(std::uintptr_t line) const {
    return line == last_line && (written_lines & line_bit(line)) == 0;
  }
};

struct WordRead {
  std::uint64_t value;
  std::uint64_t version;  // stripe word the value was read under
};

/// The TL2 read of one word under its line's stripe: aborts the
/// transaction (conflict) if the stripe is locked, newer than `rv`, or
/// changed while the word was read.
inline WordRead validated_read(const std::atomic<std::uint64_t>& stripe,
                               std::uintptr_t word_addr, std::uint64_t rv) {
  const std::uint64_t v1 = stripe.load(std::memory_order_acquire);
  if (is_locked(v1) || version_of(v1) > rv) {
    throw AbortException{kAbortConflict | kAbortRetry};
  }
  const std::uint64_t val =
      __atomic_load_n(reinterpret_cast<const std::uint64_t*>(word_addr),
                      __ATOMIC_ACQUIRE);
  if (stripe.load(std::memory_order_acquire) != v1) {
    throw AbortException{kAbortConflict | kAbortRetry};
  }
  return {val, v1};
}

class TxCtx;
TxCtx& ctx();
LineTrack& line_track(TxCtx& c);

std::uint64_t tx_load_word(TxCtx& c, std::uintptr_t word_addr);
void tx_store_word(TxCtx& c, std::uintptr_t word_addr, std::uint64_t value,
                   nvm::Device* dev);
unsigned tx_begin(TxCtx& c);  // 0 = started, else injected abort status
unsigned tx_commit(TxCtx& c);  // kCommitted or abort status
void tx_cleanup(TxCtx& c);
void note_abort(TxCtx& c, unsigned status);

std::uint64_t nontx_load_word(std::uintptr_t word_addr);
void nontx_store_word(std::uintptr_t word_addr, std::uint64_t value);
bool nontx_cas_word(std::uintptr_t word_addr, std::uint64_t expected,
                    std::uint64_t desired);

/// Tracked accesses (distinct read stripes + write words) of the calling
/// thread's current transaction; 0 outside a transaction. Checked builds
/// use this to enforce subscribe-before-first-tracked-access
/// (fallback-stripe-order, DESIGN.md §11).
std::size_t txn_tracked_access_count();

}  // namespace detail

/// Handle passed to a transaction body; all transactional memory accesses
/// go through it. Supports trivially copyable types of size 1/2/4/8.
class Txn {
 public:
  template <typename T>
  T load(const T* addr) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t word = a & ~std::uintptr_t{7};
    const std::uint64_t w =
        lines_->repeat_read(word >> 6)
            ? detail::validated_read(*lines_->last_stripe, word, lines_->rv)
                  .value
            : detail::tx_load_word(*ctx_, word);
    T out;
    std::memcpy(&out, reinterpret_cast<const char*>(&w) + (a - word),
                sizeof(T));
    return out;
  }

  template <typename T>
  void store(T* addr, T value) {
    store_impl(addr, value, nullptr);
  }

  /// Store to NVM: like store(), but on commit the device is told the
  /// line is dirty so crash simulation sees the speculative write.
  template <typename T>
  void store_nvm(nvm::Device& dev, T* addr, T value) {
    store_impl(addr, value, &dev);
  }

  /// _xabort(code): aborts and returns make_explicit_status(code) from
  /// run().
  [[noreturn]] void abort(std::uint8_t code) {
    throw detail::AbortException{make_explicit_status(code)};
  }

  explicit Txn(detail::TxCtx& c)
      : ctx_(&c), lines_(&detail::line_track(c)) {}

 private:
  template <typename T>
  void store_impl(T* addr, T value, nvm::Device* dev) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t word = a & ~std::uintptr_t{7};
    std::uint64_t w;
    if constexpr (sizeof(T) == 8) {
      assert(a == word && "8-byte transactional data must be aligned");
      std::memcpy(&w, &value, 8);
    } else {
      w = detail::tx_load_word(*ctx_, word);  // read-modify-write sub-word
      std::memcpy(reinterpret_cast<char*>(&w) + (a - word), &value,
                  sizeof(T));
    }
    detail::tx_store_word(*ctx_, word, w, dev);
  }

  detail::TxCtx* ctx_;
  const detail::LineTrack* lines_;
};

/// Execute `body` as one best-effort hardware transaction.
/// Returns kCommitted on success, or a TSX-style abort status. The body
/// may run multiple logical times only if the caller retries; run() itself
/// performs exactly one attempt, like _xbegin.
template <typename Fn>
unsigned run(Fn&& body) {
  detail::TxCtx& c = detail::ctx();
  const unsigned pre = detail::tx_begin(c);
  if (pre != 0) return pre;
  try {
    Txn tx(c);
    body(tx);
    return detail::tx_commit(c);
  } catch (detail::AbortException& e) {
    detail::tx_cleanup(c);
    detail::note_abort(c, e.status);
    return e.status;
  }
}

// ---- Non-transactional interop ----
// Plain code that shares data with transactions must use these: they go
// through the same stripe table, so a nontx_store conflicts with (and
// aborts) transactions that read the line, as cache coherence would on
// real HTM, and a nontx_load never observes a torn speculative state.

template <typename T>
T nontx_load(const T* addr) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t word = a & ~std::uintptr_t{7};
  const std::uint64_t w = detail::nontx_load_word(word);
  T out;
  std::memcpy(&out, reinterpret_cast<const char*>(&w) + (a - word),
              sizeof(T));
  return out;
}

template <typename T>
void nontx_store(T* addr, T value) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t word = a & ~std::uintptr_t{7};
  std::uint64_t w;
  if constexpr (sizeof(T) == 8) {
    assert(a == word && "8-byte transactional data must be aligned");
    std::memcpy(&w, &value, 8);
  } else {
    w = detail::nontx_load_word(word);
    std::memcpy(reinterpret_cast<char*>(&w) + (a - word), &value, sizeof(T));
  }
  detail::nontx_store_word(word, w);
}

/// One elided lock word: the per-stripe lock inside FallbackPolicy
/// (htm/fallback.hpp), which is what elide() and structures use.
/// Transactions subscribe to the word (transactional read) and abort if
/// it is held; the fallback path acquires it non-transactionally, which
/// conflicts with — and aborts — every subscribed transaction. The bare
/// subscribe/wait_until_free also spell out paper Listing 1
/// (examples/listing1_hashtable.cpp).
class ElidedLock {
 public:
  /// Transactional subscription; aborts with `code` if the lock is held.
  void subscribe(Txn& tx, std::uint8_t code) {
    if (tx.load(&word_) != 0) tx.abort(code);
  }

  bool locked() const { return nontx_load(&word_) != 0; }

  /// Spin until the lock is free (paper Listing 1 line 43), with bounded
  /// exponential backoff: a convoy of waiters hammering the lock word
  /// only delays the holder (whose stores contend the same line).
  void wait_until_free() const {
    Backoff backoff;
    while (locked()) {
      backoff.pause();
    }
  }

  /// Bounded variant: give up once now_ns() passes `deadline_ns`.
  /// Returns true if the lock was observed free, false on timeout —
  /// the caller (elide()'s total-wait deadline) must then stop waiting
  /// and take the fallback itself rather than spin behind a holder the
  /// OS may have descheduled indefinitely.
  bool wait_until_free(std::uint64_t deadline_ns) const {
    Backoff backoff;
    while (locked()) {
      if (now_ns() >= deadline_ns) return false;
      backoff.pause();
    }
    return true;
  }

  /// Bare acquisition. Counts nothing: FallbackPolicy::acquire takes one
  /// of these per stripe and counts the fallback once, with its cause.
  void acquire() {
    // Taking the fallback lock inside a transaction is the classic
    // lock-elision deadlock: the acquisition conflicts with every
    // subscribed transaction — including this one. Transactions
    // subscribe(); only the non-transactional fallback path acquires.
    if (checked::enabled() && in_txn()) {
      checked::violation(checked::Rule::kIrrevocableInTx,
                         "htm::ElidedLock::acquire");
    }
    const auto a = reinterpret_cast<std::uintptr_t>(&word_);
    for (;;) {
      if (detail::nontx_cas_word(a, 0, 1)) {
        return;
      }
      while (__atomic_load_n(&word_, __ATOMIC_RELAXED) != 0) {
      }
    }
  }

  void release() {
    detail::nontx_store_word(reinterpret_cast<std::uintptr_t>(&word_), 0);
  }

 private:
  // Accessed only through the stripe-table helpers so that fallback
  // acquisition conflicts with subscribed transactions.
  alignas(8) std::uint64_t word_{0};
};

}  // namespace bdhtm::htm
