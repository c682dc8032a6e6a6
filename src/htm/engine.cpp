#include "htm/engine.hpp"

#include <algorithm>
#include <vector>

#include "common/checked.hpp"
#include "common/defs.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"

namespace bdhtm::htm {
namespace {

// ---- Versioned stripe-lock table (TL2) ----
//
// Stripes are keyed by cache line so sub-word accesses to one line
// conflict, matching real HTM's line-granular conflict detection.
// Encoding: bit 0 = locked, bits 63..1 = version (shifted left by one).

constexpr std::size_t kStripeBits = 18;
constexpr std::size_t kStripeCount = std::size_t{1} << kStripeBits;

std::atomic<std::uint64_t> g_stripes[kStripeCount];
std::atomic<std::uint64_t> g_clock{0};

EngineConfig g_cfg;

inline std::atomic<std::uint64_t>& stripe_of(std::uintptr_t word_addr) {
  const std::uint64_t line = word_addr >> 6;
  return g_stripes[splitmix64(line) & (kStripeCount - 1)];
}

using detail::is_locked;
using detail::version_of;
constexpr std::uint64_t make_version(std::uint64_t ver) { return ver << 1; }

// ---- Abort-cause taxonomy (obs registry) ----
//
// One per-thread-sharded counter per cause; recording is a relaxed
// fetch_add on a line only the aborting thread writes, the same cost as
// the padded TxStats array this replaces. Routing the taxonomy through
// the registry is what lets the bench exporter and tests enumerate it by
// name alongside every other subsystem's metrics.
struct HtmCounters {
  obs::Counter& commits;
  obs::Counter& conflict;
  obs::Counter& capacity;
  obs::Counter& explicit_other;
  obs::Counter& lock_subscription;
  obs::Counter& old_see_new;
  obs::Counter& persist;
  obs::Counter& memtype;
  obs::Counter& spurious;
  obs::Counter& fallbacks;
  obs::Counter& fallbacks_lockwait;
  obs::Counter& fallbacks_exhausted;
  obs::Counter& fallbacks_wait_timeout;
  // Stripe-level fallback metrics plus the per-policy split of the
  // lock_subscription bucket (htm/fallback.hpp): the bucket above counts
  // both convention codes, these attribute them to the policy that raised
  // them so fig11 can compare global vs. striped from one run's counters.
  obs::Counter& stripes_acquired;
  obs::Counter& lock_subscription_global;
  obs::Counter& lock_subscription_striped;
  obs::Histogram& stripe_wait_ns;
};

HtmCounters& cnt() {
  static HtmCounters c{
      obs::Registry::global().counter("htm.commits"),
      obs::Registry::global().counter("htm.abort.conflict"),
      obs::Registry::global().counter("htm.abort.capacity"),
      obs::Registry::global().counter("htm.abort.explicit"),
      obs::Registry::global().counter("htm.abort.lock_subscription"),
      obs::Registry::global().counter("htm.abort.old_see_new"),
      obs::Registry::global().counter("htm.abort.persist"),
      obs::Registry::global().counter("htm.abort.memtype"),
      obs::Registry::global().counter("htm.abort.spurious"),
      obs::Registry::global().counter("htm.fallback.total"),
      obs::Registry::global().counter("htm.fallback.lock_wait"),
      obs::Registry::global().counter("htm.fallback.retry_exhausted"),
      obs::Registry::global().counter("htm.fallback.wait_timeout"),
      obs::Registry::global().counter("htm.fallback.stripes_acquired"),
      obs::Registry::global().counter("htm.abort.lock_subscription.global"),
      obs::Registry::global().counter("htm.abort.lock_subscription.striped"),
      obs::Registry::global().histogram("htm.fallback.stripe_wait_ns"),
  };
  return c;
}

}  // namespace

namespace detail {

// Per-thread transaction context, reused across transactions to avoid
// allocation on the critical path.
//
// Set lookups are O(1) via generation-stamped open-addressing indexes
// (no per-transaction clearing: tx_begin bumps `gen`, staling every
// slot). Real HTM tracks its sets in L1 for free, so per-access cost
// must not grow with transaction size — a linear write-set scan made
// the emulation charge O(words²) per transaction, which penalized the
// batched envelopes (DESIGN.md §10) for exactly the work real hardware
// amortizes. The read index additionally dedups stripes: re-reading a
// stripe cannot observe a new version without aborting (any conflicting
// commit bumps it past rv), so one validation entry per stripe is
// sound, and it keeps commit-time validation proportional to distinct
// lines, as on hardware.
//
// Two line-grain shortcuts keep a scan over one line (a BD-Spash bucket
// is 16 key words in 2 lines) from paying per-word tracking costs. Their
// state is the LineTrack base, which the header exposes so that Txn::load
// takes the first one inline:
//   - `last_line`/`last_stripe` remember the line the previous read
//     recorded. A further read of that line reuses its stripe, which is
//     already in the read set, and skips the stripe hash and the
//     read-index probe. It still runs validated_read against rv, so it
//     aborts exactly where the full path would.
//   - `written_lines` is a 64-bit summary of the lines in the write set.
//     A read probes the write index only when its line's bit is set, so
//     read-mostly transactions skip that hash.
// Both are reset in tx_begin.
class TxCtx : public LineTrack {
 public:
  bool active = false;
  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;
  Rng rng{0x517eful};
  // Simulated MEMTYPE suppression credits: the paper's non-transactional
  // pre-walk mitigated the anomaly for a while, not just one attempt.
  int prewalk_credits = 0;
  int tid = -1;

  struct IdxSlot {
    std::uint64_t gen = 0;
    std::uintptr_t key = 0;
    std::uint32_t idx = 0;
  };
  static constexpr std::size_t kWriteIdxBits = 12;  // >= 2x write cap
  static constexpr std::size_t kReadIdxBits = 15;   // >= 2x read cap
  std::uint64_t gen = 0;
  std::vector<IdxSlot> widx = std::vector<IdxSlot>(1u << kWriteIdxBits);
  std::vector<IdxSlot> ridx = std::vector<IdxSlot>(1u << kReadIdxBits);

  WriteEntry* find_write(std::uintptr_t word_addr) {
    const std::size_t mask = widx.size() - 1;
    std::size_t h = splitmix64(word_addr) & mask;
    while (widx[h].gen == gen) {
      if (widx[h].key == word_addr) return &write_set[widx[h].idx];
      h = (h + 1) & mask;
    }
    return nullptr;
  }

  void index_write(std::uintptr_t word_addr, std::uint32_t i) {
    const std::size_t mask = widx.size() - 1;
    std::size_t h = splitmix64(word_addr) & mask;
    while (widx[h].gen == gen) h = (h + 1) & mask;
    widx[h] = {gen, word_addr, i};
  }

  /// True if the stripe was newly recorded (not yet in the read set).
  bool index_read(std::atomic<std::uint64_t>* stripe) {
    const auto key = reinterpret_cast<std::uintptr_t>(stripe);
    const std::size_t mask = ridx.size() - 1;
    std::size_t h = splitmix64(key) & mask;
    while (ridx[h].gen == gen) {
      if (ridx[h].key == key) return false;
      h = (h + 1) & mask;
    }
    ridx[h] = {gen, key, 0};
    return true;
  }
};

LineTrack& line_track(TxCtx& c) { return c; }

TxCtx& ctx() {
  thread_local TxCtx c;
  if (c.tid < 0) {
    c.tid = thread_id();
    c.rng.reseed(splitmix64(g_cfg.seed + static_cast<std::uint64_t>(c.tid)));
  }
  return c;
}

namespace {
[[noreturn]] void abort_with(TxCtx& c, unsigned status) {
  (void)c;
  throw AbortException{status};
}
}  // namespace

unsigned tx_begin(TxCtx& c) {
  assert(!c.active && "nested transactions are not supported (TSX flattens;"
                      " bdhtm structures never nest)");
  // Injected aborts model TSX's transient failures; they fire before any
  // work, as most real transient aborts do.
  if (g_cfg.memtype_abort_prob > 0.0) {
    if (c.prewalk_credits > 0) {
      --c.prewalk_credits;  // pre-walked recently: anomaly suppressed
    } else if (c.rng.next_double() < g_cfg.memtype_abort_prob) {
      cnt().memtype.add_at(c.tid);
      return kAbortMemtype | kAbortRetry;
    }
  }
  if (g_cfg.spurious_abort_prob > 0.0 &&
      c.rng.next_double() < g_cfg.spurious_abort_prob) {
    cnt().spurious.add_at(c.tid);
    return kAbortSpurious | kAbortRetry;
  }
  c.active = true;
  c.rv = g_clock.load(std::memory_order_acquire);
  c.read_set.clear();
  c.write_set.clear();
  c.last_line = LineTrack::kNoLine;
  c.written_lines = 0;
  ++c.gen;  // stale every index slot; no table clearing on the hot path
  return 0;
}

void tx_cleanup(TxCtx& c) {
  c.active = false;
  c.read_set.clear();
  c.write_set.clear();
}

std::uint64_t tx_load_word(TxCtx& c, std::uintptr_t word_addr) {
  assert(c.active);
  const std::uintptr_t line = word_addr >> 6;
  if (c.written_lines & LineTrack::line_bit(line)) {
    if (WriteEntry* w = c.find_write(word_addr)) return w->value;
  }

  const bool repeat = line == c.last_line;
  auto& stripe = repeat ? *c.last_stripe : stripe_of(word_addr);
  const WordRead r = validated_read(stripe, word_addr, c.rv);
  if (repeat) return r.value;
  c.last_line = line;
  c.last_stripe = &stripe;
  if (c.index_read(&stripe)) {
    c.read_set.push_back({&stripe, r.version});
    // Distinct-stripe capacity (the Bloom-summarized read set of real
    // parts also counts lines, not accesses). The index bound keeps the
    // open-addressing probe terminating under any configured cap.
    if (c.read_set.size() > g_cfg.read_cap_entries ||
        c.read_set.size() > c.ridx.size() / 2) {
      abort_with(c, kAbortCapacity);
    }
  }
  return r.value;
}

void tx_store_word(TxCtx& c, std::uintptr_t word_addr, std::uint64_t value,
                   nvm::Device* dev) {
  assert(c.active);
  if (WriteEntry* w = c.find_write(word_addr)) {
    w->value = value;
    if (dev != nullptr) w->dev = dev;
    return;
  }
  c.write_set.push_back({word_addr, value, dev});
  c.written_lines |= LineTrack::line_bit(word_addr >> 6);
  c.index_write(word_addr,
                static_cast<std::uint32_t>(c.write_set.size() - 1));
  // Approximate line-count capacity with entry count; HTM-sized
  // transactions touch nearly distinct lines anyway. The index bound
  // keeps the open-addressing probe terminating under any configured cap.
  if (c.write_set.size() > g_cfg.write_cap_lines ||
      c.write_set.size() > c.widx.size() / 2) {
    abort_with(c, kAbortCapacity);
  }
}

unsigned tx_commit(TxCtx& c) {
  assert(c.active);
  if (c.write_set.empty()) {
    // Read-only transactions were validated at each load (TL2 invariant:
    // all reads consistent at rv); nothing to publish.
    tx_cleanup(c);
    cnt().commits.add_at(c.tid);
    return kCommitted;
  }

  // Acquire stripe locks for the write set. Stripes may repeat (two words
  // in one line); lock each distinct stripe once, in address order to
  // avoid livelock between symmetric committers.
  thread_local std::vector<std::atomic<std::uint64_t>*> locked;
  thread_local std::vector<std::atomic<std::uint64_t>*> to_lock;
  locked.clear();
  to_lock.clear();
  for (const auto& w : c.write_set) to_lock.push_back(&stripe_of(w.word_addr));
  std::sort(to_lock.begin(), to_lock.end());
  to_lock.erase(std::unique(to_lock.begin(), to_lock.end()), to_lock.end());

  auto release_all = [&](bool restore) {
    for (auto* s : locked) {
      if (restore) {
        // Unlock without changing the version.
        s->fetch_and(~std::uint64_t{1}, std::memory_order_release);
      }
    }
    locked.clear();
  };

  for (auto* s : to_lock) {
    std::uint64_t cur = s->load(std::memory_order_relaxed);
    int spins = 0;
    for (;;) {
      if (!is_locked(cur) &&
          s->compare_exchange_weak(cur, cur | 1, std::memory_order_acquire)) {
        locked.push_back(s);
        break;
      }
      if (++spins > 64) {
        release_all(true);
        tx_cleanup(c);
        cnt().conflict.add_at(c.tid);
        return kAbortConflict | kAbortRetry;
      }
      cur = s->load(std::memory_order_relaxed);
    }
  }

  const std::uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Validate the read set: every stripe must still hold the version we
  // read, unless we hold its lock ourselves (version bits still compared).
  for (const auto& r : c.read_set) {
    const std::uint64_t cur = r.stripe->load(std::memory_order_acquire);
    const bool self_locked =
        is_locked(cur) && std::binary_search(to_lock.begin(), to_lock.end(),
                                             r.stripe);
    if ((is_locked(cur) && !self_locked) ||
        version_of(cur) != version_of(r.version)) {
      release_all(true);
      tx_cleanup(c);
      cnt().conflict.add_at(c.tid);
      return kAbortConflict | kAbortRetry;
    }
  }

  // Publish the redo log, then release stripes at the new version.
  for (const auto& w : c.write_set) {
    __atomic_store_n(reinterpret_cast<std::uint64_t*>(w.word_addr), w.value,
                     __ATOMIC_RELEASE);
    if (w.dev != nullptr) {
      w.dev->mark_dirty(reinterpret_cast<void*>(w.word_addr), 8);
      // This word just became durable content. If it points into a
      // still-virgin pNew block, endOp judges it (pTrack should run
      // between commit and endOp — Listing 1); if it points into the
      // stack, it traps immediately.
      if (checked::enabled()) {
        checked::pb_publish_value(w.value, "htm::Txn::store_nvm (commit)");
      }
    }
  }
  for (auto* s : locked) {
    s->store(make_version(wv), std::memory_order_release);
  }
  locked.clear();
  tx_cleanup(c);
  cnt().commits.add_at(c.tid);
  return kCommitted;
}

std::uint64_t nontx_load_word(std::uintptr_t word_addr) {
  auto& stripe = stripe_of(word_addr);
  for (;;) {
    const std::uint64_t v1 = stripe.load(std::memory_order_acquire);
    const std::uint64_t val =
        __atomic_load_n(reinterpret_cast<const std::uint64_t*>(word_addr),
                        __ATOMIC_ACQUIRE);
    const std::uint64_t v2 = stripe.load(std::memory_order_acquire);
    if (v1 == v2 && !is_locked(v1)) return val;
  }
}

void nontx_store_word(std::uintptr_t word_addr, std::uint64_t value) {
  auto& stripe = stripe_of(word_addr);
  // Lock the stripe, publish, release at a fresh version so transactions
  // that read the line fail validation — the coherence-induced abort.
  std::uint64_t cur = stripe.load(std::memory_order_relaxed);
  for (;;) {
    if (!is_locked(cur) && stripe.compare_exchange_weak(
                               cur, cur | 1, std::memory_order_acquire)) {
      break;
    }
    cur = stripe.load(std::memory_order_relaxed);
  }
  __atomic_store_n(reinterpret_cast<std::uint64_t*>(word_addr), value,
                   __ATOMIC_RELEASE);
  const std::uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  stripe.store(make_version(wv), std::memory_order_release);
}

bool nontx_cas_word(std::uintptr_t word_addr, std::uint64_t expected,
                    std::uint64_t desired) {
  auto& stripe = stripe_of(word_addr);
  std::uint64_t cur = stripe.load(std::memory_order_relaxed);
  for (;;) {
    if (!is_locked(cur) && stripe.compare_exchange_weak(
                               cur, cur | 1, std::memory_order_acquire)) {
      break;
    }
    cur = stripe.load(std::memory_order_relaxed);
  }
  const std::uint64_t observed =
      __atomic_load_n(reinterpret_cast<const std::uint64_t*>(word_addr),
                      __ATOMIC_ACQUIRE);
  bool ok = observed == expected;
  if (ok) {
    __atomic_store_n(reinterpret_cast<std::uint64_t*>(word_addr), desired,
                     __ATOMIC_RELEASE);
    const std::uint64_t wv =
        g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    stripe.store(make_version(wv), std::memory_order_release);
  } else {
    stripe.fetch_and(~std::uint64_t{1}, std::memory_order_release);
  }
  return ok;
}

std::size_t txn_tracked_access_count() {
  TxCtx& c = ctx();
  return c.active ? c.read_set.size() + c.write_set.size() : 0;
}

void note_abort(TxCtx& c, unsigned status) {
  HtmCounters& m = cnt();
  if (status & kAbortPersist) {
    m.persist.add_at(c.tid);
  } else if (status & kAbortExplicit) {
    // The taxonomy splits the two well-known convention codes out of the
    // generic explicit bucket: contention (lock subscription) and
    // epoch-ordering restarts (OldSeeNewException) mean different things
    // to a tuner even though TSX reports both as _xabort.
    const std::uint8_t code = explicit_code(status);
    if (code == kLockSubscriptionCode) {
      m.lock_subscription.add_at(c.tid);
      m.lock_subscription_global.add_at(c.tid);
    } else if (code == kStripedLockSubscriptionCode) {
      m.lock_subscription.add_at(c.tid);
      m.lock_subscription_striped.add_at(c.tid);
    } else if (code == kOldSeeNewCode) {
      m.old_see_new.add_at(c.tid);
    } else {
      m.explicit_other.add_at(c.tid);
    }
  } else if (status & kAbortCapacity) {
    m.capacity.add_at(c.tid);
  } else if (status & kAbortConflict) {
    m.conflict.add_at(c.tid);
  } else if (status & kAbortMemtype) {
    m.memtype.add_at(c.tid);
  } else {
    m.spurious.add_at(c.tid);
  }
}

}  // namespace detail

void configure(const EngineConfig& cfg) { g_cfg = cfg; }
const EngineConfig& config() { return g_cfg; }

TxStats collect_stats() {
  HtmCounters& m = cnt();
  TxStats out;
  out.commits = m.commits.total();
  out.aborts_conflict = m.conflict.total();
  out.aborts_capacity = m.capacity.total();
  out.aborts_explicit = m.explicit_other.total();
  out.aborts_lock_subscription = m.lock_subscription.total();
  out.aborts_old_see_new = m.old_see_new.total();
  out.aborts_persist = m.persist.total();
  out.aborts_memtype = m.memtype.total();
  out.aborts_spurious = m.spurious.total();
  out.fallback_acquisitions = m.fallbacks.total();
  out.fallbacks_lockwait = m.fallbacks_lockwait.total();
  out.fallbacks_exhausted = m.fallbacks_exhausted.total();
  out.fallbacks_wait_timeout = m.fallbacks_wait_timeout.total();
  out.fallback_stripes_acquired = m.stripes_acquired.total();
  return out;
}

void reset_stats() {
  HtmCounters& m = cnt();
  m.commits.reset();
  m.conflict.reset();
  m.capacity.reset();
  m.explicit_other.reset();
  m.lock_subscription.reset();
  m.old_see_new.reset();
  m.persist.reset();
  m.memtype.reset();
  m.spurious.reset();
  m.fallbacks.reset();
  m.fallbacks_lockwait.reset();
  m.fallbacks_exhausted.reset();
  m.fallbacks_wait_timeout.reset();
  m.stripes_acquired.reset();
  m.lock_subscription_global.reset();
  m.lock_subscription_striped.reset();
  m.stripe_wait_ns.reset();
}

void note_fallback() { cnt().fallbacks.add(); }
void note_fallback_lockwait() { cnt().fallbacks_lockwait.add(); }
void note_fallback_exhausted() { cnt().fallbacks_exhausted.add(); }
void note_fallback_wait_timeout() { cnt().fallbacks_wait_timeout.add(); }

void note_fallback_stripes(int n, std::uint64_t wait_ns) {
  HtmCounters& m = cnt();
  m.stripes_acquired.add(static_cast<std::uint64_t>(n));
  m.stripe_wait_ns.record(wait_ns);
}

bool in_txn() { return detail::ctx().active; }

namespace {
// Hand obs the "inside a transaction?" predicate for its BDHTM_CHECKED
// no-obs-in-tx mirror (obs cannot include htm; the dependency points the
// other way). A function-pointer store is safe at static-init time.
[[maybe_unused]] const bool g_obs_probe_installed = [] {
  obs::detail::set_in_tx_probe(&in_txn);
  return true;
}();
}  // namespace

void abort_current(unsigned status_bits) {
  detail::TxCtx& c = detail::ctx();
  assert(c.active);
  (void)c;
  throw detail::AbortException{status_bits};
}

void prewalk_hint() { detail::ctx().prewalk_credits = 16; }

}  // namespace bdhtm::htm
