// The best-effort HTM retry loop with lock fallback (paper §2.2):
// attempt the operation as a transaction subscribed to the fallback
// policy's stripes; wait while a fallback holder runs; on persistent
// aborts, acquire the stripes and run the same body non-transactionally.
// Bodies are templates over the access mode (htm/access.hpp). The
// library's structures and HTM-MwCAS all go through the one elide()
// below; the paper's global lock is FallbackPolicy(1) with mask all().
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "htm/access.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"

namespace bdhtm::htm {

struct ElideOptions {
  int max_retries = 16;
  /// Consecutive lock-subscription aborts tolerated before giving up and
  /// taking the fallback lock ourselves. Lock-waits are free (they don't
  /// charge max_retries — see below), so without a bound a thread stuck
  /// behind a convoy of fallback holders would wait forever; with one, it
  /// eventually joins the lock queue. Generous default: each wait already
  /// blocks until the lock is observed free once.
  int max_lock_waits = 64;
  /// Total-wait deadline across ALL lock-waits in one elide() call, in
  /// microseconds (0 = unbounded). max_lock_waits bounds the COUNT of
  /// waits, but each individual wait is unbounded: a fallback holder
  /// descheduled by the OS mid-critical-section would pin every waiter
  /// on a spin loop for the holder's whole time-slice-out. The deadline
  /// converts that into a (counted) wait_timeout fallback: the waiter
  /// joins the lock queue and the kernel sorts out the rest.
  std::uint64_t max_wait_us = 100'000;
  /// Bounded exponential backoff between attempts after a conflict,
  /// capacity, or spurious abort: the delay doubles from min to max.
  /// Symmetric aborters re-colliding in lockstep is what turns transient
  /// conflicts into fallback-lock serialization.
  std::uint32_t backoff_min_ns = 64;
  std::uint32_t backoff_max_ns = 8192;
  /// Invoked after a simulated MEMTYPE abort, before the retry — the
  /// paper's mitigation performs a non-transactional pre-walk here.
  void (*prewalk)(void*) = nullptr;
  void* prewalk_ctx = nullptr;
};

namespace detail {
/// Per-thread jitter stream for retry backoff (de-synchronizes threads
/// whose transactions keep aborting each other).
inline std::uint32_t retry_jitter(std::uint32_t bound) {
  static thread_local std::uint64_t s =
      splitmix64(0x9e3779b97f4a7c15ULL ^
                 static_cast<std::uint64_t>(thread_id() + 1));
  s = splitmix64(s);
  return static_cast<std::uint32_t>(s % bound);
}
}  // namespace detail

/// Run `body(acc) -> R` atomically. The transaction subscribes only to
/// the stripes in `mask`, and the fallback acquires exactly those stripes
/// in canonical order; the mask must cover the body's full footprint per
/// the owning structure's rules (DESIGN.md §11). The body may be
/// re-executed; all its side effects must go through the accessor
/// (rolled back on abort) or be reset at the top of the body. The body
/// must not throw anything except via acc.fail() on the fallback path
/// (FallbackRestart propagates to the caller, who owns algorithmic
/// restarts).
template <typename R, typename Body>
R elide(FallbackPolicy& policy, StripeMask mask, Body&& body,
        const ElideOptions& opts = {}) {
  std::uint32_t delay_ns = opts.backoff_min_ns;
  int lock_waits = 0;
  bool last_abort_was_lock = false;
  bool wait_timed_out = false;
  std::uint64_t wait_deadline_ns = 0;  // armed lazily on the first wait
  for (int attempt = 0; attempt < opts.max_retries;) {
    R result{};
    const unsigned st = run([&](Txn& tx) {
      policy.subscribe(tx, mask);
      TxAccess acc{tx};
      result = body(acc);
    });
    if (st == kCommitted) return result;
    if ((st & kAbortExplicit) &&
        is_lock_subscription_code(explicit_code(st))) {
      // Lock-wait, not a failed attempt: no progress was possible while
      // a fallback held the lock, so charging these against max_retries
      // livelocks straight into the very serialization elision exists to
      // avoid — a convoy of waiters all exhausting their budgets at once.
      // A separate (generous) bound keeps a thread from waiting forever
      // behind a steady stream of fallback holders.
      last_abort_was_lock = true;
      if (++lock_waits >= opts.max_lock_waits) break;
      if (opts.max_wait_us == 0) {
        policy.wait_until_free(mask);
      } else {
        // The deadline is TOTAL across every wait in this call: arming
        // it once keeps a stream of short holds from resetting it.
        if (wait_deadline_ns == 0) {
          wait_deadline_ns = now_ns() + opts.max_wait_us * 1000;
        }
        if (!policy.wait_until_free(mask, wait_deadline_ns)) {
          wait_timed_out = true;
          break;
        }
      }
      continue;
    }
    last_abort_was_lock = false;
    lock_waits = 0;
    if (st & kAbortExplicit) {
      // Algorithmic abort (e.g. OldSeeNewException): surface it like the
      // fallback path would, so callers handle one restart mechanism.
      throw FallbackRestart{explicit_code(st)};
    }
    ++attempt;
    if (st & kAbortMemtype) {
      // The pre-walk already spent the mitigation time; retry at once.
      if (opts.prewalk != nullptr) opts.prewalk(opts.prewalk_ctx);
      prewalk_hint();
      continue;
    }
    // Conflict / spurious: bounded exponential backoff with jitter —
    // its only job is de-synchronizing peers that keep aborting each
    // other. A capacity abort is deterministic for a fixed footprint:
    // no amount of waiting shrinks the write set, so retry immediately
    // and reach the fallback (the only cure) sooner instead of paying
    // the full backoff ladder on the way to certain exhaustion.
    if ((st & kAbortCapacity) == 0 && delay_ns > 0) {
      spin_for_ns(delay_ns / 2 + detail::retry_jitter(delay_ns));
      delay_ns = std::min(delay_ns * 2, opts.backoff_max_ns);
    }
  }
  // Attribute the fallback to its cause: a final lock-subscription abort
  // means contention drove us here, even if the retry budget happened to
  // run out on the same pass — only the cause of the LAST abort says why
  // progress ultimately stalled. A timed-out wait is its own cause: the
  // holder stalled, not mere contention.
  const FallbackCause cause = wait_timed_out ? FallbackCause::kWaitTimeout
                              : last_abort_was_lock
                                  ? FallbackCause::kLockWait
                                  : FallbackCause::kRetryExhausted;
  PolicyGuard guard(policy, mask, cause);
  NontxAccess acc;
  return body(acc);
}

}  // namespace bdhtm::htm
