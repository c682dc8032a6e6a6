#include "htm/fallback.hpp"

#include "common/checked.hpp"
#include "common/spin.hpp"

namespace bdhtm::htm {

namespace {

int clamp_stripes(int stripes) {
  if (stripes <= 1) return 1;
  const int capped = stripes > FallbackPolicy::kMaxStripes
                         ? FallbackPolicy::kMaxStripes
                         : stripes;
  return 1 << (31 - std::countl_zero(static_cast<unsigned>(capped)));
}

}  // namespace

FallbackPolicy::FallbackPolicy(int stripes)
    : count_(clamp_stripes(stripes)),
      slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(count_))),
      held_(std::make_unique<Padded<StripeMask>[]>(kMaxThreads)) {}

void FallbackPolicy::subscribe(Txn& tx, StripeMask mask) {
  assert(mask != 0 && (mask & ~all()) == 0);
  if (checked::enabled() && detail::txn_tracked_access_count() != 0) {
    // The subscription must precede every tracked access: an access made
    // before subscribing is not protected against a fallback holder that
    // acquired between the access and the (late) subscription.
    checked::violation(checked::Rule::kFallbackStripeOrder,
                       "htm::FallbackPolicy::subscribe");
  }
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    slots_[std::countr_zero(m)].lock.subscribe(tx, code());
  }
}

bool FallbackPolicy::any_locked(StripeMask mask) const {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    if (slots_[std::countr_zero(m)].lock.locked()) return true;
  }
  return false;
}

void FallbackPolicy::wait_until_free(StripeMask mask) const {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    slots_[std::countr_zero(m)].lock.wait_until_free();
  }
}

bool FallbackPolicy::wait_until_free(StripeMask mask,
                                     std::uint64_t deadline_ns) const {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    if (!slots_[std::countr_zero(m)].lock.wait_until_free(deadline_ns)) {
      return false;
    }
  }
  return true;
}

void FallbackPolicy::acquire(StripeMask mask, FallbackCause cause) {
  assert(mask != 0 && (mask & ~all()) == 0);
  // Counted before blocking on the stripes, so a holder can see that a
  // waiter has given up (and why) while it still holds them.
  note_fallback(cause);
  const std::uint64_t t0 = now_ns();
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    acquire_stripe(std::countr_zero(m));
  }
  note_fallback_stripes(std::popcount(mask), now_ns() - t0);
}

void FallbackPolicy::release(StripeMask mask) {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    release_stripe(std::countr_zero(m));
  }
}

void FallbackPolicy::acquire_stripe(int idx) {
  assert(idx >= 0 && idx < count_);
  StripeMask& held = held_[thread_id()].value;
  if (checked::enabled() && (held >> idx) != 0) {
    // Holding any stripe >= idx while acquiring idx breaks the canonical
    // ascending order — with another thread doing the same in the
    // opposite order, that is the textbook deadlock cycle.
    checked::violation(checked::Rule::kFallbackStripeOrder,
                       "htm::FallbackPolicy::acquire_stripe");
  }
  slots_[idx].lock.acquire();
  held |= StripeMask{1} << idx;
}

void FallbackPolicy::release_stripe(int idx) {
  assert(idx >= 0 && idx < count_);
  slots_[idx].lock.release();
  held_[thread_id()].value &= ~(StripeMask{1} << idx);
}

}  // namespace bdhtm::htm
