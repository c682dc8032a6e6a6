// Deterministic client-death injection, mirroring nvm/fault_plan.hpp:
// a plan names ONE protocol point and a 1-based trigger ordinal; the
// client process SIGKILLs itself just before the trigger_at'th crossing
// of that point completes. Because SIGKILL is uncatchable, this is a
// faithful model of the hostile client the reclaim protocol defends
// against — no destructors, no flushes, the arena is abandoned in
// exactly the state the protocol point implies. Dependency-free
// (see wire.hpp).
#pragma once

#include <csignal>
#include <cstdint>

#ifdef __linux__
#include <sys/types.h>
#include <unistd.h>
#endif

namespace bdhtm::ipc {

/// Protocol points where a client can be killed (ShmClient threads the
/// plan through submit()/wait()):
///  - kBeforePublish: payload written, slot NOT yet published (state
///    still kFree). The half-written request must never execute.
///  - kAfterPublish: slot published, submit() not yet returned. The
///    worker finds the request by scanning the arena and executes it;
///    its reply is orphaned.
///  - kWhileParked: in wait(), in place of entering the futex park.
///    The response (if any) is orphaned; the slot must be reclaimed.
///  - kAfterResponseWritten: the client observed kDone but dies before
///    consuming the reply / freeing the slot.
enum class ClientFaultPoint : std::uint8_t {
  kNone = 0,
  kBeforePublish,
  kAfterPublish,
  kWhileParked,
  kAfterResponseWritten,
  kNumPoints,
};

inline const char* fault_point_name(ClientFaultPoint p) {
  switch (p) {
    case ClientFaultPoint::kNone:
      return "none";
    case ClientFaultPoint::kBeforePublish:
      return "before_publish";
    case ClientFaultPoint::kAfterPublish:
      return "after_publish";
    case ClientFaultPoint::kWhileParked:
      return "while_parked";
    case ClientFaultPoint::kAfterResponseWritten:
      return "after_response_written";
    default:
      return "?";
  }
}

/// `point == kNone` disarms the plan. `trigger_at` is 1-based: the
/// process dies at the trigger_at'th crossing of `point` (same ordinal
/// convention as nvm::FaultPlan::trigger_at).
struct ClientFaultPlan {
  ClientFaultPoint point = ClientFaultPoint::kNone;
  std::uint64_t trigger_at = 1;
};

/// Per-process fault state; ShmClient calls hit() at each point.
class ClientFaultArm {
 public:
  explicit ClientFaultArm(ClientFaultPlan plan = {}) : plan_(plan) {}

  /// Crossing of `p`: if the armed plan matches and the ordinal is
  /// reached, the process SIGKILLs itself (never returns).
  void hit(ClientFaultPoint p) {
    if (plan_.point != p) return;
    if (++count_ < plan_.trigger_at) return;
#ifdef __linux__
    kill(getpid(), SIGKILL);
#else
    raise(SIGKILL);
#endif
    // Unreachable: SIGKILL cannot be handled or ignored.
  }

 private:
  ClientFaultPlan plan_;
  std::uint64_t count_ = 0;
};

}  // namespace bdhtm::ipc
