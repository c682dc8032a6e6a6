// txlint-scope: ipc-client
//
// Client side of the shared-memory transport (DESIGN.md §12). A client
// process creates its own arena file in the rendezvous directory, waits
// for the server to accept, and then drives the slot state machine with
// bounded futex waits. The client NEVER touches NVM, epochs, or the
// svc layer — this translation unit (plus wire/futex/fault headers) is
// the complete client footprint, compiled standalone into
// tools/ipc_client without linking the durable core; txlint enforces
// the boundary (rule ipc-client-nvm, via the scope marker above).
#pragma once

#include <cstdint>
#include <string>

#include "ipc/fault.hpp"
#include "ipc/wire.hpp"

namespace bdhtm::ipc {

class ShmClient {
 public:
  struct Options {
    std::uint32_t slots = 16;  // in-flight bound, <= kMaxSlots
    std::uint64_t connect_timeout_ns = 5'000'000'000ULL;
    /// Per-call bound on wait(); expiry returns kTimeout with the slot
    /// still in flight (the session is then poisoned — disconnect).
    std::uint64_t call_timeout_ns = 10'000'000'000ULL;
    ClientFaultPlan fault{};
  };

  /// Park tick: the longest a parked wait() sleeps before it re-checks
  /// the server's liveness and advances the heartbeat. A reply whose
  /// wake is lost shows up as a call this much slower, never a hang.
  static constexpr std::uint64_t kParkTickNs = 20'000'000;  // 20 ms

  enum class Err : std::uint8_t {
    kOk = 0,
    kConnect,     // server never accepted / refused the hello
    kTimeout,     // call_timeout_ns expired
    kServerGone,  // phase=kServerClosed observed or server pid vanished
    kNoSlot,      // all slots in flight (client-side shed)
  };

  struct Reply {
    WireStatus status = kStOk;
    bool ok = false;
    std::uint64_t value = 0;
    std::uint64_t complete_epoch = 0;
  };

  ShmClient() = default;
  ~ShmClient();
  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  /// Create the arena file in `dir`, publish the hello, and park until
  /// the server answers (bounded by connect_timeout_ns).
  Err connect(const std::string& dir, const Options& opt);
  Err connect(const std::string& dir) { return connect(dir, Options{}); }

  /// Publish one request. Returns the slot index, or -1 when every slot
  /// is in flight (the bounded-arena shed: callers retire a slot via
  /// wait() first). Single-producer: one thread drives a ShmClient.
  int submit(WireOp op, std::uint64_t key, std::uint64_t value);

  /// Park until slot `slot` resolves; consumes the reply and frees the
  /// slot. On kServerGone/kTimeout the slot is NOT freed (the arena is
  /// torn down wholesale by disconnect()).
  Err wait(int slot, Reply* out);

  /// submit + wait convenience for closed-loop callers.
  Err call(WireOp op, std::uint64_t key, std::uint64_t value, Reply* out);

  /// Advance the lease heartbeat without submitting (idle clients must
  /// call this at least once per server lease period or be reclaimed —
  /// that is the deadman contract, not an error).
  void heartbeat();

  /// Graceful goodbye: phase=kGoodbye + wake, munmap, unlink own file.
  void disconnect();

  bool connected() const { return base_ != nullptr; }

  /// Span id of the request currently (or last) published in `slot`,
  /// 0 if none. The request payload is client-owned, so the submitting
  /// thread may read it at any point of the slot lifecycle — the span
  /// recorder uses it to label its client-side stage events.
  std::uint64_t span_of(int slot) const;

  std::uint32_t slot_count() const { return slots_n_; }
  std::uint64_t generation() const { return generation_; }
  const std::string& path() const { return path_; }

 private:
  ArenaHdr* hdr() { return static_cast<ArenaHdr*>(base_); }
  Err check_server_alive();
  /// Advance the lease heartbeat (this thread is its only writer).
  void beat() { hdr()->heartbeat.store(++beats_, std::memory_order_relaxed); }

  void* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::uint32_t slots_n_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t call_timeout_ns_ = 0;
  std::uint32_t free_hint_ = 0;
  std::uint64_t beats_ = 0;
  std::string path_;
  ClientFaultArm fault_{};
};

}  // namespace bdhtm::ipc
