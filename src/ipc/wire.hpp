// Shared-memory wire format for the broker-less IPC transport
// (DESIGN.md §12). One mmap'd file per client ("arena"): a 4 KiB header
// page followed by a fixed array of 128-byte request/response slots. The
// client creates and initializes the file, the server discovers it by
// scanning the rendezvous directory. Everything here is plain-old-data
// over process-shared atomics — this header must stay dependency-free
// (no svc/epoch/nvm includes): it is compiled into standalone client
// binaries that never link the durable core.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bdhtm::ipc {

inline constexpr std::uint64_t kArenaMagic = 0xbda7e7a05107c0deULL;
/// v3: no doorbell; each slot carries a `parked` word and the server
/// wakes only clients that set it. v2 added submit_ns + span_id per slot
/// and the clock-handshake stamps. Version mismatches are refused.
inline constexpr std::uint32_t kWireVersion = 3;
/// Per-client in-flight bound.
inline constexpr std::uint32_t kMaxSlots = 64;
/// Header page size; slots start at this offset.
inline constexpr std::size_t kHeaderBytes = 4096;

/// Session handshake word (ArenaHdr::phase, a futex word).
/// Client: writes kHello LAST during init (release) — it is the commit
/// point of the whole arena. Server: answers kAccepted or kRefused and
/// wakes; writes kServerClosed when it tears the session down (reclaim
/// or shutdown) so a surviving client turns further calls into
/// ServerGone instead of timing out. Client: writes kGoodbye to
/// disconnect gracefully.
enum WirePhase : std::uint32_t {
  kHello = 1,
  kAccepted = 2,
  kRefused = 3,
  kGoodbye = 4,
  kServerClosed = 5,
};

/// Operation kinds. Values are the epoch::BatchOp::Kind values — the
/// server static_asserts the correspondence (server.cpp) so the client
/// can stay free of epoch headers.
enum WireOp : std::uint32_t {
  kOpGet = 0,
  kOpPut = 1,
  kOpRemove = 2,
};

/// Response status. Values mirror svc::Status (static_asserted in
/// server.cpp). kStClientGone is only ever seen by forensics — it is
/// written into slots shed during a dead-client reclaim.
enum WireStatus : std::uint32_t {
  kStOk = 0,
  kStNotFound = 1,
  kStRejected = 2,
  kStClosed = 3,
  kStUnsupported = 4,
  kStClientGone = 5,
  kStInvalid = 6,  // op kind or key outside what the store accepts
};

/// Slot state machine (Slot::state, a futex word):
///
///   kFree --client publishes--> kReq --worker pulls--> kExec
///        ^                                               |
///        |                              worker writes reply
///        +------------client consumes------ kDone <------+
///
/// The kFree->kReq store (release) is the request's atomic commit point:
/// a client killed before it leaves a half-written payload that is
/// simply never visible; a client killed after it leaves a well-formed
/// request the server may or may not execute (shed on reclaim, §12).
enum SlotState : std::uint32_t {
  kSlotFree = 0,
  kSlotReq = 1,
  kSlotExec = 2,
  kSlotDone = 3,
};

/// One request/response cell. Exactly 128 bytes (two cache lines) so
/// slots never false-share across an arena scan.
struct alignas(128) Slot {
  /// SlotState; futex word the client parks on for the response.
  std::atomic<std::uint32_t> state{kSlotFree};
  /// 1 while the client is (about to be) parked on `state`. Dekker pair,
  /// all four accesses seq_cst: the client stores 1 then re-reads
  /// `state` before it sleeps; the server stores kSlotDone then reads
  /// this word and wakes only when it is set. One of the two always sees
  /// the other's store, so no wake is lost and none is wasted.
  std::atomic<std::uint32_t> parked{0};
  /// Deadman ownership stamp: the publishing process and its session
  /// generation. The server validates both against the arena header
  /// before executing — a stale stamp (pid reuse, recycled arena) is
  /// shed, never executed.
  std::uint32_t owner_pid = 0;

  // ---- request payload (owned by client until state == kReq) ----
  std::uint32_t op = kOpGet;  // WireOp
  std::uint64_t generation = 0;
  /// Client-assigned request sequence number, echoed in resp_seq so a
  /// reply can never be attributed to the wrong incarnation of a slot.
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  /// Client's CLOCK_MONOTONIC at publish. Both processes run on one
  /// host, so the server subtracts this directly from its own clock for
  /// the req.queue span and the svc.lat.queue_ns leg.
  std::uint64_t submit_ns = 0;
  /// End-to-end span identity: client pid in the high 32 bits, request
  /// seq in the low 32. 0 = untraced (the server then emits no span
  /// events for this request).
  std::uint64_t span_id = 0;

  // ---- response payload (owned by server until state == kDone) ----
  std::uint32_t status = kStOk;  // WireStatus
  std::uint32_t ok = 0;
  std::uint64_t out_value = 0;
  /// Epoch the op committed in (durable once persisted >= this + 2);
  /// 0 for requests that never reached a shard.
  std::uint64_t complete_epoch = 0;
  std::uint64_t resp_seq = 0;
};
static_assert(sizeof(Slot) == 128, "slot layout is part of the wire ABI");

/// Arena header (first kHeaderBytes of the file).
struct ArenaHdr {
  std::uint64_t magic = 0;  // kArenaMagic; written before phase=kHello
  std::uint32_t version = 0;
  std::uint32_t slot_count = 0;
  std::uint32_t slot_bytes = 0;  // sizeof(Slot); belt-and-braces ABI check
  std::uint32_t client_pid = 0;
  /// Session generation chosen by the client at connect; stamped into
  /// every published slot.
  std::uint64_t generation = 0;
  /// WirePhase; futex word (client parks on it during connect).
  std::atomic<std::uint32_t> phase{0};
  /// Filled by the server on accept; lets the client detect server death
  /// (kill(server_pid, 0) == ESRCH) while parked.
  std::uint32_t server_pid = 0;
  /// Lease heartbeat: the client must advance this at least once per
  /// server lease period or the session is reclaimed (deadman switch —
  /// catches both silent death with a reused pid and a wedged client).
  std::atomic<std::uint64_t> heartbeat{0};
  /// Clock handshake: both sides stamp the same host-wide
  /// CLOCK_MONOTONIC, so (server_accept_ns - client_hello_ns) bounds the
  /// one-way transport skew a merged client+server trace could carry —
  /// there is no cross-clock offset to reconcile, only the handshake
  /// latency itself. Written by the client just before phase=kHello and
  /// by the server just before kAccepted.
  std::uint64_t client_hello_ns = 0;
  std::uint64_t server_accept_ns = 0;
};
static_assert(sizeof(ArenaHdr) <= kHeaderBytes);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "futex words must be address-free");

inline constexpr std::size_t arena_bytes(std::uint32_t slots) {
  return kHeaderBytes + static_cast<std::size_t>(slots) * sizeof(Slot);
}

inline Slot* arena_slots(void* base) {
  return reinterpret_cast<Slot*>(static_cast<char*>(base) + kHeaderBytes);
}

}  // namespace bdhtm::ipc
