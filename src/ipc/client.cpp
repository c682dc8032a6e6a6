// txlint-scope: ipc-client
#include "ipc/client.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>

#include "ipc/futex.hpp"

namespace bdhtm::ipc {

namespace {
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

ShmClient::~ShmClient() { disconnect(); }

ShmClient::Err ShmClient::connect(const std::string& dir,
                                  const Options& opt) {
  if (connected() || opt.slots == 0 || opt.slots > kMaxSlots) {
    return Err::kConnect;
  }
  fault_ = ClientFaultArm{opt.fault};
  call_timeout_ns_ = opt.call_timeout_ns;
  beats_ = 1;
  slots_n_ = opt.slots;
  generation_ = mix64(static_cast<std::uint64_t>(getpid()) ^ mono_ns());
  if (generation_ == 0) generation_ = 1;

  // O_EXCL: the file name embeds pid + a generation-derived nonce, so a
  // collision means a stale arena from a previous incarnation — fail
  // rather than adopt it.
  char name[96];
  std::snprintf(name, sizeof(name), "/c%d-%016llx.arena",
                static_cast<int>(getpid()),
                static_cast<unsigned long long>(generation_));
  path_ = dir + name;
  const int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return Err::kConnect;
  const std::size_t bytes = arena_bytes(slots_n_);
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::unlink(path_.c_str());
    return Err::kConnect;
  }
  base_ = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    ::unlink(path_.c_str());
    return Err::kConnect;
  }
  map_bytes_ = bytes;

  // The file is fresh (ftruncate zero-fills), but construct explicitly:
  // placement-new gives the atomics defined lifetimes.
  ArenaHdr* h = new (base_) ArenaHdr{};
  Slot* slots = arena_slots(base_);
  for (std::uint32_t i = 0; i < slots_n_; ++i) new (&slots[i]) Slot{};
  h->magic = kArenaMagic;
  h->version = kWireVersion;
  h->slot_count = slots_n_;
  h->slot_bytes = sizeof(Slot);
  h->client_pid = static_cast<std::uint32_t>(getpid());
  h->generation = generation_;
  h->heartbeat.store(1, std::memory_order_relaxed);
  h->client_hello_ns = mono_ns();
  // Commit point: everything above must be visible before the hello.
  h->phase.store(kHello, std::memory_order_release);

  const std::uint64_t deadline = mono_ns() + opt.connect_timeout_ns;
  for (;;) {
    const std::uint32_t ph = h->phase.load(std::memory_order_acquire);
    if (ph == kAccepted) return Err::kOk;
    if (ph == kRefused || ph == kServerClosed) break;
    if (mono_ns() >= deadline) break;
    futex_wait(&h->phase, ph, kParkTickNs);
  }
  disconnect();
  return Err::kConnect;
}

ShmClient::Err ShmClient::check_server_alive() {
  ArenaHdr* h = hdr();
  const std::uint32_t ph = h->phase.load(std::memory_order_acquire);
  if (ph == kServerClosed) return Err::kServerGone;
  const pid_t sp = static_cast<pid_t>(h->server_pid);
  if (sp != 0 && kill(sp, 0) != 0 && errno == ESRCH) {
    return Err::kServerGone;
  }
  return Err::kOk;
}

int ShmClient::submit(WireOp op, std::uint64_t key, std::uint64_t value) {
  if (!connected()) return -1;
  ArenaHdr* h = hdr();
  Slot* slots = arena_slots(base_);
  int idx = -1;
  // Start at the slot wait() freed last: in a closed loop it is the free
  // one, and its line is still in this core's cache.
  for (std::uint32_t k = 0; k < slots_n_; ++k) {
    const std::uint32_t i = (free_hint_ + k) % slots_n_;
    if (slots[i].state.load(std::memory_order_relaxed) == kSlotFree) {
      idx = static_cast<int>(i);
      break;
    }
  }
  if (idx < 0) return -1;  // bounded arena: client-side shed
  Slot& s = slots[static_cast<std::uint32_t>(idx)];
  s.owner_pid = h->client_pid;
  s.generation = generation_;
  s.seq = next_seq_++;
  s.op = op;
  s.key = key;
  s.value = value;
  s.resp_seq = 0;
  // End-to-end span identity + client-side submit stamp; the server
  // copies both into the svc::Request so the merged trace ties the whole
  // lifecycle to one id. pid<<32|seq is unique per live client and per
  // request (seq never recycles within a session).
  s.span_id = (static_cast<std::uint64_t>(h->client_pid) << 32) |
              (s.seq & 0xffffffffULL);
  s.submit_ns = mono_ns();
  fault_.hit(ClientFaultPoint::kBeforePublish);
  // Publish: the request's commit point. A death before this line left
  // nothing visible; after it, a well-formed request. No wake: the svc
  // worker that owns this arena scans it on every loop.
  s.state.store(kSlotReq, std::memory_order_release);
  beat();
  fault_.hit(ClientFaultPoint::kAfterPublish);
  return idx;
}

ShmClient::Err ShmClient::wait(int slot, Reply* out) {
  if (!connected() || slot < 0 ||
      static_cast<std::uint32_t>(slot) >= slots_n_) {
    return Err::kServerGone;
  }
  Slot& s = arena_slots(base_)[static_cast<std::uint32_t>(slot)];
  const std::uint64_t deadline = mono_ns() + call_timeout_ns_;
  // Short spin first: closed-loop round trips usually resolve within the
  // worker's next batch, cheaper than a park + wake pair.
  for (int i = 0; i < 4096; ++i) {
    if (s.state.load(std::memory_order_acquire) == kSlotDone) break;
  }
  while (s.state.load(std::memory_order_acquire) != kSlotDone) {
    const Err alive = check_server_alive();
    if (alive != Err::kOk) return alive;
    if (mono_ns() >= deadline) return Err::kTimeout;
    beat();
    fault_.hit(ClientFaultPoint::kWhileParked);
    // Dekker with the server's reply (wire.hpp, Slot::parked): announce
    // the park, then re-read the state; the futex compare covers the
    // rest of the window.
    s.parked.store(1, std::memory_order_seq_cst);
    const std::uint32_t st = s.state.load(std::memory_order_seq_cst);
    if (st != kSlotDone) futex_wait(&s.state, st, kParkTickNs);
    s.parked.store(0, std::memory_order_relaxed);
  }
  fault_.hit(ClientFaultPoint::kAfterResponseWritten);
  if (out != nullptr) {
    out->status = static_cast<WireStatus>(s.status);
    out->ok = s.ok != 0;
    out->value = s.out_value;
    out->complete_epoch = s.complete_epoch;
  }
  s.state.store(kSlotFree, std::memory_order_release);
  free_hint_ = static_cast<std::uint32_t>(slot);
  beat();
  return Err::kOk;
}

ShmClient::Err ShmClient::call(WireOp op, std::uint64_t key,
                               std::uint64_t value, Reply* out) {
  const int slot = submit(op, key, value);
  if (slot < 0) return Err::kNoSlot;
  return wait(slot, out);
}

std::uint64_t ShmClient::span_of(int slot) const {
  if (base_ == nullptr || slot < 0 ||
      static_cast<std::uint32_t>(slot) >= slots_n_) {
    return 0;
  }
  return arena_slots(base_)[static_cast<std::uint32_t>(slot)].span_id;
}

void ShmClient::heartbeat() {
  if (connected()) beat();
}

void ShmClient::disconnect() {
  if (!connected()) return;
  ArenaHdr* h = hdr();
  // Only announce goodbye on a live session: overwriting kRefused or
  // kServerClosed would erase the server's verdict.
  std::uint32_t ph = h->phase.load(std::memory_order_acquire);
  if (ph == kHello || ph == kAccepted) {
    h->phase.store(kGoodbye, std::memory_order_release);
  }
  munmap(base_, map_bytes_);
  base_ = nullptr;
  map_bytes_ = 0;
  // The client owns its arena file; the server tolerates the name
  // vanishing at any time (it operates on its own mapping).
  ::unlink(path_.c_str());
  path_.clear();
}

}  // namespace bdhtm::ipc
