#include "ipc/server.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "epoch/batch.hpp"
#include "ipc/futex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bdhtm::ipc {

// The wire enums are the client's only view of the durable core's
// vocabulary; pin them to the real values so the client headers can
// stay free of svc/epoch includes.
static_assert(kOpGet ==
              static_cast<std::uint32_t>(epoch::BatchOp::Kind::kGet));
static_assert(kOpPut ==
              static_cast<std::uint32_t>(epoch::BatchOp::Kind::kPut));
static_assert(kOpRemove ==
              static_cast<std::uint32_t>(epoch::BatchOp::Kind::kRemove));
static_assert(kStOk == static_cast<std::uint32_t>(svc::Status::kOk));
static_assert(kStNotFound ==
              static_cast<std::uint32_t>(svc::Status::kNotFound));
static_assert(kStRejected ==
              static_cast<std::uint32_t>(svc::Status::kRejected));
static_assert(kStClosed == static_cast<std::uint32_t>(svc::Status::kClosed));
static_assert(kStUnsupported ==
              static_cast<std::uint32_t>(svc::Status::kUnsupported));
static_assert(kStClientGone ==
              static_cast<std::uint32_t>(svc::Status::kClientGone));
static_assert(kStInvalid == static_cast<std::uint32_t>(svc::Status::kInvalid));

namespace {

struct IpcCounters {
  obs::Counter& accepted;
  obs::Counter& refused;
  obs::Counter& closed;
  obs::Counter& reclaims;
  obs::Counter& dead_shed;
  obs::Counter& orphans;
  obs::Counter& lease_expirations;
  obs::Counter& requests;
  obs::Counter& responses;
};

IpcCounters& cnt() {
  static IpcCounters c{
      obs::Registry::global().counter("ipc.sessions.accepted"),
      obs::Registry::global().counter("ipc.sessions.refused"),
      obs::Registry::global().counter("ipc.sessions.closed"),
      obs::Registry::global().counter("ipc.reclaims"),
      obs::Registry::global().counter("ipc.dead_shed"),
      obs::Registry::global().counter("ipc.orphan_completions"),
      obs::Registry::global().counter("ipc.lease_expirations"),
      obs::Registry::global().counter("ipc.requests"),
      obs::Registry::global().counter("ipc.responses"),
  };
  return c;
}

bool pid_vanished(std::uint32_t pid) {
  if (pid == 0) return false;
  return kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

/// Publish a written reply. Dekker with the client's park (wire.hpp,
/// Slot::parked): the futex syscall is paid only for a parked client.
void publish_reply(Slot& sl) {
  sl.state.store(kSlotDone, std::memory_order_seq_cst);
  if (sl.parked.load(std::memory_order_seq_cst) != 0) {
    futex_wake(&sl.state, 1);
  }
}

/// Resolve a published slot without executing it.
void shed_slot(Slot& sl, std::uint32_t status) {
  sl.status = status;
  sl.ok = 0;
  sl.complete_epoch = 0;
  sl.resp_seq = sl.seq;
  publish_reply(sl);
}

}  // namespace

ShmServer::ShmServer(svc::KVStore& store, Config cfg)
    : store_(store), cfg_(std::move(cfg)) {
  if (cfg_.max_sessions == 0) cfg_.max_sessions = 1;
  sessions_.reserve(cfg_.max_sessions);
  for (std::uint32_t i = 0; i < cfg_.max_sessions; ++i) {
    auto s = std::make_unique<Session>();
    for (svc::Request& r : s->reqs) r.source = s.get();
    sessions_.push_back(std::move(s));
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  if (!cfg_.stats_path.empty() && stats_pub_.create(cfg_.stats_path)) {
    stats_thread_ = std::thread([this] { stats_loop(); });
  }
}

void ShmServer::stats_loop() {
  while (running_.load(std::memory_order_acquire)) {
    publish_stats();
    std::this_thread::sleep_for(
        std::chrono::microseconds(cfg_.stats_period_us));
  }
  publish_stats();  // final snapshot: --once readers see the full totals
}

// Monitoring-grade reads: session fields (client_pid) are written by the
// acceptor without a lock; a stats row may be a tick stale or catch a
// session mid-handoff, which is the usual monitoring contract. The
// annotation keeps TSan from flagging these deliberate unsynchronized
// samples in the sanitizer lanes.
BDHTM_NO_SANITIZE_THREAD
void ShmServer::publish_stats() {
  // Live gauges are sampled at the publish tick (they are "right now"
  // values, not accumulations): the store's persistence lag and the
  // session registry occupancy.
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("epoch.persistence_lag_us")
      .set(static_cast<std::int64_t>(
          store_.epoch_sys().persistence_lag_ns() / 1000));
  reg.gauge("ipc.active_sessions")
      .set(static_cast<std::int64_t>(active_sessions()));

  std::vector<obs::StatsPublisher::SessionRow> rows;
  rows.reserve(sessions_.size());
  for (std::uint32_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = *sessions_[i];
    rows.push_back({"sess." + std::to_string(i), s.client_pid,
                    s.phase.load(std::memory_order_acquire),
                    s.ops.load(std::memory_order_relaxed)});
  }
  stats_pub_.publish(reg.snapshot(), rows);
}

ShmServer::~ShmServer() { close(); }

void ShmServer::close() {
  std::lock_guard<std::mutex> g(close_mu_);
  if (!running_.load(std::memory_order_acquire)) return;  // already closed
  running_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (stats_thread_.joinable()) stats_thread_.join();
  // The acceptor is gone, so this thread owns the registry. Take every
  // arena back from its worker, then resolve what is still published as
  // kClosed so live clients unblock with a typed verdict.
  for (auto& s : sessions_) {
    if (s->phase.load(std::memory_order_relaxed) != Session::kIdle) {
      store_.detach(s.get());
    }
  }
  for (auto& s : sessions_) {
    if (s->phase.load(std::memory_order_relaxed) == Session::kIdle) continue;
    while (!s->detached()) {
      std::this_thread::sleep_for(std::chrono::microseconds(cfg_.poll_us));
    }
    teardown(*s);
    s->phase.store(Session::kIdle, std::memory_order_release);
  }
}

ShmServer::Stats ShmServer::stats() const {
  IpcCounters& m = cnt();
  Stats out;
  out.accepted = m.accepted.total();
  out.refused = m.refused.total();
  out.closed = m.closed.total();
  out.reclaims = m.reclaims.total();
  out.dead_shed = m.dead_shed.total();
  out.orphans = m.orphans.total();
  out.lease_expirations = m.lease_expirations.total();
  out.requests = m.requests.total();
  out.responses = m.responses.total();
  return out;
}

std::uint32_t ShmServer::active_sessions() const {
  std::uint32_t n = 0;
  for (const auto& s : sessions_) {
    if (s->phase.load(std::memory_order_acquire) != Session::kIdle) ++n;
  }
  return n;
}

void ShmServer::acceptor_loop() {
  while (running_.load(std::memory_order_acquire)) {
    std::vector<std::string> present;
    if (DIR* d = opendir(cfg_.dir.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() < 7 || name.compare(name.size() - 6, 6, ".arena") != 0) {
          continue;
        }
        present.push_back(cfg_.dir + "/" + name);
      }
      closedir(d);
    }
    // Prune handled entries whose files vanished (client unlinked, or a
    // reclaim unlinked them) so the bookkeeping stays bounded.
    handled_.erase(std::remove_if(handled_.begin(), handled_.end(),
                                  [&](const std::string& p) {
                                    return std::find(present.begin(),
                                                     present.end(),
                                                     p) == present.end();
                                  }),
                   handled_.end());
    for (const std::string& p : present) {
      if (std::find(handled_.begin(), handled_.end(), p) != handled_.end()) {
        continue;
      }
      if (try_accept(p)) handled_.push_back(p);
    }
    supervise();
    std::this_thread::sleep_for(std::chrono::microseconds(cfg_.poll_us));
  }
}

// Returns true when `path` has been fully dispositioned (accepted or
// refused); false = still initializing, rescan next tick.
bool ShmServer::try_accept(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return true;  // vanished between scan and open
  struct stat st{};
  if (fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) <
                                 kHeaderBytes) {
    // Too small to even carry a header: either still being ftruncated
    // (rescan) or garbage we must not touch (mapping past EOF SIGBUSes).
    ::close(fd);
    return false;
  }
  void* head = mmap(nullptr, kHeaderBytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd, 0);
  if (head == MAP_FAILED) {
    ::close(fd);
    return true;
  }
  auto* h = static_cast<ArenaHdr*>(head);
  const std::uint32_t ph = h->phase.load(std::memory_order_acquire);
  if (ph == 0) {
    // No hello yet: the arena is mid-initialization (phase is the
    // client's commit point). Come back next tick.
    munmap(head, kHeaderBytes);
    ::close(fd);
    return false;
  }
  const auto free_it =
      std::find_if(sessions_.begin(), sessions_.end(), [](const auto& s) {
        return s->phase.load(std::memory_order_relaxed) == Session::kIdle;
      });
  void* base = MAP_FAILED;
  const bool valid =
      ph == kHello && h->magic == kArenaMagic && h->version == kWireVersion &&
      h->slot_count != 0 && h->slot_count <= kMaxSlots &&
      h->slot_bytes == sizeof(Slot) &&
      static_cast<std::size_t>(st.st_size) == arena_bytes(h->slot_count);
  // Refused when malformed, when the registry is full, or when the full
  // map fails.
  if (valid && free_it != sessions_.end()) {
    base = mmap(nullptr, arena_bytes(h->slot_count), PROT_READ | PROT_WRITE,
                MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (base == MAP_FAILED) {
    // Count before publishing the verdict: the refused client resumes
    // the instant it sees kRefused, and anything it then asserts about
    // the refusal (tests poll this counter) must already be visible.
    cnt().refused.add();
    h->phase.store(kRefused, std::memory_order_release);
    futex_wake(&h->phase, 1);
    munmap(head, kHeaderBytes);
    return true;
  }
  munmap(head, kHeaderBytes);
  auto* ah = static_cast<ArenaHdr*>(base);
  Session& s = **free_it;
  const auto idx = static_cast<std::uint32_t>(free_it - sessions_.begin());
  s.base = base;
  s.slot_count = ah->slot_count;
  s.map_bytes = arena_bytes(s.slot_count);
  s.client_pid = ah->client_pid;
  s.generation = ah->generation;
  s.path = path;
  s.cursor = 0;
  s.last_hb = ah->heartbeat.load(std::memory_order_relaxed);
  s.hb_change_ns = mono_ns();
  ah->server_pid = static_cast<std::uint32_t>(getpid());
  // Clock handshake: pairs with the client's client_hello_ns stamp; the
  // difference bounds how far apart the two processes' span timestamps
  // can be for transport reasons (one shared CLOCK_MONOTONIC, no offset).
  ah->server_accept_ns = mono_ns();
  cnt().accepted.add();
  obs::trace_instant(obs::TraceEventType::kIpcSession, idx, s.client_pid);
  s.phase.store(Session::kServing, std::memory_order_release);
  // Attach BEFORE answering the hello: the client may publish the
  // instant it sees kAccepted.
  store_.attach(cfg_.kv_client_base + static_cast<int>(idx), &s);
  ah->phase.store(kAccepted, std::memory_order_release);
  futex_wake(&ah->phase, 1);
  return true;
}

void ShmServer::supervise() {
  const std::uint64_t now = mono_ns();
  const std::uint64_t lease_ns = cfg_.lease_us * 1000;
  for (std::uint32_t idx = 0; idx < sessions_.size(); ++idx) {
    Session& s = *sessions_[idx];
    const std::uint32_t ph = s.phase.load(std::memory_order_relaxed);
    if (ph == Session::kIdle) continue;
    if (ph == Session::kServing) {
      auto* h = static_cast<ArenaHdr*>(s.base);
      // Deadman liveness: ESRCH is the fast path; a frozen heartbeat for
      // a full lease catches silent death behind pid reuse and wedged
      // clients (holding a session IS the thing the lease bounds).
      const std::uint64_t hb = h->heartbeat.load(std::memory_order_relaxed);
      if (hb != s.last_hb) {
        s.last_hb = hb;
        s.hb_change_ns = now;
      }
      if (h->phase.load(std::memory_order_acquire) == kGoodbye) {
        s.end = Session::End::kGoodbye;
      } else if (now - s.hb_change_ns >= lease_ns) {
        s.end = Session::End::kLease;
      } else if (pid_vanished(s.client_pid)) {
        s.end = Session::End::kDead;
      } else {
        // Live client. A session the store let go of on its own was
        // swept by KVStore::close(): nothing executes any more, so what
        // the client publishes is answered kClosed here.
        if (s.detached()) {
          Slot* slots = arena_slots(s.base);
          for (std::uint32_t i = 0; i < s.slot_count; ++i) {
            if (slots[i].state.load(std::memory_order_acquire) == kSlotReq) {
              shed_slot(slots[i], kStClosed);
            }
          }
        }
        continue;
      }
      // Published requests stay unexecuted from here on: the worker
      // pulls no more, and lets go once its pulled ones have completed.
      s.end_ns = now;
      store_.detach(&s);
      s.phase.store(Session::kDetaching, std::memory_order_release);
    }
    if (!s.detached()) continue;
    const std::uint32_t shed = teardown(s);
    if (s.end == Session::End::kGoodbye) {
      cnt().closed.add();
    } else {
      cnt().reclaims.add();
      cnt().dead_shed.add(shed);
      if (s.end == Session::End::kLease) cnt().lease_expirations.add();
      obs::trace_complete(obs::TraceEventType::kIpcReclaim, s.end_ns, idx,
                          shed);
    }
    s.phase.store(Session::kIdle, std::memory_order_release);
  }
}

std::size_t ShmServer::Session::pull(svc::Request** out, std::size_t max) {
  Slot* slots = arena_slots(base);
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < slot_count && n < max; ++k) {
    const std::uint32_t i = cursor;
    cursor = cursor + 1 == slot_count ? 0 : cursor + 1;
    Slot& sl = slots[i];
    if (sl.state.load(std::memory_order_acquire) != kSlotReq) continue;
    // Stamp validation before execution: a slot whose owner stamp
    // disagrees with the header is from a dead incarnation (pid reuse
    // over a recycled arena) and is shed, never executed.
    if (sl.owner_pid != client_pid || sl.generation != generation) {
      shed_slot(sl, kStClientGone);
      cnt().dead_shed.add();
      continue;
    }
    sl.state.store(kSlotExec, std::memory_order_relaxed);
    // Copy the payload out once: the client may scribble on its slot at
    // any time, so only these copies are trusted, and the store's
    // admit() validates them. The op is clamped, not truncated, into
    // the 8-bit kind so no out-of-range value aliases a real one.
    svc::Request& r = reqs[i];
    r.op.kind = static_cast<epoch::BatchOp::Kind>(
        std::min<std::uint32_t>(sl.op, 0xff));
    r.op.key = sl.key;
    r.op.value = sl.value;
    r.op.ok = false;
    r.op.out_value = 0;
    r.status = svc::Status::kOk;
    // Carry the client's span identity and submit stamp through the
    // svc layer (same host clock on both sides). The req.queue span
    // covers client publish -> this pickup.
    r.span_id = sl.span_id;
    r.t_origin_ns = sl.submit_ns;
    if (r.span_id != 0 && obs::tracing_enabled()) {
      obs::trace_complete(obs::TraceEventType::kReqQueue, r.t_origin_ns,
                          r.span_id, i);
    }
    out[n++] = &r;
  }
  if (n != 0) {
    cnt().requests.add(n);
    ops.fetch_add(n, std::memory_order_relaxed);
  }
  return n;
}

void ShmServer::Session::complete(svc::Request& r) {
  Slot& sl = arena_slots(base)[&r - reqs.data()];
  sl.status = static_cast<std::uint32_t>(r.status);
  sl.ok = r.op.ok ? 1 : 0;
  sl.out_value = r.op.out_value;
  sl.complete_epoch = r.complete_epoch;
  sl.resp_seq = sl.seq;
  publish_reply(sl);
  cnt().responses.add();
}

std::uint32_t ShmServer::teardown(Session& s) {
  auto* h = static_cast<ArenaHdr*>(s.base);
  Slot* slots = arena_slots(s.base);
  std::uint32_t shed = 0;
  std::uint32_t orphans = 0;
  for (std::uint32_t i = 0; i < s.slot_count; ++i) {
    Slot& sl = slots[i];
    const std::uint32_t st = sl.state.load(std::memory_order_acquire);
    if (st == kSlotReq) {
      // Published but never executed: SHED, not replayed. The client
      // that could retry it is gone (or the server is closing); running
      // it now would apply an op nobody can observe the verdict of.
      // kStClientGone is forensic — visible in the arena file if a
      // post-mortem maps it. On server shutdown a live client reads it
      // as kStClosed.
      shed_slot(sl,
                running_.load(std::memory_order_acquire)
                    ? static_cast<std::uint32_t>(kStClientGone)
                    : static_cast<std::uint32_t>(kStClosed));
      ++shed;
    } else if (st == kSlotDone) {
      // Response written, never consumed (death between the response
      // and the client's read — ClientFaultPoint::kAfterResponseWritten
      // or kWhileParked after the reply landed).
      ++orphans;
    }
  }
  if (orphans != 0) cnt().orphans.add(orphans);
  h->phase.store(kServerClosed, std::memory_order_release);
  futex_wake(&h->phase, 1 << 30);
  munmap(s.base, s.map_bytes);
  s.base = nullptr;
  // Dead clients cannot unlink their own arena; doing it here keeps the
  // rendezvous directory from accumulating corpses. ENOENT (the client
  // already unlinked on goodbye) is fine.
  ::unlink(s.path.c_str());
  s.client_pid = 0;
  return shed;
}

}  // namespace bdhtm::ipc
