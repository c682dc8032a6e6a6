// Server side of the shared-memory transport (DESIGN.md §12): a
// directory-scanning acceptor that maps each client arena and attaches
// it to a svc::KVStore client id as an svc::Source. The svc worker that
// owns that client id scans the arena itself, executes the published
// slots in its batches and writes each reply into its slot — there is no
// thread per session. Sessions are leased: on its poll tick the acceptor
// checks every session's heartbeat and client pid; a dead, silent or
// departing client's arena is detached from its worker at a quiescent
// point, its published-but-unexecuted requests are shed, and the arena
// is unmapped and unlinked. No client behaviour, including SIGKILL at
// any protocol point, can wedge a worker or the acceptor: nothing on the
// server waits on client-shared state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ipc/wire.hpp"
#include "obs/shm_stats.hpp"
#include "svc/kvstore.hpp"

namespace bdhtm::ipc {

class ShmServer {
 public:
  struct Config {
    /// Rendezvous directory the acceptor scans for client arenas.
    std::string dir;
    /// Session registry size: how many client arenas are served at once
    /// (further hellos are refused). No thread is started per session.
    std::uint32_t max_sessions = 8;
    /// First KVStore client id used by sessions; session i is attached
    /// as kv client (kv_client_base + i) and served by the worker that
    /// owns it. The store must be configured with at least
    /// kv_client_base + max_sessions clients.
    int kv_client_base = 0;
    /// Deadman lease: a session whose heartbeat does not advance for
    /// this long is reclaimed (ESRCH on the client pid short-circuits).
    std::uint64_t lease_us = 2'000'000;
    /// Acceptor tick: directory scan, lease and ESRCH checks, detach
    /// completion.
    std::uint64_t poll_us = 2'000;
    /// Live stats export (DESIGN.md §13): when non-empty, a publisher
    /// thread snapshots the global obs registry (plus per-session rows
    /// and the live persistence-lag gauge) into this seqlock-guarded
    /// shared-memory segment every stats_period_us. bdhtm_top attaches
    /// read-only; a dead or absent reader costs the server nothing.
    std::string stats_path;
    std::uint64_t stats_period_us = 100'000;
  };

  /// Point-in-time registry counters (monotonic; also exported as
  /// ipc.* in the global obs registry).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    std::uint64_t closed = 0;        // graceful goodbyes
    std::uint64_t reclaims = 0;      // dead-client reclaims
    std::uint64_t dead_shed = 0;     // published requests shed at reclaim
    std::uint64_t orphans = 0;       // responses written, never consumed
    std::uint64_t lease_expirations = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
  };

  ShmServer(svc::KVStore& store, Config cfg);
  ~ShmServer();
  ShmServer(const ShmServer&) = delete;
  ShmServer& operator=(const ShmServer&) = delete;

  /// Stop accepting, tear down every session (pending published
  /// requests resolve kClosed so live clients unblock), join all
  /// threads. Does NOT close the underlying store. Idempotent.
  void close();

  Stats stats() const;
  std::uint32_t active_sessions() const;

 private:
  /// One registry entry. The acceptor owns it while idle and from the
  /// moment detached() reads true; in between, the svc worker that owns
  /// its kv client pulls and completes its slots.
  struct Session final : svc::Source {
    enum : std::uint32_t { kIdle = 0, kServing = 1, kDetaching = 2 };
    enum class End : std::uint8_t { kGoodbye, kDead, kLease };

    std::size_t pull(svc::Request** out, std::size_t max) override;
    void complete(svc::Request& req) override;

    std::atomic<std::uint32_t> phase{kIdle};  // written by the acceptor
    void* base = nullptr;
    std::size_t map_bytes = 0;
    std::uint32_t client_pid = 0;
    std::uint64_t generation = 0;
    std::uint32_t slot_count = 0;
    std::string path;
    /// Requests pulled (lifetime total across every client the entry
    /// served); exported as a per-session stats row.
    std::atomic<std::uint64_t> ops{0};
    // Acceptor-private supervision state.
    std::uint64_t last_hb = 0;
    std::uint64_t hb_change_ns = 0;
    std::uint64_t end_ns = 0;
    End end = End::kGoodbye;
    // Worker-owned while attached: the server-side request of each slot
    // (the payload copied out of client memory) and the scan cursor.
    std::vector<svc::Request> reqs = std::vector<svc::Request>(kMaxSlots);
    std::uint32_t cursor = 0;
  };

  void acceptor_loop();
  void supervise();
  void stats_loop();
  void publish_stats();
  /// Unmap and unlink detached session `s`'s arena (phase
  /// kServerClosed); sheds any still-published requests (status
  /// kStClientGone/kStClosed written for forensics). Returns the number
  /// of slots shed.
  std::uint32_t teardown(Session& s);
  bool try_accept(const std::string& path);

  svc::KVStore& store_;
  Config cfg_;
  std::atomic<bool> running_{true};
  // Serializes close(): a second concurrent closer queues behind the
  // first and returns only once every thread is joined (same contract
  // as svc::KVStore::close()).
  std::mutex close_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::thread acceptor_;
  std::vector<std::string> handled_;  // acceptor-private: seen paths

  // Live stats export (only when cfg_.stats_path is set).
  obs::StatsPublisher stats_pub_;
  std::thread stats_thread_;
};

}  // namespace bdhtm::ipc
