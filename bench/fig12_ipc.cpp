// Fig. 12 — out-of-process serving (DESIGN.md §12): what the
// shared-memory transport costs over in-process service calls, and what
// the deadman reclaim machinery buys under a client kill storm.
//
// Table "transport" — same store configuration (BD-Spash backend,
// 2 shards, 2 workers, batched), same mixed workload, two front doors:
//
//   in-process — closed-loop submitter threads call
//                KVStore::submit/wait directly (fig10's batched shape):
//                the upper reference, no transport at all.
//   shm        — the same client count as separate PROCESSES
//                (tools/ipc_client) over the file-backed arena
//                transport, each arena served in place by the svc worker
//                that owns its session.
//
// Expected shape: shm trails in-process in throughput — the client
// processes and the workers share the cores, and a parked client costs
// a futex wake — but its p50 sits near the in-process one; its p99
// includes the client processes' park ticks.
//
// Table "kill storm" — remote clients run the same workload while the
// driver SIGKILLs one every storm tick and immediately respawns a
// replacement. Reported: surviving goodput (acked ops from every log,
// including each victim's acked prefix), kills delivered, sessions
// reclaimed, published-but-unexecuted requests shed, orphaned
// responses, and a wedged_workers probe — after the storm the driver
// submits one in-process request; 0 means every shard worker still
// drains (the never-wedge property, the row CI asserts to be exactly 0).
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "bench/bench_common.hpp"
#include "epoch/epoch_sys.hpp"
#include "ipc/server.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "svc/kvstore.hpp"

using namespace bdhtm;

namespace {

constexpr int kClients = 4;
constexpr std::size_t kFlight = 8;
constexpr std::uint64_t kKeySpace = 1 << 14;

struct World {
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

World make_world() {
  World w;
  w.dev = std::make_unique<nvm::Device>(bench::nvm_cfg(512ull << 20));
  w.pa = std::make_unique<alloc::PAllocator>(*w.dev);
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 50'000;
  w.es = std::make_unique<epoch::EpochSys>(*w.pa, ecfg);
  return w;
}

/// Store sized for one in-process probe client (id 0) plus `sessions`
/// transport sessions (ids 1..sessions).
svc::KVStoreConfig store_cfg(int sessions) {
  svc::KVStoreConfig cfg;
  cfg.backend = svc::Backend::kHash;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.clients = 1 + sessions;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.shard_opt.hash_initial_depth = 4;
  return cfg;
}

std::string make_dir() {
  char tmpl[] = "/tmp/bdhtm-fig12-XXXXXX";
  const char* d = mkdtemp(tmpl);
  return d != nullptr ? d : "";
}

void remove_dir(const std::string& dir) {
  // Arenas of gracefully-exited clients are already unlinked; reclaimed
  // and killed clients' files go with the server teardown, so only the
  // logs and the directory itself remain.
  std::string cmd = "rm -rf " + dir;
  (void)std::system(cmd.c_str());
}

pid_t spawn_client(const std::string& bin,
                   const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

struct ClientSummary {
  std::uint64_t acked = 0;  // counted A lines (survives SIGKILL mid-run)
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  bool has_summary = false;
};

ClientSummary parse_log(const std::string& path) {
  ClientSummary s;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return s;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == 'A') {
      ++s.acked;
    } else if (line[0] == 'R') {
      std::uint64_t ops = 0, errs = 0, noslot = 0;
      if (std::sscanf(line,
                      "R ops=%llu errs=%llu noslot=%llu p50_ns=%llu "
                      "p99_ns=%llu",
                      reinterpret_cast<unsigned long long*>(&ops),
                      reinterpret_cast<unsigned long long*>(&errs),
                      reinterpret_cast<unsigned long long*>(&noslot),
                      reinterpret_cast<unsigned long long*>(&s.p50_ns),
                      reinterpret_cast<unsigned long long*>(&s.p99_ns)) ==
          5) {
        s.has_summary = true;
      }
    }
  }
  std::fclose(f);
  return s;
}

struct Cell {
  double mops = 0;
  double p50_us = 0, p99_us = 0;
};

/// Per-cell persistence-lag columns. The epoch advancer records one
/// `epoch.persistence_lag_us` sample per published epoch into the
/// process-global registry (DESIGN.md §13): snapshot the histogram
/// after the cell's world has closed, emit p50/p99 rows, and reset it
/// so the next cell's distribution starts clean. The final cell skips
/// the reset so the registry dump in BENCH_fig12_ipc.json still
/// carries a non-empty lag histogram.
void record_lag_rows(const char* table, const std::string& prefix,
                     bool reset) {
  auto& h = obs::Registry::global().histogram("epoch.persistence_lag_us");
  const obs::HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.50);
  const double p99 = s.quantile(0.99);
  std::printf("  %-11s persistence lag  p50 %7.0f us  p99 %7.0f us  "
              "(%llu epochs)\n",
              prefix.c_str(), p50, p99,
              static_cast<unsigned long long>(s.count));
  bench::record_row(table, prefix + " plag p50", kClients, p50, "us");
  bench::record_row(table, prefix + " plag p99", kClients, p99, "us");
  if (reset) h.reset();
}

// ---- In-process reference ----

Cell run_in_process(std::uint64_t ms) {
  World w = make_world();
  svc::KVStore store(*w.es, store_cfg(kClients));
  std::atomic<bool> start{false}, stop{false};
  std::vector<std::uint64_t> ops_done(kClients, 0);
  std::vector<std::vector<std::uint64_t>> lat(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t rng = splitmix64(0xf16'12 + c);
      std::vector<svc::Request> flight(kFlight);
      auto& l = lat[c];
      l.reserve(1 << 16);
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& r : flight) {
          rng = splitmix64(rng);
          const std::uint64_t k = rng % kKeySpace;
          r = (rng >> 32) % 2 == 0 ? svc::Request::get(k)
                                   : svc::Request::put(k, k + 1);
          store.submit(1 + c, &r);
        }
        for (auto& r : flight) {
          store.wait(&r);
          l.push_back(now_ns() - r.t_submit_ns);
        }
        ops_done[c] += kFlight;
      }
    });
  }
  const std::uint64_t t0 = now_ns();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  store.close();
  bench::note_epoch_stats(w.es->stats());

  Cell cell;
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> all;
  for (int c = 0; c < kClients; ++c) {
    ops += ops_done[c];
    all.insert(all.end(), lat[c].begin(), lat[c].end());
  }
  cell.mops = secs > 0 ? static_cast<double>(ops) / secs / 1e6 : 0;
  std::sort(all.begin(), all.end());
  auto q = [&](double f) {
    return all.empty() ? 0.0
                       : static_cast<double>(all[std::min(
                             all.size() - 1,
                             static_cast<std::size_t>(
                                 f * static_cast<double>(all.size())))]) /
                             1e3;
  };
  cell.p50_us = q(0.50);
  cell.p99_us = q(0.99);
  return cell;
}

// ---- Remote (shm transport) cells ----

std::vector<std::string> client_args(const std::string& dir,
                                     const std::string& log,
                                     std::uint64_t ms, int seed) {
  return {
      "--dir=" + dir,
      "--log=" + log,
      "--slots=16",
      "--flight=" + std::to_string(kFlight),
      "--ms=" + std::to_string(ms),
      "--mode=mixed",
      "--key-base=0",
      "--key-count=" + std::to_string(kKeySpace),
      "--seed=" + std::to_string(seed),
  };
}

Cell run_shm(std::uint64_t ms) {
  World w = make_world();
  svc::KVStore store(*w.es, store_cfg(kClients));
  const std::string dir = make_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = kClients;
  scfg.kv_client_base = 1;
  auto server = std::make_unique<ipc::ShmServer>(store, scfg);

  std::vector<pid_t> pids;
  std::vector<std::string> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.push_back(dir + "/cli" + std::to_string(c) + ".log");
    pids.push_back(
        spawn_client(BDHTM_IPC_CLIENT_BIN, client_args(dir, logs[c], ms, c)));
  }
  const std::uint64_t t0 = now_ns();
  for (pid_t p : pids) {
    int st = 0;
    waitpid(p, &st, 0);
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  server->close();
  store.close();
  bench::note_epoch_stats(w.es->stats());

  Cell cell;
  std::uint64_t ops = 0;
  double p50 = 0, p99 = 0;
  int with_summary = 0;
  for (const auto& l : logs) {
    const ClientSummary s = parse_log(l);
    ops += s.acked;
    if (s.has_summary) {
      ++with_summary;
      p50 += static_cast<double>(s.p50_ns) / 1e3;
      p99 = std::max(p99, static_cast<double>(s.p99_ns) / 1e3);
    }
  }
  cell.mops = secs > 0 ? static_cast<double>(ops) / secs / 1e6 : 0;
  cell.p50_us = with_summary > 0 ? p50 / with_summary : 0;
  cell.p99_us = p99;
  remove_dir(dir);
  return cell;
}

struct StormResult {
  double goodput_mops = 0;
  std::uint64_t kills = 0;
  ipc::ShmServer::Stats stats{};
  int wedged_workers = 0;
};

StormResult run_kill_storm(std::uint64_t ms) {
  World w = make_world();
  // One spare session beyond the live client count so a respawned
  // replacement can connect while its predecessor's slot is still
  // being reclaimed.
  svc::KVStore store(*w.es, store_cfg(kClients + 1));
  const std::string dir = make_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = kClients + 1;
  scfg.kv_client_base = 1;
  scfg.poll_us = 1000;
  // Generous lease: kills are detected via ESRCH, not lease expiry, so
  // the reclaim latency row reflects the pid probe, not the lease.
  scfg.lease_us = 60'000'000;
  auto server = std::make_unique<ipc::ShmServer>(store, scfg);

  std::vector<pid_t> pids(kClients, -1);
  std::vector<std::string> logs;
  int next_log = 0;
  auto launch = [&](int slot) {
    logs.push_back(dir + "/storm" + std::to_string(next_log) + ".log");
    pids[slot] = spawn_client(
        BDHTM_IPC_CLIENT_BIN,
        client_args(dir, logs.back(), ms, 100 + next_log));
    ++next_log;
  };
  for (int c = 0; c < kClients; ++c) launch(c);

  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + ms * 1'000'000ULL;
  const std::uint64_t tick_ns = std::max<std::uint64_t>(ms / 8, 5) * 1'000'000;
  std::uint64_t kills = 0;
  std::uint64_t victim = 0;
  while (now_ns() + tick_ns < deadline) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(tick_ns));
    const int slot = static_cast<int>(victim++ % kClients);
    if (pids[slot] > 0 && kill(pids[slot], SIGKILL) == 0) {
      ++kills;
      int st = 0;
      waitpid(pids[slot], &st, 0);
      launch(slot);  // respawn: the storm keeps client count constant
    }
  }
  for (pid_t p : pids) {
    if (p > 0) {
      int st = 0;
      waitpid(p, &st, 0);
    }
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;

  // Reclaims lag kills by the pid-probe poll; give the deadman a
  // bounded window to finish before sampling the counters.
  const std::uint64_t reclaim_deadline = now_ns() + 5'000'000'000ULL;
  while (server->stats().reclaims < kills && now_ns() < reclaim_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  StormResult res;
  res.kills = kills;
  res.stats = server->stats();

  // The never-wedge probe: one in-process request through the same
  // store the storm hammered. A wedged shard worker would park this
  // wait forever; CI runs the bench under `timeout`, so a wedge fails
  // the lane rather than hanging it.
  svc::Request probe = svc::Request::put(0xdead, 0xbeef);
  res.wedged_workers = 1;
  if (store.submit(0, &probe)) {
    store.wait(&probe);
    if (probe.status == svc::Status::kOk) res.wedged_workers = 0;
  }

  server->close();
  store.close();
  bench::note_epoch_stats(w.es->stats());

  std::uint64_t acked = 0;
  for (const auto& l : logs) acked += parse_log(l).acked;
  res.goodput_mops =
      secs > 0 ? static_cast<double>(acked) / secs / 1e6 : 0;
  remove_dir(dir);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("fig12_ipc", argc, argv);
  bench::set_structure("bd-spash");
  const std::uint64_t ms = bench::bench_ms();

  bench::print_header(
      "Fig 12 — shared-memory transport vs in-process service, and "
      "goodput under a client kill storm",
      "BDHTM_BENCH_MS scales every cell");

  const Cell inproc = run_in_process(ms);
  std::printf("transport=in-process  %7.3f Mops  p50 %7.1f us  p99 %7.1f us\n",
              inproc.mops, inproc.p50_us, inproc.p99_us);
  bench::record_row("transport", "in-process", kClients, inproc.mops, "Mops");
  bench::record_row("transport", "in-process p50", kClients, inproc.p50_us,
                    "us");
  bench::record_row("transport", "in-process p99", kClients, inproc.p99_us,
                    "us");
  record_lag_rows("transport", "in-process", /*reset=*/true);

  const Cell shm = run_shm(ms);
  std::printf("transport=shm         %7.3f Mops  p50 %7.1f us  p99 %7.1f us\n",
              shm.mops, shm.p50_us, shm.p99_us);
  bench::record_row("transport", "shm", kClients, shm.mops, "Mops");
  bench::record_row("transport", "shm p50", kClients, shm.p50_us, "us");
  bench::record_row("transport", "shm p99", kClients, shm.p99_us, "us");
  record_lag_rows("transport", "shm", /*reset=*/true);

  const StormResult storm = run_kill_storm(ms);
  std::printf(
      "kill-storm: goodput %7.3f Mops  kills=%llu reclaims=%llu "
      "dead_shed=%llu orphans=%llu wedged_workers=%d\n",
      storm.goodput_mops, static_cast<unsigned long long>(storm.kills),
      static_cast<unsigned long long>(storm.stats.reclaims),
      static_cast<unsigned long long>(storm.stats.dead_shed),
      static_cast<unsigned long long>(storm.stats.orphans),
      storm.wedged_workers);
  bench::record_row("kill storm", "goodput", kClients, storm.goodput_mops,
                    "Mops");
  bench::record_row("kill storm", "kills", kClients,
                    static_cast<double>(storm.kills), "count");
  bench::record_row("kill storm", "reclaims", kClients,
                    static_cast<double>(storm.stats.reclaims), "count");
  bench::record_row("kill storm", "dead_shed", kClients,
                    static_cast<double>(storm.stats.dead_shed), "count");
  bench::record_row("kill storm", "orphans", kClients,
                    static_cast<double>(storm.stats.orphans), "count");
  bench::record_row("kill storm", "wedged_workers", kClients,
                    static_cast<double>(storm.wedged_workers), "count");
  record_lag_rows("kill storm", "storm", /*reset=*/false);

  return bench::finish();
}
