// BD-HTM benchmark driver: one process runs one round of one workload.
//
// A round builds the world (device, allocator, epoch system, structure or
// store, and for shm the server plus connected clients), drives it from
// at most three closed-loop load-generator threads through the public
// entry points only (svc::ShardIndex, svc::KVStore, ipc::ShmClient/
// ShmServer, EpochSys), quiesces the store, snapshots every key, crashes
// the device, re-attaches, recovers, and checks the recovered map against
// the snapshot. It prints one JSON object as the last line of stdout.
// perfbench/run.py builds this binary, runs the rounds of a run as
// separate processes, and reports the medians.
//
// --trace 0 reports the end-to-end metrics of an untraced window.
// --trace 1 splits the window: an untraced half gives the per-layer
// counter deltas and the untraced throughput; a traced half records the
// generator's spans and turns on the program's req.* events for sampled
// requests, giving per-layer self times and the tracing overhead.
//
// Every phase runs under a deadline. If load generators do not finish
// their last flight in time (the round is wedged), or a thread takes a
// fatal signal inside the program, the round aborts: every other thread
// is frozen, unfinished operations count as failed, the device is crashed
// and recovered as usual, the result is printed with "aborted" set, and
// the process exits without the teardown that would block.
#include <dirent.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/engine.hpp"
#include "ipc/client.hpp"
#include "ipc/server.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/kvstore.hpp"
#include "svc/shard.hpp"
#include "workload/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace bdhtm;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------
// Workloads (why each exists: perfbench/README.md).

enum class Kind { kDirect, kSvc, kShm };

struct Workload {
  const char* name;
  Kind kind;
  svc::Backend backend;
  int threads;  // load-generator threads (nproc = 4 leaves one core)
  int flight;   // operations in flight per thread
  int read_pct, insert_pct, remove_pct;
  double theta;  // 0 = uniform
  int key_bits;
  int shards;
  svc::ReleasePolicy release;
  std::uint64_t epoch_us;
  std::size_t device_bytes;
};

constexpr Workload kWorkloads[] = {
    {"direct_hash_a", Kind::kDirect, svc::Backend::kHash, 2, 1, 50, 25, 25,
     0.99, 16, 1, svc::ReleasePolicy::kBuffered, 50'000, 64u << 20},
    // Not in BENCHMARK.json: its rounds wedge or crash in the BDL-Skiplist
    // (perfbench/README.md, "Known program defects"). Kept runnable so the
    // defect stays reproducible with the benchmark's own command.
    {"direct_skiplist_a", Kind::kDirect, svc::Backend::kSkiplist, 3, 1, 50,
     25, 25, 0.99, 16, 1, svc::ReleasePolicy::kBuffered, 50'000, 64u << 20},
    {"svc_hash_a", Kind::kSvc, svc::Backend::kHash, 1, 32, 50, 25, 25, 0.99,
     16, 2, svc::ReleasePolicy::kBuffered, 50'000, 64u << 20},
    {"shm_hash_b", Kind::kShm, svc::Backend::kHash, 1, 16, 95, 3, 2, 0.99, 16,
     2, svc::ReleasePolicy::kBuffered, 50'000, 64u << 20},
    {"svc_veb_durable_w", Kind::kSvc, svc::Backend::kVebTree, 3, 64, 20, 40,
     40, 0.0, 20, 1, svc::ReleasePolicy::kDurable, 10'000, 128u << 20},
};

constexpr std::uint64_t kWarmupMs = 500;
constexpr std::uint64_t kSpaceSampleMs = 10;
// The window is cut into slices this long; each timing metric of a round
// is the median over its slices, so a burst of host noise moves only the
// slices it covers.
constexpr std::uint64_t kSliceMs = 200;
constexpr int kMaxGenerators = 3;
static_assert(std::all_of(std::begin(kWorkloads), std::end(kWorkloads),
                          [](const Workload& w) {
                            return w.threads <= kMaxGenerators;
                          }));
// Exit status of a process whose spin-loop calibration is off (below).
constexpr int kExitMiscalibrated = 4;
constexpr double kSpinTolerance = 0.1;
constexpr std::uint64_t kSampleEvery = 16;  // traced half: 1 op in 16
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 18;
constexpr std::size_t kTraceFileOps = 20'000;
constexpr std::size_t kSampleCap = std::size_t{1} << 25;  // per buffer
constexpr std::size_t kSpanCap = std::size_t{1} << 19;    // per thread
constexpr std::uint64_t kKvBytes = 16;  // 8 B key + 8 B value
// Budget for the whole process; the caller's hard limit is 180 s.
constexpr std::uint64_t kProcessBudgetS = 160;
// A drain takes milliseconds (a kDurable flight waits two 10 ms epochs);
// a generator still busy this long after the window is wedged.
constexpr std::uint64_t kDrainDeadlineS = 5;

// The Optane-shaped latency model the repo's figure drivers use.
constexpr std::uint32_t kReadNs = 150, kWriteNs = 60, kFlushNs = 500,
                        kFenceNs = 150;

nvm::DeviceConfig device_cfg(std::size_t capacity) {
  nvm::DeviceConfig c;
  c.capacity = capacity;
  c.read_ns = kReadNs;
  c.write_ns = kWriteNs;
  c.flush_ns = kFlushNs;
  c.fence_ns = kFenceNs;
  return c;
}

/// The one value every write of `k` stores (workload::prefill's too), so
/// a get is correct iff it returns not-found or this.
constexpr std::uint64_t value_of(std::uint64_t k) { return k ^ 0xabcdULL; }

workload::Config gen_cfg(const Workload& w, std::uint64_t seed) {
  workload::Config c =
      workload::Config::mix(w.read_pct, w.insert_pct, w.remove_pct);
  c.key_space = std::uint64_t{1} << w.key_bits;
  c.zipf_theta = w.theta;
  c.threads = w.threads;
  c.seed = seed;
  return c;
}

svc::KVStoreConfig store_cfg(const Workload& w) {
  svc::KVStoreConfig c;
  c.backend = w.backend;
  c.shards = w.kind == Kind::kDirect ? 1 : w.shards;
  c.workers = 1;
  c.clients = w.threads;
  c.queue_capacity = 64;
  c.max_batch = 16;
  c.release = w.release;
  c.shard_opt.veb_ubits = w.key_bits;
  return c;
}

// ---------------------------------------------------------------------
// Result: filled in as phases finish; printed once (normally or by the
// wedge path, which prints whatever is known by then).

const std::set<std::string> kEndToEnd = {
    "throughput_ops_s", "latency_p50_us", "latency_p99_us",
    "write_p50_us",     "cpu_us_per_op",  "ok_frac",
    "space_amp",        "recover_s",      "setup_s"};

struct Result {
  std::mutex mu;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> detail;
  // Per-slice values of the timing metrics, in window order.
  std::map<std::string, std::vector<double>> slices;
  std::vector<std::string> checks_failed;
  std::string aborted;  // why and in which phase; empty normally
  std::uint64_t attempted = 0, failed = 0;
  bool printed = false;
  bool traced = false;

  void metric(const std::string& n, double v, const char* unit) {
    std::lock_guard<std::mutex> g(mu);
    metrics[n] = {v, unit};
  }
  /// End-to-end metrics come only from untraced runs; a traced run, and
  /// any value that is not an end-to-end metric, goes to the detail.
  void e2e(const std::string& n, double v, const char* unit) {
    std::lock_guard<std::mutex> g(mu);
    if (traced || kEndToEnd.count(n) == 0) {
      detail[n] = v;
    } else {
      metrics[n] = {v, unit};
    }
  }
  void note(const std::string& n, double v) {
    std::lock_guard<std::mutex> g(mu);
    detail[n] = v;
  }
  void fail_check(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    checks_failed.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

Result g_result;

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

void print_result(const Workload& w, std::uint64_t seed, int trace) {
  std::lock_guard<std::mutex> g(g_result.mu);
  if (g_result.printed) return;
  g_result.printed = true;
  Result& r = g_result;
  const double ok_frac =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0;
  (r.traced ? r.detail["ok_frac"] : r.metrics["ok_frac"].first) = ok_frac;
  if (!r.traced) r.metrics["ok_frac"].second = "frac";
  r.detail["failed_frac"] = 1.0 - ok_frac;
  std::string o = "{\"workload\":" + json_str(w.name) +
                  ",\"seed\":" + std::to_string(seed) +
                  ",\"trace\":" + std::to_string(trace) +
                  ",\"correct\":" +
                  (r.checks_failed.empty() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"aborted\":" + json_str(r.aborted) +
                  ",\"metrics\":{";
  bool first = true;
  for (const auto& [n, vu] : r.metrics) {
    o += (first ? "" : ",") + json_str(n) + ":{\"value\":" + num(vu.first) +
         ",\"unit\":" + json_str(vu.second) + "}";
    first = false;
  }
  o += "},\"slices\":{";
  first = true;
  for (const auto& [n, vs] : r.slices) {
    o += (first ? "" : ",") + json_str(n) + ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) o += (i ? "," : "") + num(vs[i]);
    o += "]";
    first = false;
  }
  o += "},\"detail\":{";
  first = true;
  for (const auto& [n, v] : r.detail) {
    o += (first ? "" : ",") + json_str(n) + ":" + num(v);
    first = false;
  }
  o += "},\"checks_failed\":[";
  first = true;
  for (const auto& c : r.checks_failed) {
    o += (first ? "" : ",") + json_str(c);
    first = false;
  }
  o += "],\"fingerprint\":{\"nproc\":" +
       std::to_string(std::thread::hardware_concurrency()) +
       ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
       ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
       ",\"obs_noop\":" + (obs::kNoop ? "true" : "false") +
       ",\"device_ns\":{\"read\":" + std::to_string(kReadNs) +
       ",\"write\":" + std::to_string(kWriteNs) +
       ",\"flush\":" + std::to_string(kFlushNs) +
       ",\"fence\":" + std::to_string(kFenceNs) + "}}}";
  std::printf("%s\n", o.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Deadlines and the abort path. One watchdog thread; each phase arms its
// own deadline. A deadline, a wedged drain, or a fatal signal in any
// thread makes the watchdog run abort_run() (defined before main), which
// never returns.

struct Watchdog {
  std::atomic<std::uint64_t> deadline_ns{0};
  std::atomic<const char*> phase{"start"};
  std::atomic<const char*> abort_reason{nullptr};
  std::atomic<int> fault_signal{0};
  std::uint64_t hard_ns = 0;

  void arm(const char* ph, std::uint64_t seconds) {
    phase.store(ph);
    deadline_ns.store(std::min<std::uint64_t>(
        hard_ns, now_ns() + seconds * 1'000'000'000ULL));
    std::fprintf(stderr, "perfbench: phase %s\n", ph);
  }
};

Watchdog g_watchdog;

/// A thread that takes SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT inside the program
/// logs its backtrace and freezes; the watchdog then aborts the run.
extern "C" void on_fault(int sig) {
  static const char msg[] = "perfbench: fatal signal; backtrace:\n";
  (void)!write(2, msg, sizeof msg - 1);
  void* frames[64];
  backtrace_symbols_fd(frames, backtrace(frames, 64), 2);
  int expected = 0;
  g_watchdog.fault_signal.compare_exchange_strong(expected, sig);
  for (;;) pause();
}

/// Parks the receiving thread for good: the abort path's stand-in for
/// the power failure that would have stopped it.
extern "C" void on_freeze(int) {
  for (;;) pause();
}

const int kFreezeSignal = SIGRTMIN + 1;

void install_signal_handlers() {
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder now, not inside the handler
  struct sigaction sa {};
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = on_fault;
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
  sa.sa_handler = on_freeze;
  sigaction(kFreezeSignal, &sa, nullptr);
}

/// Freeze every thread of the process except the caller.
void freeze_other_threads() {
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return;
  while (dirent* e = readdir(d)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid <= 0 || tid == self) continue;
    syscall(SYS_tgkill, getpid(), tid, kFreezeSignal);
  }
  closedir(d);
  // Signals are taken at the next kernel entry or timer tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

// ---------------------------------------------------------------------
// World.

struct World {
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
  std::unique_ptr<svc::ShardIndex> shard;  // direct path
  std::unique_ptr<svc::KVStore> store;     // svc and shm paths
  std::unique_ptr<ipc::ShmServer> server;  // shm path
  std::vector<std::unique_ptr<ipc::ShmClient>> clients;
  std::string shm_dir;

  svc::ShardIndex& shard_for(std::uint64_t k) {
    return shard ? *shard : store->shard(store->shard_of(k));
  }
};

struct StorePrefill {
  svc::KVStore& store;
  bool insert(std::uint64_t k, std::uint64_t v) {
    return store.shard(store.shard_of(k)).insert(k, v);
  }
};

World build_world(const Workload& w, std::uint64_t seed,
                  const std::string& run_dir) {
  World W;
  W.dev = std::make_unique<nvm::Device>(device_cfg(w.device_bytes));
  W.pa = std::make_unique<alloc::PAllocator>(*W.dev);
  epoch::EpochSys::Config ec;
  ec.epoch_length_us = w.epoch_us;
  // Write-back runs on the advancer itself: the generators take three of
  // the four cores, and the auto setting would add three flusher threads
  // that preempt them at every epoch.
  ec.flusher_threads = 1;
  W.es = std::make_unique<epoch::EpochSys>(*W.pa, ec);
  const workload::Config cfg = gen_cfg(w, seed);
  if (w.kind == Kind::kDirect) {
    svc::ShardOptions opt;
    opt.veb_ubits = w.key_bits;
    W.shard = svc::make_shard(w.backend, *W.es, opt);
    workload::prefill(*W.shard, cfg);
  } else {
    W.store = std::make_unique<svc::KVStore>(*W.es, store_cfg(w));
    StorePrefill pf{*W.store};
    workload::prefill(pf, cfg);
  }
  if (w.kind == Kind::kShm) {
    W.shm_dir = run_dir + "/shm";
    std::filesystem::create_directories(W.shm_dir);
    ipc::ShmServer::Config sc;
    sc.dir = W.shm_dir;
    sc.max_sessions = static_cast<std::uint32_t>(w.threads);
    sc.kv_client_base = 0;
    W.server = std::make_unique<ipc::ShmServer>(*W.store, sc);
    for (int c = 0; c < w.threads; ++c) {
      auto cl = std::make_unique<ipc::ShmClient>();
      ipc::ShmClient::Options o;
      o.slots = 16;
      const auto err = cl->connect(W.shm_dir, o);
      if (err != ipc::ShmClient::Err::kOk) {
        std::fprintf(stderr, "perfbench: shm connect failed (%d)\n",
                     static_cast<int>(err));
        std::exit(3);
      }
      W.clients.push_back(std::move(cl));
    }
  }
  return W;
}

void close_front_doors(World& W) {
  for (auto& c : W.clients) c->disconnect();
  if (W.server) W.server->close();
  if (W.store) W.store->close();
}

void teardown(World& W) {
  close_front_doors(W);
  W.clients.clear();
  W.server.reset();
  W.store.reset();
  W.shard.reset();
  W.es.reset();
  W.pa.reset();
  W.dev.reset();
  if (!W.shm_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(W.shm_dir, ec);
  }
}

// ---------------------------------------------------------------------
// Load generation.

enum class Op : std::uint8_t { kGet, kPut, kRemove };

struct ThreadStats {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> resolved{0};  // finished, failed or not
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> noslot{0};
  std::atomic<std::uint64_t> writes{0};  // resolved puts and removes
  std::atomic<bool> finished{false};
  // Warm-up and untraced window; the window's samples start at `mark`.
  pb::SampleBuf lat_get{kSampleCap}, lat_put{kSampleCap},
      lat_remove{kSampleCap};
  std::size_t mark_get = 0, mark_put = 0, mark_remove = 0;
  // Traced half only.
  pb::AppendBuf<pb::SampledOp> sampled{kSpanCap};
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

struct Load {
  const Workload& w;
  World& W;
  std::uint64_t seed;
  std::atomic<int> phase{kWarmup};
  std::vector<std::unique_ptr<ThreadStats>> st;

  Load(const Workload& wl, World& world, std::uint64_t s)
      : w(wl), W(world), seed(s) {
    for (int i = 0; i < w.threads; ++i) {
      st.push_back(std::make_unique<ThreadStats>());
    }
  }

  std::uint64_t sum(std::atomic<std::uint64_t> ThreadStats::*f) const {
    std::uint64_t s = 0;
    for (const auto& t : st) s += (t.get()->*f).load(std::memory_order_acquire);
    return s;
  }
};

struct Roll {
  Op op;
  std::uint64_t key;
};

Roll roll(workload::KeyGen& gen, const Workload& w) {
  const std::uint64_t k = gen.next();
  const auto dice = gen.rng().next_below(100);
  if (dice < static_cast<std::uint64_t>(w.read_pct)) return {Op::kGet, k};
  if (dice < static_cast<std::uint64_t>(w.read_pct + w.insert_pct)) {
    return {Op::kPut, k};
  }
  return {Op::kRemove, k};
}

/// Account one resolved operation. `ok_status` is false for any
/// transport or service status other than OK/not-found.
void resolve_op(ThreadStats& s, Op op, std::uint64_t key, bool ok_status,
                bool found, std::uint64_t value, int ph,
                std::uint64_t lat_ns) {
  if (!ok_status) {
    s.failed.fetch_add(1, std::memory_order_relaxed);
  } else if (op == Op::kGet && found && value != value_of(key)) {
    s.wrong.fetch_add(1, std::memory_order_relaxed);
    s.failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (op != Op::kGet) s.writes.fetch_add(1, std::memory_order_relaxed);
  if (ph != kTraced && ok_status) {
    (op == Op::kGet   ? s.lat_get
     : op == Op::kPut ? s.lat_put
                      : s.lat_remove)
        .push(lat_ns);
  }
  s.resolved.fetch_add(1, std::memory_order_release);
}

void run_direct(Load& L, int c, workload::KeyGen& gen) {
  ThreadStats& s = *L.st[c];
  svc::ShardIndex& sh = *L.W.shard;
  std::uint64_t seq = 0;
  while (L.phase.load(std::memory_order_relaxed) != kStop) {
    const int ph = L.phase.load(std::memory_order_relaxed);
    const bool smp = ph == kTraced && seq++ % kSampleEvery == 0;
    const std::uint64_t a = smp ? now_ns() : 0;
    const Roll r = roll(gen, L.w);
    s.attempted.fetch_add(1, std::memory_order_relaxed);
    bool found = true;
    std::uint64_t value = 0;
    const std::uint64_t t0 = now_ns();
    switch (r.op) {
      case Op::kGet: {
        const auto v = sh.find(r.key);
        found = v.has_value();
        value = v.value_or(0);
        break;
      }
      case Op::kPut:
        sh.insert(r.key, value_of(r.key));
        break;
      case Op::kRemove:
        sh.remove(r.key);
        break;
    }
    const std::uint64_t t1 = now_ns();
    resolve_op(s, r.op, r.key, true, found, value, ph, t1 - t0);
    if (smp) {
      pb::SampledOp o{};
      o.op_b = a;
      o.call_b = t0;
      o.call_e = t1;
      o.op_e = now_ns();
      s.sampled.push(o);
    }
  }
}

/// Closed loop that keeps `n` operations in flight: position i is
/// resubmitted as soon as its reply is in, oldest position first. After
/// the stop, the outstanding positions are waited for.
template <typename Submit, typename Finish>
void keep_flight(Load& L, std::size_t n, Submit submit, Finish finish) {
  for (std::size_t i = 0; i < n; ++i) submit(i);
  std::size_t i = 0;
  for (;; i = (i + 1) % n) {
    finish(i);
    if (L.phase.load(std::memory_order_relaxed) == kStop) break;
    submit(i);
  }
  for (std::size_t k = 1; k < n; ++k) finish((i + k) % n);
}

/// Per-position state of one in-flight operation.
struct Pending {
  Roll roll;
  int phase;
  bool sampled;
  std::uint64_t submit_ns;
  pb::SampledOp span;
};

void run_svc(Load& L, int c, workload::KeyGen& gen) {
  ThreadStats& s = *L.st[c];
  svc::KVStore& store = *L.W.store;
  const std::size_t n = static_cast<std::size_t>(L.w.flight);
  std::vector<svc::Request> reqs(n);
  std::vector<Pending> p(n);
  std::uint64_t seq = 0;
  // Span ids unique per thread and distinct from the shm client ids
  // (pid << 32 | seq), which never run in the same process as these.
  const std::uint64_t span_base = (static_cast<std::uint64_t>(c) + 1) << 48;
  auto submit = [&](std::size_t i) {
    Pending& q = p[i];
    q.phase = L.phase.load(std::memory_order_relaxed);
    q.sampled = q.phase == kTraced && seq++ % kSampleEvery == 0;
    if (q.sampled) q.span.op_b = now_ns();
    q.roll = roll(gen, L.w);
    const Roll& r = q.roll;
    reqs[i] = r.op == Op::kGet   ? svc::Request::get(r.key)
              : r.op == Op::kPut ? svc::Request::put(r.key, value_of(r.key))
                                 : svc::Request::del(r.key);
    if (q.sampled) reqs[i].span_id = span_base | seq;
    s.attempted.fetch_add(1, std::memory_order_relaxed);
    q.submit_ns = now_ns();
    store.submit(c, &reqs[i]);
    if (q.sampled) {
      q.span.span_id = reqs[i].span_id;
      q.span.call_b = q.submit_ns;
      q.span.call_e = now_ns();
    }
  };
  auto finish = [&](std::size_t i) {
    Pending& q = p[i];
    const std::uint64_t wb = q.sampled ? now_ns() : 0;
    store.wait(&reqs[i]);
    const std::uint64_t we = now_ns();
    const svc::Status st = reqs[i].status;
    const bool ok = st == svc::Status::kOk ||
                    (st == svc::Status::kNotFound && q.roll.op != Op::kPut);
    resolve_op(s, q.roll.op, q.roll.key, ok, st == svc::Status::kOk,
               reqs[i].op.out_value, q.phase, we - q.submit_ns);
    if (q.sampled) {
      q.span.wait_b = wb;
      q.span.wait_e = we;
      q.span.op_e = we;
      q.span.origin = reqs[i].t_submit_ns;
      s.sampled.push(q.span);
    }
  };
  keep_flight(L, n, submit, finish);
}

void run_shm(Load& L, int c, workload::KeyGen& gen) {
  ThreadStats& s = *L.st[c];
  ipc::ShmClient& cl = *L.W.clients[static_cast<std::size_t>(c)];
  const std::size_t n = static_cast<std::size_t>(L.w.flight);
  std::vector<int> slot(n);
  std::vector<Pending> p(n);
  std::uint64_t seq = 0;
  auto submit = [&](std::size_t i) {
    Pending& q = p[i];
    q.phase = L.phase.load(std::memory_order_relaxed);
    q.sampled = q.phase == kTraced && seq++ % kSampleEvery == 0;
    if (q.sampled) q.span.op_b = now_ns();
    q.roll = roll(gen, L.w);
    const Roll& r = q.roll;
    const ipc::WireOp op = r.op == Op::kGet   ? ipc::kOpGet
                           : r.op == Op::kPut ? ipc::kOpPut
                                              : ipc::kOpRemove;
    s.attempted.fetch_add(1, std::memory_order_relaxed);
    q.submit_ns = now_ns();
    slot[i] = cl.submit(op, r.key, value_of(r.key));
    if (q.sampled) {
      q.span.span_id = cl.span_of(slot[i]);
      q.span.call_b = q.submit_ns;
      q.span.call_e = now_ns();
    }
  };
  auto finish = [&](std::size_t i) {
    Pending& q = p[i];
    if (slot[i] < 0) {
      s.noslot.fetch_add(1, std::memory_order_relaxed);
      resolve_op(s, q.roll.op, q.roll.key, false, false, 0, q.phase, 0);
      return;
    }
    const std::uint64_t wb = q.sampled ? now_ns() : 0;
    ipc::ShmClient::Reply rep;
    const auto err = cl.wait(slot[i], &rep);
    const std::uint64_t we = now_ns();
    const bool ok = err == ipc::ShmClient::Err::kOk &&
                    (rep.status == ipc::kStOk ||
                     (rep.status == ipc::kStNotFound && q.roll.op != Op::kPut));
    resolve_op(s, q.roll.op, q.roll.key, ok, rep.status == ipc::kStOk,
               rep.value, q.phase, we - q.submit_ns);
    if (q.sampled) {
      q.span.wait_b = wb;
      q.span.wait_e = we;
      q.span.op_e = we;
      s.sampled.push(q.span);
    }
  };
  keep_flight(L, n, submit, finish);
}

void generator_main(Load& L, int c) {
  workload::KeyGen gen(gen_cfg(L.w, L.seed),
                       splitmix64(L.seed + static_cast<std::uint64_t>(c) *
                                               1000003ULL));
  switch (L.w.kind) {
    case Kind::kDirect:
      run_direct(L, c, gen);
      break;
    case Kind::kSvc:
      run_svc(L, c, gen);
      break;
    case Kind::kShm:
      run_shm(L, c, gen);
      break;
  }
  L.st[c]->finished.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Layer counters, read at phase boundaries.

struct Snap {
  std::uint64_t wall_ns = 0;
  double cpu_s = 0;
  double steal_s = 0;  // host-wide, from /proc/stat
  std::uint64_t resolved = 0, writes = 0;
  htm::TxStats htm{};
  std::uint64_t loads = 0, stores = 0, clwbs = 0, fences = 0, xplines = 0;
  std::uint64_t epochs = 0, lines = 0, deduped = 0, flush_ns = 0,
                watchdog = 0;
  obs::HistogramSnapshot advance{};
  obs::Registry::Snapshot reg;
  std::uint64_t shed = 0, restarts = 0;
};

/// CPU time the hypervisor gave to others while this VM's vCPUs wanted it
/// (the "steal" column of /proc/stat), summed over vCPUs; 0 if unknown.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz)
                          : 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

Snap take_snap(Load& L) {
  Snap s;
  s.wall_ns = now_ns();
  s.cpu_s = cpu_seconds();
  s.steal_s = steal_seconds();
  s.resolved = L.sum(&ThreadStats::resolved);
  s.writes = L.sum(&ThreadStats::writes);
  s.htm = htm::collect_stats();
  const nvm::DeviceStats& d = L.W.dev->stats();
  s.loads = d.loads.load();
  s.stores = d.stores.load();
  s.clwbs = d.clwbs.load();
  s.fences = d.fences.load();
  s.xplines = d.media_xpline_writes.load();
  const epoch::EpochStats& e = L.W.es->stats();
  s.epochs = e.epochs_advanced.load();
  s.lines = e.lines_flushed.load();
  s.deduped = e.lines_deduped.load();
  s.flush_ns = e.flush_ns_total();
  s.watchdog = e.watchdog_trips.load();
  s.advance = e.advance_ns.snapshot();
  s.reg = obs::Registry::global().snapshot();
  if (L.W.store) {
    s.shed = L.W.store->shed_total();
    s.restarts = L.W.store->restarts_total();
  }
  return s;
}

obs::HistogramSnapshot reg_hist(const obs::Registry::Snapshot& r,
                                const std::string& n) {
  for (const auto& [name, h] : r.histograms) {
    if (name == n) return h;
  }
  return {};
}

obs::HistogramSnapshot reg_hist_delta(const Snap& a, const Snap& b,
                                      const std::string& n) {
  return pb::hist_delta(reg_hist(a.reg, n), reg_hist(b.reg, n));
}

/// Whether window metrics start at the warm-up (a run aborted before
/// its first measured window) rather than at the window.
bool g_from_warmup = false;

constexpr pb::SampleBuf ThreadStats::*kLatBufs[3] = {
    &ThreadStats::lat_get, &ThreadStats::lat_put, &ThreadStats::lat_remove};

/// Counters at a slice boundary of the untraced window.
struct SliceMark {
  std::uint64_t wall_ns = 0;
  double cpu_s = 0;
  double steal_s = 0;
  std::uint64_t resolved = 0;
  std::size_t sizes[kMaxGenerators][3] = {};  // fill of kLatBufs
};

/// Slice boundaries of the window. Entries [0, g_marks_n) are complete;
/// the storage never moves, so the abort path can read them while the
/// main thread that writes them is frozen.
std::vector<SliceMark> g_marks;
std::atomic<std::size_t> g_marks_n{0};

void push_mark(const Load& L) {
  const std::size_t i = g_marks_n.load(std::memory_order_relaxed);
  if (i == g_marks.size()) return;
  SliceMark& m = g_marks[i];
  m.wall_ns = now_ns();
  m.cpu_s = cpu_seconds();
  m.steal_s = steal_seconds();
  m.resolved = L.sum(&ThreadStats::resolved);
  for (int t = 0; t < L.w.threads; ++t) {
    for (int f = 0; f < 3; ++f) m.sizes[t][f] = (L.st[t].get()->*kLatBufs[f]).size();
  }
  g_marks_n.store(i + 1, std::memory_order_release);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::size_t ThreadStats::*mark_of(pb::SampleBuf ThreadStats::*f) {
  return f == &ThreadStats::lat_get   ? &ThreadStats::mark_get
         : f == &ThreadStats::lat_put ? &ThreadStats::mark_put
                                      : &ThreadStats::mark_remove;
}

/// Set every sample buffer's window start to its current end.
void mark_window_start(Load& L) {
  for (auto& t : L.st) {
    for (auto f : {&ThreadStats::lat_get, &ThreadStats::lat_put,
                   &ThreadStats::lat_remove}) {
      t.get()->*mark_of(f) = (t.get()->*f).size();
    }
  }
}

std::vector<std::uint64_t> merged(
    const Load& L, std::initializer_list<pb::SampleBuf ThreadStats::*> fs) {
  std::vector<std::uint64_t> v;
  for (const auto& t : L.st) {
    for (auto f : fs) {
      (t.get()->*f).append_to(v, g_from_warmup ? 0 : t.get()->*mark_of(f));
    }
  }
  return v;
}

// ---------------------------------------------------------------------
// Metrics.

/// Each timing metric of every complete slice of the window; empty when
/// there is none.
std::map<std::string, std::vector<double>> slice_values(const Load& L) {
  std::map<std::string, std::vector<double>> sl;
  const std::size_t n = g_marks_n.load(std::memory_order_acquire);
  if (g_from_warmup) return sl;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const SliceMark& a = g_marks[i];
    const SliceMark& b = g_marks[i + 1];
    std::vector<std::uint64_t> all, writes;
    for (int t = 0; t < L.w.threads; ++t) {
      for (int f = 0; f < 3; ++f) {
        const auto& buf = L.st[t].get()->*kLatBufs[f];
        buf.append_to(all, a.sizes[t][f], b.sizes[t][f]);
        if (f != 0) buf.append_to(writes, a.sizes[t][f], b.sizes[t][f]);
      }
    }
    const std::uint64_t slice_ns = b.wall_ns - a.wall_ns;
    if (all.empty()) all.push_back(slice_ns);
    if (writes.empty()) writes.push_back(slice_ns);
    const double ops = static_cast<double>(b.resolved - a.resolved);
    sl["throughput_ops_s"].push_back(ops / (static_cast<double>(slice_ns) / 1e9));
    sl["latency_p50_us"].push_back(pb::quantile(all, 0.50) / 1e3);
    sl["latency_p99_us"].push_back(pb::quantile(all, 0.99) / 1e3);
    sl["write_p50_us"].push_back(pb::quantile(writes, 0.50) / 1e3);
    sl["cpu_us_per_op"].push_back((b.cpu_s - a.cpu_s) * 1e6 / std::max(ops, 1.0));
    sl["host_steal_frac"].push_back(
        (b.steal_s - a.steal_s) /
        (static_cast<double>(slice_ns) / 1e9 *
         std::max(1u, std::thread::hardware_concurrency())));
  }
  return sl;
}

void end_to_end_metrics(Load& L, const Snap& a, const Snap& b) {
  const double secs = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  const double ops = static_cast<double>(b.resolved - a.resolved);
  auto all = merged(L, {&ThreadStats::lat_get, &ThreadStats::lat_put,
                        &ThreadStats::lat_remove});
  auto writes = merged(L, {&ThreadStats::lat_put, &ThreadStats::lat_remove});
  // A window in which no operation completed (an early wedge) reports its
  // own length as latency: every operation in it took at least that long.
  const std::uint64_t window_ns = b.wall_ns - a.wall_ns;
  if (all.empty()) all.push_back(window_ns);
  if (writes.empty()) writes.push_back(window_ns);
  const std::map<std::string, double> window = {
      {"throughput_ops_s", ops / secs},
      {"latency_p50_us", pb::quantile(all, 0.50) / 1e3},
      {"latency_p99_us", pb::quantile(all, 0.99) / 1e3},
      {"write_p50_us", pb::quantile(writes, 0.50) / 1e3},
      {"cpu_us_per_op", (b.cpu_s - a.cpu_s) * 1e6 / std::max(ops, 1.0)}};
  // Each timing metric is the median over the window's complete slices;
  // an early abort with no complete slice reports the whole window.
  const auto sl = slice_values(L);
  for (const auto& [n, v] : window) {
    const auto it = sl.find(n);
    g_result.e2e(n, it == sl.end() ? v : median_of(it->second),
                 n == "throughput_ops_s" ? "1/s" : "us");
    g_result.note("window." + n, v);
  }
  if (!g_result.traced) {
    std::lock_guard<std::mutex> g(g_result.mu);
    g_result.slices = sl;
  }
  // Share of the VM's vCPU time the host took away during the window;
  // timing metrics move with it.
  g_result.e2e("host_steal_frac",
               (b.steal_s - a.steal_s) /
                   (secs * std::max(1u, std::thread::hardware_concurrency())),
               "frac");
  g_result.e2e("window_s", secs, "s");
  g_result.e2e("latency_samples", static_cast<double>(all.size()), "count");
  g_result.e2e("write_samples", static_cast<double>(writes.size()), "count");
}

/// Count the failed operations (wrong answers, non-OK statuses, and
/// `stuck` ones still unfinished at the deadline) and attempted ones.
void count_failures(const Load& L, std::uint64_t stuck) {
  std::lock_guard<std::mutex> g(g_result.mu);
  g_result.attempted += L.sum(&ThreadStats::attempted);
  g_result.failed += L.sum(&ThreadStats::failed) + stuck;
  g_result.detail["wrong_answers"] +=
      static_cast<double>(L.sum(&ThreadStats::wrong));
}

void per_layer_metrics(Load& L, const Snap& a, const Snap& b) {
  const double secs = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  const double ops = std::max(1.0, static_cast<double>(b.resolved - a.resolved));
  const double kops = ops / 1e3;
  auto m = [](const char* n, double v, const char* u) {
    g_result.metric(n, v, u);
  };

  // htm: abort causes and fallback causes over the window.
  const htm::TxStats& h0 = a.htm;
  const htm::TxStats& h1 = b.htm;
  const double commits = static_cast<double>(h1.commits - h0.commits);
  const double aborts =
      static_cast<double>(h1.total_aborts() - h0.total_aborts());
  auto dk = [&](std::uint64_t htm::TxStats::*f) {
    return static_cast<double>(h1.*f - h0.*f) / kops;
  };
  m("htm.commit_ratio", commits + aborts > 0 ? commits / (commits + aborts) : 1.0,
    "ratio");
  m("htm.aborts_per_op", aborts / ops, "1/op");
  m("htm.abort.conflict_per_kop", dk(&htm::TxStats::aborts_conflict), "1/kop");
  m("htm.abort.capacity_per_kop", dk(&htm::TxStats::aborts_capacity), "1/kop");
  m("htm.abort.lock_subscription_per_kop",
    dk(&htm::TxStats::aborts_lock_subscription), "1/kop");
  m("htm.abort.old_see_new_per_kop", dk(&htm::TxStats::aborts_old_see_new),
    "1/kop");
  m("htm.abort.other_per_kop",
    dk(&htm::TxStats::aborts_explicit) + dk(&htm::TxStats::aborts_persist) +
        dk(&htm::TxStats::aborts_memtype) + dk(&htm::TxStats::aborts_spurious),
    "1/kop");
  const double fb = dk(&htm::TxStats::fallback_acquisitions);
  const double fb_lw = dk(&htm::TxStats::fallbacks_lockwait);
  const double fb_ex = dk(&htm::TxStats::fallbacks_exhausted);
  const double fb_to = dk(&htm::TxStats::fallbacks_wait_timeout);
  m("htm.fallbacks_per_kop", fb, "1/kop");
  m("htm.fallback.lockwait_per_kop", fb_lw, "1/kop");
  m("htm.fallback.exhausted_per_kop", fb_ex, "1/kop");
  m("htm.fallback.wait_timeout_per_kop", fb_to, "1/kop");
  // Reported, not asserted: fallbacks with no recorded cause.
  m("htm.fallback.unattributed_per_kop", fb - fb_lw - fb_ex - fb_to, "1/kop");
  // Reported, not checked: the engine keeps no abort count apart from its
  // eight cause counters (TxStats::total_aborts() is their sum), so the
  // causes add up to the total by definition.
  g_result.note("htm.aborts_total", aborts);

  // epoch.
  const auto adv = pb::hist_delta(a.advance, b.advance);
  const double lines = static_cast<double>(b.lines - a.lines);
  const double dedup = static_cast<double>(b.deduped - a.deduped);
  m("epoch.advances", static_cast<double>(b.epochs - a.epochs), "count");
  m("epoch.advance_p50_us", static_cast<double>(adv.quantile(0.5)) / 1e3, "us");
  m("epoch.advance_p99_us", static_cast<double>(adv.quantile(0.99)) / 1e3, "us");
  m("epoch.flush_busy_frac",
    static_cast<double>(b.flush_ns - a.flush_ns) / (secs * 1e9), "frac");
  m("epoch.lines_flushed_per_op", lines / ops, "1/op");
  m("epoch.dedup_factor", lines > 0 ? (lines + dedup) / lines : 1.0, "ratio");
  m("epoch.persistence_lag_p99_us",
    static_cast<double>(
        reg_hist_delta(a, b, "epoch.persistence_lag_us").quantile(0.99)),
    "us");
  m("epoch.watchdog_trips", static_cast<double>(b.watchdog - a.watchdog),
    "count");

  // nvm (simulated hardware).
  const double loads = static_cast<double>(b.loads - a.loads) / ops;
  const double stores = static_cast<double>(b.stores - a.stores) / ops;
  const double clwbs = static_cast<double>(b.clwbs - a.clwbs) / ops;
  const double fences = static_cast<double>(b.fences - a.fences) / ops;
  const double fg_model_ns = loads * kReadNs + stores * kWriteNs;
  const double model_ns = fg_model_ns + clwbs * kFlushNs + fences * kFenceNs;
  m("nvm.loads_per_op", loads, "1/op");
  m("nvm.stores_per_op", stores, "1/op");
  m("nvm.clwbs_per_op", clwbs, "1/op");
  m("nvm.fences_per_op", fences, "1/op");
  m("nvm.model_ns_per_op", model_ns, "ns/op");
  const double user_bytes =
      static_cast<double>(b.writes - a.writes) * static_cast<double>(kKvBytes);
  m("nvm.media_bytes_per_user_byte",
    user_bytes > 0 ? static_cast<double>(b.xplines - a.xplines) * 256.0 /
                         user_bytes
                   : 0.0,
    "B/B");

  // Structures: direct calls on the direct path, the batched envelope
  // window (svc.lat.htm_ns, recorded once per batch) elsewhere.
  if (L.w.kind == Kind::kDirect) {
    auto g = merged(L, {&ThreadStats::lat_get});
    auto p = merged(L, {&ThreadStats::lat_put});
    auto r = merged(L, {&ThreadStats::lat_remove});
    double sum = 0;
    for (auto* v : {&g, &p, &r}) {
      for (auto x : *v) sum += static_cast<double>(x);
    }
    const double n = static_cast<double>(g.size() + p.size() + r.size());
    m("shard.get_ns_p50", pb::quantile(g, 0.5), "ns");
    m("shard.put_ns_p50", pb::quantile(p, 0.5), "ns");
    m("shard.remove_ns_p50", pb::quantile(r, 0.5), "ns");
    m("shard.self_ns_per_op", (n > 0 ? sum / n : 0.0) - fg_model_ns, "ns/op");
  } else {
    m("shard.get_ns_p50", 0, "ns");
    m("shard.put_ns_p50", 0, "ns");
    m("shard.remove_ns_p50", 0, "ns");
    const auto ex = reg_hist_delta(a, b, "svc.lat.htm_ns");
    m("shard.self_ns_per_op", static_cast<double>(ex.sum) / ops - fg_model_ns,
      "ns/op");
  }

  // svc (registry histograms are sampled once per batch).
  const auto bs = reg_hist_delta(a, b, "svc.batch_size");
  const auto q = reg_hist_delta(a, b, "svc.lat.queue_ns");
  const auto ex = reg_hist_delta(a, b, "svc.lat.htm_ns");
  const auto ew = reg_hist_delta(a, b, "svc.lat.epoch_wait_ns");
  m("svc.batch_size_mean", bs.mean(), "ops");
  m("svc.batch_size_p50", static_cast<double>(bs.quantile(0.5)), "ops");
  m("svc.restarts_per_kop", static_cast<double>(b.restarts - a.restarts) / kops,
    "1/kop");
  m("svc.queue_p50_us", static_cast<double>(q.quantile(0.5)) / 1e3, "us");
  m("svc.queue_p99_us", static_cast<double>(q.quantile(0.99)) / 1e3, "us");
  m("svc.exec_p50_us", static_cast<double>(ex.quantile(0.5)) / 1e3, "us");
  m("svc.epoch_wait_p50_us", static_cast<double>(ew.quantile(0.5)) / 1e3, "us");
  m("svc.epoch_wait_p99_us", static_cast<double>(ew.quantile(0.99)) / 1e3,
    "us");
  m("svc.shed", static_cast<double>(b.shed - a.shed), "count");

  // ipc call latency over the untraced window.
  if (L.w.kind == Kind::kShm) {
    auto all = merged(L, {&ThreadStats::lat_get, &ThreadStats::lat_put,
                          &ThreadStats::lat_remove});
    m("ipc.call_p50_us", pb::quantile(all, 0.5) / 1e3, "us");
    m("ipc.call_p99_us", pb::quantile(all, 0.99) / 1e3, "us");
  } else {
    m("ipc.call_p50_us", 0, "us");
    m("ipc.call_p99_us", 0, "us");
  }
  m("ipc.noslot", static_cast<double>(L.sum(&ThreadStats::noslot)), "count");
}

/// `seed` names the trace file.
void span_metrics(Load& L, std::uint64_t seed, double thr_untraced,
                  double thr_traced) {
  std::vector<pb::SampledOp> ops;
  for (const auto& t : L.st) t->sampled.append_to(ops);
  const auto prog = pb::collect_program_events();
  const pb::Path path = L.w.kind == Kind::kDirect ? pb::Path::kDirect
                        : L.w.kind == Kind::kShm  ? pb::Path::kShm
                                                  : pb::Path::kSvc;
  const bool durable = L.w.release == svc::ReleasePolicy::kDurable;
  const pb::SelfTimes s = pb::analyze_spans(path, durable, ops, prog);
  auto m = [](const char* n, double v, const char* u) {
    g_result.metric(n, v, u);
  };
  m("trace.overhead_frac",
    thr_untraced > 0 ? 1.0 - thr_traced / thr_untraced : 0.0, "frac");
  const double matched_frac =
      s.eligible > 0 ? static_cast<double>(s.matched) /
                           static_cast<double>(s.eligible)
                     : 0.0;
  m("trace.matched_ops", static_cast<double>(s.matched), "count");
  m("trace.matched_frac", matched_frac, "frac");
  m("trace.reconcile_residual_frac", s.residual_frac, "frac");
  m("trace.op_us", s.op_us, "us");
  m("self.op_us", s.self_op_us, "us");
  m("self.ipc_us", s.self_ipc_us, "us");
  m("self.svc_us", s.self_svc_us, "us");
  m("self.shard_us", s.self_shard_us, "us");
  m("self.epoch_us", s.self_epoch_us, "us");
  m("ipc.transport_p50_us", pb::quantile(s.transport_ns, 0.5) / 1e3, "us");
  g_result.note("trace.sampled_ops", static_cast<double>(s.sampled));
  g_result.note("trace.eligible_ops", static_cast<double>(s.eligible));
  g_result.note("trace.horizon_ns", static_cast<double>(prog.horizon_ns));
  g_result.note("trace.reconcile_tolerance", pb::kReconcileTolerance);
  g_result.note("trace.min_matched_frac", pb::kMinMatchedFrac);
  if (s.matched == 0) {
    g_result.fail_check("traced half matched no sampled operation");
  } else if (matched_frac < pb::kMinMatchedFrac) {
    g_result.fail_check("program spans matched " +
                        std::to_string(s.matched) + " of " +
                        std::to_string(s.eligible) +
                        " sampled operations the trace rings still cover");
  }
  if (s.matched != 0 &&
      std::fabs(s.residual_frac) > pb::kReconcileTolerance) {
    g_result.fail_check("layer self times miss the op span by " +
                        std::to_string(s.residual_frac * 100) + "%");
  }

  // Caller-side submit/wait call times (in-process svc only).
  std::vector<std::uint64_t> sub, wait;
  if (path == pb::Path::kSvc) {
    for (const auto& o : ops) {
      sub.push_back(o.call_e - o.call_b);
      wait.push_back(o.wait_e - o.wait_b);
    }
  }
  m("svc.submit_ns_p50", pb::quantile(sub, 0.5), "ns");
  m("svc.wait_us_p50", pb::quantile(wait, 0.5) / 1e3, "us");

  const char* tdir = std::getenv("PERFBENCH_TRACE_DIR");
  if (tdir != nullptr && *tdir != '\0') {
    const std::string f = std::string(tdir) + "/" + L.w.name + "-seed" +
                          std::to_string(seed) + ".trace.json";
    if (!pb::write_span_trace(f, path, ops, prog, durable, kTraceFileOps)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", f.c_str());
    }
  }
}

// ---------------------------------------------------------------------
// Snapshot, crash, recover.

/// Run fn(lo, hi) over [0, n) on `threads` threads.
template <typename Fn>
void parallel_range(std::uint64_t n, int threads, Fn fn) {
  std::vector<std::thread> ts;
  const std::uint64_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t lo = static_cast<std::uint64_t>(t) * chunk;
    const std::uint64_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    ts.emplace_back([=] { fn(lo, hi); });
  }
  for (auto& t : ts) t.join();
}

constexpr int kScanThreads = 2;

/// Presence of every key; any present value other than value_of(key) is
/// a wrong answer.
std::vector<char> snapshot_keys(const Workload& w,
                                const std::function<svc::ShardIndex&(std::uint64_t)>& shard_for,
                                std::uint64_t* wrong) {
  const std::uint64_t n = std::uint64_t{1} << w.key_bits;
  std::vector<char> present(n, 0);
  std::atomic<std::uint64_t> bad{0};
  parallel_range(n, kScanThreads, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo; k < hi; ++k) {
      const auto v = shard_for(k).find(k);
      if (!v) continue;
      present[k] = 1;
      if (*v != value_of(k)) bad.fetch_add(1, std::memory_order_relaxed);
    }
  });
  *wrong = bad.load();
  return present;
}

/// Crash the device, attach, and recover; recover_s is the time this
/// takes. Checks the RecoveryReport and the recovered map: equal to
/// `snap` when the round was quiesced, otherwise (an aborted run) every
/// recovered value must be one a write stored. Returns the number of
/// recovered keys. Uses objects of its own, so an aborted run's frozen
/// world is never touched.
std::uint64_t crash_and_recover(const Workload& w, nvm::Device& dev,
                                const std::vector<char>* snap) {
  const std::uint64_t t0 = now_ns();
  dev.simulate_crash();
  alloc::PAllocator pa(dev, alloc::PAllocator::Mode::kAttach);
  epoch::EpochSys::Config ec;
  ec.epoch_length_us = w.epoch_us;
  ec.start_advancer = false;
  ec.flusher_threads = 1;
  ec.attach = true;
  epoch::EpochSys es(pa, ec);
  svc::KVStoreConfig sc = store_cfg(w);
  sc.clients = 1;
  sc.start_workers = false;
  svc::KVStore store(es, sc);
  const std::size_t blocks = store.recover(1);
  g_result.e2e("recover_s", static_cast<double>(now_ns() - t0) / 1e9, "s");

  const epoch::RecoveryReport& rr = es.last_recovery();
  if (rr.blocks_quarantined != 0 || rr.checksum_failures != 0 ||
      rr.epoch_violations != 0 || rr.superblocks_quarantined != 0) {
    g_result.fail_check(
        "recovery report: quarantined=" +
        std::to_string(rr.blocks_quarantined) +
        " checksum_failures=" + std::to_string(rr.checksum_failures) +
        " epoch_violations=" + std::to_string(rr.epoch_violations));
  }
  std::uint64_t wrong = 0;
  const auto got = snapshot_keys(
      w, [&](std::uint64_t k) -> svc::ShardIndex& {
        return store.shard(store.shard_of(k));
      },
      &wrong);
  std::uint64_t live = 0;
  for (char p : got) live += p != 0;
  std::uint64_t diff = 0;
  if (snap != nullptr) {
    for (std::size_t k = 0; k < snap->size(); ++k) diff += got[k] != (*snap)[k];
  }
  if (diff != 0 || wrong != 0) {
    g_result.fail_check("recovered map differs from the snapshot in " +
                        std::to_string(diff) + " keys (" +
                        std::to_string(wrong) + " wrong values)");
  }
  if (blocks != live) {
    g_result.fail_check("recovered " + std::to_string(blocks) +
                        " blocks for " + std::to_string(live) + " keys");
  }
  std::lock_guard<std::mutex> g(g_result.mu);
  if (snap != nullptr) g_result.detail["recovery.checked_against_snapshot"] = 1;
  g_result.detail["recovery.blocks_scanned"] += static_cast<double>(rr.blocks_scanned);
  g_result.detail["recovery.blocks_resurrected"] +=
      static_cast<double>(rr.blocks_resurrected);
  g_result.detail["recovery.quarantined"] += static_cast<double>(rr.blocks_quarantined);
  g_result.detail["recovery.checksum_failures"] +=
      static_cast<double>(rr.checksum_failures);
  return live;
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int round = 0;
  std::uint64_t window_ms = 10'000;
  int trace = 0;
  std::string run_dir = ".";
  bool check_spin = true;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: bdhtm_perfbench --workload NAME "
               "--seed N --round R --window-ms MS --trace 0|1 --run-dir DIR "
               "[--check-spin 0|1]\n",
               why);
  std::exit(2);
}

/// The simulated device's latencies are spin loops, calibrated from one
/// short probe per process; a probe that ran on a cold or preempted core
/// leaves every device latency of that process off by up to 2x. Warm the
/// core, calibrate, and time a 1 ms spin (the fastest of five, since
/// preemption only lengthens one). Returns whether it is within
/// kSpinTolerance.
bool calibrate_spin() {
  const std::uint64_t warm_end = now_ns() + 100'000'000ULL;
  while (now_ns() < warm_end) {
  }
  spin_calibrate();
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = now_ns();
    spin_for_ns(1'000'000);
    best = std::min(best, now_ns() - t);
  }
  const double ratio = static_cast<double>(best) / 1e6;
  g_result.note("spin_1ms_ratio", ratio);
  return std::fabs(ratio - 1.0) <= kSpinTolerance;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--round") {
      a.round = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.round < 0) usage("bad --round");
    } else if (k == "--window-ms") {
      a.window_ms = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || a.window_ms < 100 || a.window_ms > 60'000) {
        usage("--window-ms must be 100..60000");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--run-dir") {
      a.run_dir = v;
    } else if (k == "--check-spin") {
      if (v != "0" && v != "1") usage("--check-spin must be 0 or 1");
      a.check_spin = v == "1";
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

// ---------------------------------------------------------------------
// The run. Its state is global so the abort path can reach it.

struct Run {
  const Workload* w = nullptr;
  Args args;
  // The current round.
  World world;
  std::unique_ptr<Load> load;
  Snap sw, s0, s1;  // warm-up start, window start, traced-half start
  enum : int { kIdle, kWarming, kMeasuring, kMeasured };
  std::atomic<int> window_state{kIdle};
  bool has_s1 = false;
  bool spans_done = false;
  ipc::ShmServer::Stats ipc0{};
  // bytes_in_use() sampled every kSpaceSampleMs over the untraced window.
  std::atomic<std::uint64_t> space_sum{0}, space_n{0};
};

Run g_run;

/// space_amp: the window's mean bytes_in_use() over live keys x 16 B at
/// the end. The mean, not one reading, because retired blocks wait two
/// epochs for reclamation, so a single reading lands anywhere on that
/// sawtooth. `now_in_use` stands in when the window took no sample.
void record_space(std::uint64_t reserved, std::uint64_t live,
                  std::uint64_t now_in_use) {
  const std::uint64_t n = g_run.space_n.load();
  const double in_use =
      n == 0 ? static_cast<double>(now_in_use)
             : static_cast<double>(g_run.space_sum.load()) / static_cast<double>(n);
  const double keys = static_cast<double>(std::max<std::uint64_t>(live, 1));
  g_result.e2e("space_amp", in_use / (keys * static_cast<double>(kKvBytes)),
               "x");
  g_result.e2e("live_keys", static_cast<double>(live), "count");
  if (g_run.args.trace) {
    g_result.metric("alloc.bytes_per_live_key", in_use / keys, "B/key");
    g_result.metric("alloc.bytes_reserved", static_cast<double>(reserved), "B");
  }
}

/// ipc.reclaims and ipc.orphans over the round. A completed round must
/// have none; an aborted run only reports them, since freezing its
/// clients stops their heartbeats and the server then reclaims their
/// sessions.
void check_ipc(bool enforce) {
  const bool tr = g_run.args.trace != 0;
  if (!g_run.world.server) {
    if (tr) {
      g_result.metric("ipc.reclaims", 0, "count");
      g_result.metric("ipc.orphans", 0, "count");
    }
    return;
  }
  const ipc::ShmServer::Stats ss = g_run.world.server->stats();
  const double reclaims = static_cast<double>(ss.reclaims - g_run.ipc0.reclaims);
  const double orphans = static_cast<double>(ss.orphans - g_run.ipc0.orphans);
  {
    std::lock_guard<std::mutex> g(g_result.mu);
    g_result.detail["ipc.reclaims"] += reclaims;
    g_result.detail["ipc.orphans"] += orphans;
  }
  if (tr) {
    g_result.metric("ipc.reclaims", reclaims, "count");
    g_result.metric("ipc.orphans", orphans, "count");
  }
  if (enforce && (reclaims != 0 || orphans != 0)) {
    g_result.fail_check("shm server reclaimed " + num(reclaims) +
                        " sessions and saw " + num(orphans) +
                        " orphaned replies");
  }
}

/// Span metrics of the traced half, which ended at `end`. The trace
/// rings must be quiescent.
void traced_metrics(const Snap& end) {
  const Snap& s0 = g_run.s0;
  const Snap& s1 = g_run.s1;
  const double thr1 = static_cast<double>(s1.resolved - s0.resolved) /
                      (static_cast<double>(s1.wall_ns - s0.wall_ns) / 1e9);
  const double thr2 = static_cast<double>(end.resolved - s1.resolved) /
                      (static_cast<double>(end.wall_ns - s1.wall_ns) / 1e9);
  g_result.note("throughput_untraced_ops_s", thr1);
  g_result.note("throughput_traced_ops_s", thr2);
  span_metrics(*g_run.load, g_run.args.seed, thr1, thr2);
  g_run.spans_done = true;
}

void window_metrics(const Snap& end) {
  Load& L = *g_run.load;
  const Snap& a = g_from_warmup ? g_run.sw : g_run.s0;
  if (g_run.args.trace) {
    const Snap& b = g_run.has_s1 ? g_run.s1 : end;
    end_to_end_metrics(L, a, b);
    per_layer_metrics(L, a, b);
  } else {
    end_to_end_metrics(L, a, end);
  }
  g_run.window_state.store(Run::kMeasured);
}

[[noreturn]] void abort_run(const char* why) {
  freeze_other_threads();
  const char* phase = g_watchdog.phase.load();
  const int sig = g_watchdog.fault_signal.load();
  {
    std::lock_guard<std::mutex> g(g_result.mu);
    g_result.aborted = std::string(why) + " in " + phase;
    if (sig != 0) g_result.detail["fault_signal"] = sig;
  }
  std::fprintf(stderr, "perfbench: ABORTED (%s in %s); other threads frozen\n",
               why, phase);
  const int state = g_run.window_state.load();
  if (g_run.load && state != Run::kIdle) {
    Load& L = *g_run.load;
    if (state == Run::kWarming || state == Run::kMeasuring) {
      // Aborted before any measured window: measure the warm-up instead.
      g_from_warmup = state == Run::kWarming;
      window_metrics(take_snap(L));
      const std::uint64_t stuck =
          L.sum(&ThreadStats::attempted) - L.sum(&ThreadStats::resolved);
      g_result.note("aborted_unfinished_ops", static_cast<double>(stuck));
      count_failures(L, stuck);
      check_ipc(false);
    }
    if (g_run.args.trace && !g_run.spans_done && g_run.has_s1) {
      traced_metrics(take_snap(L));  // every emitter is frozen
    }
  }
  // Crash the frozen world and recover it, unless recovery is what hung.
  World& W = g_run.world;
  if (W.dev && W.pa && state != Run::kIdle) {
    g_watchdog.phase.store("recover after abort");
    const std::uint64_t reserved = W.pa->bytes_reserved();
    const std::uint64_t in_use = W.pa->bytes_in_use();
    const std::uint64_t live = crash_and_recover(*g_run.w, *W.dev, nullptr);
    record_space(reserved, live, in_use);
  }
  print_result(*g_run.w, g_run.args.seed, g_run.args.trace);
  std::error_code ec;
  std::filesystem::remove_all(g_run.args.run_dir, ec);
  std::_Exit(0);
}

void watchdog_main() {
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (const int sig = g_watchdog.fault_signal.load(); sig != 0) {
      abort_run(sig == SIGSEGV   ? "SIGSEGV"
                : sig == SIGABRT ? "SIGABRT"
                                 : "fatal signal");
    }
    if (const char* r = g_watchdog.abort_reason.load()) abort_run(r);
    const std::uint64_t d = g_watchdog.deadline_ns.load();
    if (d != 0 && now_ns() > d) abort_run("deadline");
  }
}

/// Ask the watchdog to abort the run; the caller is frozen meanwhile.
[[noreturn]] void request_abort(const char* why) {
  g_watchdog.abort_reason.store(why);
  for (;;) pause();
}

/// One full lifecycle in a fresh world: set up, run the window, quiesce
/// and snapshot, crash, recover, check.
void run_round(std::uint64_t window_ms) {
  const Workload& w = *g_run.w;
  const Args& args = g_run.args;
  // Every round's inputs derive from --seed.
  const std::uint64_t seed =
      splitmix64(args.seed + static_cast<std::uint64_t>(args.round));

  g_watchdog.arm("setup", 60);
  const std::uint64_t t_setup = now_ns();
  g_run.world = build_world(w, seed, args.run_dir);
  g_result.e2e("setup_s", static_cast<double>(now_ns() - t_setup) / 1e9, "s");
  World& W = g_run.world;
  if (W.server) g_run.ipc0 = W.server->stats();

  // ---- timed window (a 0.5 s warm-up first).
  g_run.load = std::make_unique<Load>(w, W, seed);
  Load& L = *g_run.load;
  g_run.space_sum.store(0);
  g_run.space_n.store(0);
  g_run.has_s1 = false;
  g_watchdog.arm("window", (kWarmupMs + window_ms) / 1000 + 30);
  g_run.sw = take_snap(L);
  g_run.window_state.store(Run::kWarming);
  std::vector<std::thread> gens;
  for (int c = 0; c < w.threads; ++c) {
    gens.emplace_back(generator_main, std::ref(L), c);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  g_run.s0 = take_snap(L);
  mark_window_start(L);
  const std::uint64_t measure_ms = args.trace ? window_ms / 2 : window_ms;
  g_marks.assign(measure_ms / kSliceMs + 2, SliceMark{});
  g_marks_n.store(0);
  push_mark(L);
  g_run.window_state.store(Run::kMeasuring);
  L.phase.store(kMeasure);
  const std::uint64_t measure_end = now_ns() + measure_ms * 1'000'000ULL;
  while (now_ns() < measure_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSpaceSampleMs));
    g_run.space_sum.fetch_add(W.pa->bytes_in_use());
    g_run.space_n.fetch_add(1);
    const std::size_t m = g_marks_n.load(std::memory_order_relaxed);
    if (now_ns() - g_marks[m - 1].wall_ns >= kSliceMs * 1'000'000ULL) {
      push_mark(L);
    }
  }
  Snap end = take_snap(L);
  if (args.trace) {
    g_run.s1 = end;
    g_run.has_s1 = true;
    obs::set_tracing(true);
    L.phase.store(kTraced);
    std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
    end = take_snap(L);
  }
  L.phase.store(kStop);

  // Drain: every generator finishes its last flight, or the run is wedged.
  g_watchdog.arm("drain", kDrainDeadlineS + 10);
  const std::uint64_t drain_deadline =
      now_ns() + kDrainDeadlineS * 1'000'000'000ULL;
  for (const auto& t : L.st) {
    while (!t->finished.load(std::memory_order_acquire)) {
      if (now_ns() > drain_deadline) request_abort("wedged");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  obs::set_tracing(false);
  for (auto& t : gens) t.join();
  window_metrics(end);
  count_failures(L, 0);
  if (L.sum(&ThreadStats::wrong) != 0) {
    g_result.fail_check(std::to_string(L.sum(&ThreadStats::wrong)) +
                        " gets returned a value no write stored");
  }

  // ---- quiesce and snapshot.
  g_watchdog.arm("quiesce", 60);
  close_front_doors(W);
  check_ipc(true);
  const std::uint64_t reserved = W.pa->bytes_reserved();
  std::uint64_t wrong = 0;
  const auto snap = snapshot_keys(
      w, [&](std::uint64_t k) -> svc::ShardIndex& { return W.shard_for(k); },
      &wrong);
  if (wrong != 0) {
    g_result.fail_check("quiesced snapshot holds " + std::to_string(wrong) +
                        " values no write stored");
  }
  std::uint64_t live = 0;
  for (char p : snap) live += p != 0;
  record_space(reserved, live, W.pa->bytes_in_use());
  W.es->persist_all();
  W.clients.clear();
  W.server.reset();
  W.store.reset();
  W.shard.reset();
  W.es.reset();
  W.pa.reset();
  // Every emitter has joined: the trace rings are quiescent.
  if (args.trace) traced_metrics(end);

  // ---- crash, attach, recover.
  g_watchdog.arm("recover", 60);
  crash_and_recover(w, *W.dev, &snap);
  g_run.window_state.store(Run::kIdle);
  teardown(W);
  g_run.load.reset();
}

int main(int argc, char** argv) {
  g_run.args = parse(argc, argv);
  const Args& args = g_run.args;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) g_run.w = &w;
  }
  if (g_run.w == nullptr) usage(("unknown workload " + args.workload).c_str());
  g_result.traced = args.trace != 0;
  if (args.trace) obs::set_trace_capacity(kTraceRingEvents);
  install_signal_handlers();
  if (!calibrate_spin() && args.check_spin) {
    std::fprintf(stderr, "perfbench: spin loop calibration is off by more "
                         "than %.0f%%\n", kSpinTolerance * 100);
    return kExitMiscalibrated;
  }
  g_watchdog.hard_ns = now_ns() + kProcessBudgetS * 1'000'000'000ULL;
  std::thread(watchdog_main).detach();

  run_round(args.window_ms);
  g_result.note("threads_registered", static_cast<double>(max_thread_id_seen()));
  if (max_thread_id_seen() > kMaxThreads) {
    g_result.fail_check("more threads registered than the library supports");
  }
  g_watchdog.deadline_ns.store(0);
  print_result(*g_run.w, args.seed, args.trace);
  return 0;
}
