// txlint-scope: ipc-client
//
// Standalone shared-memory client process for the ipc transport
// (DESIGN.md §12). This binary is the "untrusted remote client" in the
// multi-process tests and bench: it links ONLY src/ipc client code —
// never the durable core — and can be armed with a ClientFaultPlan to
// SIGKILL itself at an exact protocol point.
//
// Output protocol (parsed by tests/test_ipc.cpp and bench/fig12_ipc):
//   A <op> <key> <value> <status> <ok> <complete_epoch>   per acked op
//   R ops=<n> errs=<n> noslot=<n> p50_ns=<n> p99_ns=<n>   final summary
// Each line is flushed as written so a SIGKILL loses at most the
// in-flight line — the ack log is the oracle for acknowledged-prefix
// recovery checks.
//
// Exit codes: 0 ok, 2 connect failed, 3 server gone, 4 call timeout.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ipc/client.hpp"
#include "ipc/futex.hpp"
#include "ipc/span.hpp"

namespace {

using namespace bdhtm::ipc;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic value for a key: lets the recovery oracle recompute
/// every expected value from the ack log alone. |1 keeps it nonzero.
std::uint64_t value_of(std::uint64_t key) { return splitmix64(key) | 1; }

struct Args {
  std::string dir;
  std::string log;
  std::uint32_t slots = 16;
  std::uint32_t flight = 1;
  std::uint64_t ops = 0;  // 0 = until --ms expires
  std::uint64_t ms = 0;
  std::uint64_t key_base = 0;
  std::uint64_t key_count = 1024;
  std::uint64_t seed = 1;
  std::uint64_t idle_after = 0;  // after N acks, go idle
  std::uint64_t idle_ms = 0;
  bool idle_heartbeat = false;
  std::string mode = "put";
  std::string trace_out;  // client-side span events as Chrome trace JSON
  int fault_point = 0;
  std::uint64_t fault_at = 1;
};

std::uint64_t num(const char* s) {
  return std::strtoull(s, nullptr, 10);
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto eat = [&](const char* name, const char** out) {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *out = arg + n + 1;
        return true;
      }
      return false;
    };
    const char* v = nullptr;
    if (eat("--dir", &v)) a->dir = v;
    else if (eat("--log", &v)) a->log = v;
    else if (eat("--slots", &v)) a->slots = static_cast<std::uint32_t>(num(v));
    else if (eat("--flight", &v)) a->flight = static_cast<std::uint32_t>(num(v));
    else if (eat("--ops", &v)) a->ops = num(v);
    else if (eat("--ms", &v)) a->ms = num(v);
    else if (eat("--key-base", &v)) a->key_base = num(v);
    else if (eat("--key-count", &v)) a->key_count = num(v);
    else if (eat("--seed", &v)) a->seed = num(v);
    else if (eat("--idle-after", &v)) a->idle_after = num(v);
    else if (eat("--idle-ms", &v)) a->idle_ms = num(v);
    else if (eat("--mode", &v)) a->mode = v;
    else if (eat("--trace-out", &v)) a->trace_out = v;
    else if (eat("--fault-point", &v)) a->fault_point = static_cast<int>(num(v));
    else if (eat("--fault-at", &v)) a->fault_at = num(v);
    else if (std::strcmp(arg, "--idle-heartbeat") == 0) a->idle_heartbeat = true;
    else {
      std::fprintf(stderr, "unknown arg: %s\n", arg);
      return false;
    }
  }
  return !a->dir.empty();
}

struct Pending {
  int slot = -1;
  std::uint32_t op = kOpGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t t0 = 0;
  std::uint64_t span = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ipc_client --dir=DIR [--slots=N] [--flight=N] "
                 "[--ops=N] [--ms=N] [--key-base=N] [--key-count=N] "
                 "[--mode=put|mixed] [--seed=N] [--log=FILE] "
                 "[--trace-out=FILE] "
                 "[--fault-point=1..4] [--fault-at=N] "
                 "[--idle-after=N] [--idle-ms=N] [--idle-heartbeat]\n");
    return 2;
  }
  std::FILE* log = stdout;
  if (!a.log.empty()) {
    log = std::fopen(a.log.c_str(), "w");
    if (log == nullptr) return 2;
  }

  ShmClient cli;
  ShmClient::Options opt;
  opt.slots = a.slots;
  opt.fault.point = static_cast<ClientFaultPoint>(a.fault_point);
  opt.fault.trigger_at = a.fault_at;
  if (cli.connect(a.dir, opt) != ShmClient::Err::kOk) {
    std::fprintf(stderr, "ipc_client: connect to %s failed\n", a.dir.c_str());
    return 2;
  }

  const std::uint64_t deadline =
      a.ms != 0 ? mono_ns() + a.ms * 1'000'000ULL : ~0ULL;
  const bool mixed = a.mode == "mixed";
  std::uint64_t rng = splitmix64(a.seed ^ 0x5eedULL);
  std::uint64_t next_key = a.key_base;
  std::uint64_t issued = 0, acked = 0, errs = 0, noslot = 0;
  bool idled = a.idle_after == 0;
  std::vector<Pending> window;
  std::vector<std::uint64_t> lat;
  lat.reserve(1 << 14);
  int rc = 0;
  const bool tracing = !a.trace_out.empty();
  SpanRecorder spans;

  auto retire_one = [&]() -> bool {
    Pending p = window.front();
    window.erase(window.begin());
    ShmClient::Reply rep;
    const std::uint64_t t_wait = mono_ns();
    const ShmClient::Err e = cli.wait(p.slot, &rep);
    if (e != ShmClient::Err::kOk) {
      ++errs;
      rc = e == ShmClient::Err::kServerGone ? 3 : 4;
      return false;
    }
    const std::uint64_t t_ack = mono_ns();
    if (tracing && p.span != 0) {
      // Client-side lifecycle stages; the server emits the matching
      // req.* events into its own rings and the two JSONs merge on the
      // shared span id (same host CLOCK_MONOTONIC on both sides).
      spans.complete("req.client", p.span, p.t0, t_ack);
      spans.complete("req.wait", p.span, t_wait, t_ack);
    }
    ++acked;
    if (lat.size() < (1u << 16)) lat.push_back(t_ack - p.t0);
    std::fprintf(log, "A %u %" PRIu64 " %" PRIu64 " %u %u %" PRIu64 "\n",
                 p.op, p.key, p.value, rep.status, rep.ok ? 1 : 0,
                 rep.complete_epoch);
    std::fflush(log);
    return true;
  };

  while (rc == 0) {
    if (a.ops != 0 && acked >= a.ops) break;
    if (a.ms != 0 && mono_ns() >= deadline && window.empty()) break;
    if (!idled && acked >= a.idle_after) {
      // Drain the window, then go quiet — this is the mid-lease victim
      // shape (parent SIGKILLs us here) and, without --idle-heartbeat,
      // the lease-expiry shape (server reclaims a silent session).
      while (!window.empty() && rc == 0) retire_one();
      const std::uint64_t until = mono_ns() + a.idle_ms * 1'000'000ULL;
      while (mono_ns() < until) {
        if (a.idle_heartbeat) cli.heartbeat();
        usleep(10'000);
      }
      idled = true;
      continue;
    }
    const bool can_issue =
        (a.ops == 0 || issued < a.ops) && (a.ms == 0 || mono_ns() < deadline);
    if (can_issue && window.size() < a.flight) {
      Pending p;
      if (mixed) {
        rng = splitmix64(rng);
        p.key = a.key_base + rng % a.key_count;
        p.op = (rng >> 32) % 2 == 0 ? kOpGet : kOpPut;
      } else {
        p.key = next_key++;
        p.op = kOpPut;
      }
      p.value = p.op == kOpPut ? value_of(p.key) : 0;
      p.t0 = mono_ns();
      p.slot = cli.submit(static_cast<WireOp>(p.op), p.key, p.value);
      if (p.slot < 0) {
        ++noslot;  // client-side shed: retire one and retry
        if (!window.empty()) retire_one();
        continue;
      }
      if (tracing) {
        p.span = cli.span_of(p.slot);
        // Publish stage: submit() call -> slot published.
        spans.complete("req.publish", p.span, p.t0, mono_ns());
      }
      ++issued;
      window.push_back(p);
      continue;
    }
    if (!window.empty()) {
      retire_one();
      continue;
    }
    break;  // nothing in flight, nothing to issue
  }
  while (!window.empty() && rc == 0) retire_one();

  std::sort(lat.begin(), lat.end());
  auto q = [&](double f) -> std::uint64_t {
    if (lat.empty()) return 0;
    return lat[std::min(lat.size() - 1,
                        static_cast<std::size_t>(f * lat.size()))];
  };
  std::fprintf(log,
               "R ops=%" PRIu64 " errs=%" PRIu64 " noslot=%" PRIu64
               " p50_ns=%" PRIu64 " p99_ns=%" PRIu64 "\n",
               acked, errs, noslot, q(0.50), q(0.99));
  std::fflush(log);
  if (tracing && !spans.write(a.trace_out)) {
    std::fprintf(stderr, "ipc_client: writing %s failed\n",
                 a.trace_out.c_str());
  }
  cli.disconnect();
  return rc;
}
