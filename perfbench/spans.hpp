// Traced-run span accounting. The load generators record their own
// spans around each call into a layer; the program's existing req.*
// trace events (emitted for requests that carry a span id) supply the
// spans inside the service. Per sampled request the spans form a tree:
//
//   direct: op > shard.call
//   svc:    op > svc [submit stamp, req.ack] > {shard = req.exec,
//                                                epoch = req.durable}
//   shm:    op > ipc [client publish, reply seen] > svc [session pickup,
//                  req.ack] > {shard = req.exec, epoch = req.durable}
//
// A node's self time is its length minus the union of its children
// clipped to it. When every child lies inside its parent and siblings do
// not overlap, the self times add up to the op span exactly; any child
// sticking out of its parent, or siblings overlapping, make the sum
// exceed the op span. That excess, as a share of the op spans, is the
// reconciliation residual the driver checks against kReconcileTolerance.
// A sampled op whose events the rings must still hold but that cannot be
// matched is not in the sums; the driver requires the matched share of
// those ops to stay at or above kMinMatchedFrac.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

inline constexpr double kReconcileTolerance = 0.02;
inline constexpr double kMinMatchedFrac = 0.98;

/// One sampled operation as the load generator saw it (ns, CLOCK_MONOTONIC).
/// Trivial on purpose: buffers of these are allocated untouched.
struct SampledOp {
  std::uint64_t span_id;  // program span id; 0 on the direct path
  std::uint64_t op_b, op_e;      // op
  std::uint64_t call_b, call_e;  // shard.call / svc.submit / ipc.submit
  std::uint64_t wait_b, wait_e;  // svc.wait / ipc.wait
  std::uint64_t origin;          // svc: Request::t_submit_ns
};

/// The program's req.* events of one sampled request.
struct ProgramSpans {
  std::uint64_t queue_b = 0, queue_e = 0;  // req.queue (shm only)
  std::uint64_t exec_b = 0, exec_e = 0;    // req.exec
  std::uint64_t dur_b = 0, dur_e = 0;      // req.durable (kDurable only)
  std::uint64_t ack = 0;                   // req.ack
};

/// The req.* events the rings still hold, by span id, and how far back
/// the rings reach.
struct ProgramEvents {
  std::unordered_map<std::uint64_t, std::vector<bdhtm::obs::TraceEvent>>
      by_id;
  /// Every event emitted at or after this stamp is still held: the
  /// emission stamp of the oldest event of each full ring, the latest of
  /// them (0 when no ring filled up). The rings keep the newest events.
  std::uint64_t horizon_ns = 0;
};

inline ProgramEvents collect_program_events() {
  struct Ctx {
    ProgramEvents ev;
    std::unordered_map<int, std::pair<std::size_t, std::uint64_t>> rings;
  } ctx;
  bdhtm::obs::for_each_trace_event(
      [](void* p, int tid, const bdhtm::obs::TraceEvent& ev) {
        using T = bdhtm::obs::TraceEventType;
        Ctx& c = *static_cast<Ctx*>(p);
        // Per ring: events held, and the emission stamp of the oldest
        // (each ring is visited oldest first).
        auto& ring = c.rings[tid];
        if (ring.first++ == 0) ring.second = ev.ts_ns + ev.dur_ns;
        if (ev.type == T::kReqQueue || ev.type == T::kReqExec ||
            ev.type == T::kReqDurable || ev.type == T::kReqAck) {
          c.ev.by_id[ev.a].push_back(ev);
        }
      },
      &ctx);
  for (const auto& [tid, ring] : ctx.rings) {
    if (ring.first >= bdhtm::obs::trace_capacity()) {
      ctx.ev.horizon_ns = std::max(ctx.ev.horizon_ns, ring.second);
    }
  }
  return std::move(ctx.ev);
}

enum class Path { kDirect, kSvc, kShm };

/// The program's events of the sampled request `o`. On the svc path a
/// span id names one request. On the shm path the in-process clients
/// share a pid, so an id (pid << 32 | per-client sequence number) can name
/// one request of each client: the request's queue event is the one that
/// begins at its publish stamp, inside [call_b, call_e]. Of every other
/// event type the one nearest in time to the request's anchor (svc:
/// Request::t_submit_ns; shm: the end of its queue event) is taken.
/// Events are not filtered by where they lie, so one outside its parent
/// span raises the residual instead of being dropped. Returns false when
/// an event type is missing.
inline bool match_spans(const ProgramEvents& ev, Path path, bool durable,
                        const SampledOp& o, ProgramSpans* out) {
  using bdhtm::obs::TraceEvent;
  using T = bdhtm::obs::TraceEventType;
  auto it = ev.by_id.find(o.span_id);
  if (it == ev.by_id.end()) return false;
  const std::vector<TraceEvent>& evs = it->second;
  ProgramSpans p;
  std::uint64_t anchor = o.origin;
  if (path == Path::kShm) {
    int nq = 0;
    for (const TraceEvent& e : evs) {
      if (e.type == T::kReqQueue && e.ts_ns >= o.call_b &&
          e.ts_ns <= o.call_e) {
        p.queue_b = e.ts_ns;
        p.queue_e = e.ts_ns + e.dur_ns;
        ++nq;
      }
    }
    if (nq != 1) return false;
    anchor = p.queue_e;
  }
  auto nearest = [&](T type) -> const TraceEvent* {
    const TraceEvent* best = nullptr;
    std::uint64_t best_d = ~std::uint64_t{0};
    for (const TraceEvent& e : evs) {
      if (e.type != type) continue;
      const std::uint64_t d =
          e.ts_ns > anchor ? e.ts_ns - anchor : anchor - e.ts_ns;
      if (d < best_d) {
        best = &e;
        best_d = d;
      }
    }
    return best;
  };
  const TraceEvent* x = nearest(T::kReqExec);
  const TraceEvent* a = nearest(T::kReqAck);
  const TraceEvent* d = durable ? nearest(T::kReqDurable) : nullptr;
  if (x == nullptr || a == nullptr || (durable && d == nullptr)) return false;
  p.exec_b = x->ts_ns;
  p.exec_e = x->ts_ns + x->dur_ns;
  p.ack = a->ts_ns;
  if (d != nullptr) {
    p.dur_b = d->ts_ns;
    p.dur_e = d->ts_ns + d->dur_ns;
  }
  *out = p;
  return true;
}

/// Mean self time per matched op, by layer (us), plus the residual.
struct SelfTimes {
  std::uint64_t sampled = 0;
  /// Sampled ops that began at or after the rings' horizon: all their
  /// program events must still be held.
  std::uint64_t eligible = 0;
  std::uint64_t matched = 0;
  double op_us = 0;  // mean op span
  double self_op_us = 0, self_ipc_us = 0, self_svc_us = 0;
  double self_shard_us = 0, self_epoch_us = 0;
  double residual_frac = 0;  // (sum of self times - op spans) / op spans
  std::vector<std::uint64_t> transport_ns;  // ipc call minus svc part
};

namespace detail {

struct Iv {
  std::uint64_t b, e;
  double len() const { return e > b ? static_cast<double>(e - b) : 0.0; }
};

/// Length of the union of `kids`, each clipped to `parent`.
inline double covered(Iv parent, std::vector<Iv> kids) {
  for (auto& k : kids) {
    k.b = std::max(k.b, parent.b);
    k.e = std::min(k.e, parent.e);
  }
  std::sort(kids.begin(), kids.end(),
            [](const Iv& x, const Iv& y) { return x.b < y.b; });
  double total = 0;
  std::uint64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (const Iv& k : kids) {
    if (k.e <= k.b) continue;
    if (open && k.b <= cur_e) {
      cur_e = std::max(cur_e, k.e);
      continue;
    }
    if (open) total += static_cast<double>(cur_e - cur_b);
    cur_b = k.b;
    cur_e = k.e;
    open = true;
  }
  if (open) total += static_cast<double>(cur_e - cur_b);
  return total;
}

inline double self_of(Iv node, const std::vector<Iv>& kids) {
  return node.len() - covered(node, kids);
}

}  // namespace detail

inline SelfTimes analyze_spans(Path path, bool durable,
                               const std::vector<SampledOp>& ops,
                               const ProgramEvents& prog) {
  using detail::Iv;
  using detail::self_of;
  SelfTimes st;
  st.sampled = ops.size();
  double sum_op = 0, s_op = 0, s_ipc = 0, s_svc = 0, s_shard = 0, s_epoch = 0;
  for (const SampledOp& o : ops) {
    const Iv op{o.op_b, o.op_e};
    if (path == Path::kDirect) {
      const Iv call{o.call_b, o.call_e};
      s_op += self_of(op, {call});
      s_shard += call.len();
      sum_op += op.len();
      ++st.eligible;
      ++st.matched;
      continue;
    }
    // The events of an op that began before the horizon may have been
    // overwritten; such an op is counted in `sampled` only.
    if (o.op_b < prog.horizon_ns) continue;
    ++st.eligible;
    ProgramSpans p;
    if (!match_spans(prog, path, durable, o, &p)) continue;
    // Each child's own length counts in full while its parent's self time
    // subtracts only the part inside the parent, so a child outside its
    // parent makes the sum exceed the op span.
    const Iv exec{p.exec_b, p.exec_e};
    std::vector<Iv> svc_kids{exec};
    if (durable) svc_kids.push_back({p.dur_b, p.dur_e});
    if (path == Path::kSvc) {
      const Iv svc{o.origin, p.ack};
      s_op += self_of(op, {svc});
      s_svc += self_of(svc, svc_kids);
    } else {
      const Iv ipc{p.queue_b, o.op_e};
      const Iv svc{p.queue_e, p.ack};
      s_op += self_of(op, {ipc});
      s_ipc += self_of(ipc, {svc});
      s_svc += self_of(svc, svc_kids);
      const double call = static_cast<double>(o.wait_e - o.call_b);
      const double t = call - svc.len();
      st.transport_ns.push_back(t > 0 ? static_cast<std::uint64_t>(t) : 0);
    }
    s_shard += exec.len();
    if (durable) s_epoch += Iv{p.dur_b, p.dur_e}.len();
    sum_op += op.len();
    ++st.matched;
  }
  if (st.matched == 0) return st;
  const double n = static_cast<double>(st.matched);
  st.op_us = sum_op / n / 1e3;
  st.self_op_us = s_op / n / 1e3;
  st.self_ipc_us = s_ipc / n / 1e3;
  st.self_svc_us = s_svc / n / 1e3;
  st.self_shard_us = s_shard / n / 1e3;
  st.self_epoch_us = s_epoch / n / 1e3;
  st.residual_frac =
      sum_op > 0 ? (s_op + s_ipc + s_svc + s_shard + s_epoch - sum_op) / sum_op
                 : 0;
  return st;
}

/// Chrome trace_event JSON of the first `limit` sampled ops: the
/// generator's own spans plus the matched program spans, one track per
/// layer. Returns false on I/O error.
inline bool write_span_trace(const std::string& path, Path p,
                             const std::vector<SampledOp>& ops,
                             const ProgramEvents& prog, bool durable,
                             std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  auto emit = [&](const char* name, int tid, std::uint64_t id,
                  std::uint64_t b, std::uint64_t e) {
    if (e < b || b == 0) return;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu}}",
                 first ? "" : ",", name, tid, static_cast<double>(b) / 1e3,
                 static_cast<double>(e - b) / 1e3,
                 static_cast<unsigned long long>(id));
    first = false;
  };
  const bool shm = p == Path::kShm;
  const char* call_name = p == Path::kDirect ? "shard.call"
                          : shm              ? "ipc.submit"
                                             : "svc.submit";
  std::size_t n = 0;
  for (const SampledOp& o : ops) {
    if (n++ == limit) break;
    emit("op", 0, o.span_id, o.op_b, o.op_e);
    emit(call_name, 1, o.span_id, o.call_b, o.call_e);
    if (p == Path::kDirect) continue;
    emit(shm ? "ipc.wait" : "svc.wait", 1, o.span_id, o.wait_b, o.wait_e);
    ProgramSpans s;
    if (!match_spans(prog, p, durable, o, &s)) continue;
    emit("req.queue", 2, o.span_id, s.queue_b, s.queue_e);
    emit("req.exec", 3, o.span_id, s.exec_b, s.exec_e);
    emit("req.durable", 4, o.span_id, s.dur_b, s.dur_e);
    emit("req.ack", 2, o.span_id, s.ack, s.ack);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
