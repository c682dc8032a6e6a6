#include "svc/kvstore.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <ctime>
#include <string>

#include "common/spin.hpp"
#include "obs/trace.hpp"

namespace bdhtm::svc {

namespace {
obs::Registry& reg() { return obs::Registry::global(); }

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "futex words must be plain 32-bit words");

/// Sleeps while *word == seen, for at most timeout_ns. True when the
/// timeout ended the sleep (not a wake, a changed word or a signal).
bool futex_sleep(std::atomic<std::uint32_t>* word, std::uint32_t seen,
                 std::uint64_t timeout_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ULL);
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
                 FUTEX_WAIT_PRIVATE, seen, &ts, nullptr, 0) == -1 &&
         errno == ETIMEDOUT;
}

void futex_wake_one(std::atomic<std::uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}
}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kNotFound:
      return "not_found";
    case Status::kRejected:
      return "rejected";
    case Status::kClosed:
      return "closed";
    case Status::kUnsupported:
      return "unsupported";
    case Status::kClientGone:
      return "client_gone";
    case Status::kInvalid:
      return "invalid";
  }
  return "?";
}

KVStore::KVStore(epoch::EpochSys& es, const KVStoreConfig& cfg)
    : es_(es),
      cfg_(cfg),
      c_ops_(reg().counter("svc.ops")),
      c_batches_(reg().counter("svc.batches")),
      c_restarts_(reg().counter("svc.envelope_restarts")),
      c_shed_(reg().counter("svc.shed")),
      c_rejected_closed_(reg().counter("svc.rejected_on_close")),
      c_parks_(reg().counter("svc.worker.parks")),
      c_park_timeouts_(reg().counter("svc.worker.park_timeouts")),
      h_batch_size_(reg().histogram("svc.batch_size")),
      h_latency_ns_(reg().histogram("svc.latency_ns")),
      h_queue_depth_(reg().histogram("svc.queue_depth")),
      h_lat_queue_(reg().histogram("svc.lat.queue_ns")),
      h_lat_htm_(reg().histogram("svc.lat.htm_ns")),
      h_lat_epoch_wait_(reg().histogram("svc.lat.epoch_wait_ns")),
      h_ack_buffered_(reg().histogram("svc.ack.buffered_ns")),
      h_ack_durable_(reg().histogram("svc.ack.durable_ns")) {
  int ns = 1;
  while (ns < cfg_.shards) ns <<= 1;
  cfg_.shards = ns;
  shard_mask_ = static_cast<std::uint64_t>(ns) - 1;
  if (cfg_.clients < 1) cfg_.clients = 1;
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.workers > cfg_.clients) cfg_.workers = cfg_.clients;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;

  key_max_ = ~std::uint64_t{0};
  for (int s = 0; s < ns; ++s) {
    shards_.push_back(make_shard(cfg_.backend, es_, cfg_.shard_opt));
    key_max_ = std::min(key_max_, shards_.back()->max_key());
    const std::string base = "svc.shard" + std::to_string(s);
    h_shard_depth_.push_back(&reg().histogram(base + ".backlog"));
    c_shard_ops_.push_back(&reg().counter(base + ".ops"));
  }
  for (int c = 0; c < cfg_.clients; ++c) {
    queues_.push_back(
        std::make_unique<SpscQueue<Request*>>(cfg_.queue_capacity));
  }
  sources_ = std::make_unique<std::atomic<Source*>[]>(
      static_cast<std::size_t>(cfg_.clients));
  wakes_ = std::make_unique<WorkerWake[]>(
      static_cast<std::size_t>(cfg_.workers));
  es_.add_publish_listener(this);
  if (cfg_.start_workers) {
    for (int w = 0; w < cfg_.workers; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

KVStore::~KVStore() {
  close();
  es_.remove_publish_listener(this);
}

void KVStore::mark_done(Request* req) {
  if (req->source != nullptr) {
    --req->source->in_flight_;
    req->source->complete(*req);
    return;
  }
  // Resolver side of the spin-then-park handshake: the notify syscall is
  // paid only when the waiter already parked (CASed kQueued->kWaiting).
  const std::uint32_t prev =
      req->state.exchange(Request::kDone, std::memory_order_acq_rel);
  if (prev == Request::kWaiting) req->state.notify_all();
}

bool KVStore::admit(Request* req) {
  req->t_submit_ns = now_ns();
  req->complete_epoch = 0;
  req->state.store(Request::kQueued, std::memory_order_relaxed);
  // The arena path hands over client-written op and key: an op kind
  // outside the three would match no case of apply_batch (and report
  // kOk), a key past the backend's range would index out of the vEB or
  // store BD-Spash's empty marker.
  using Kind = epoch::BatchOp::Kind;
  const auto kind = static_cast<std::uint8_t>(req->op.kind);
  if (closed_.load(std::memory_order_acquire)) {
    req->status = Status::kClosed;
  } else if (kind > static_cast<std::uint8_t>(Kind::kRemove) ||
             req->op.key > key_max_) {
    req->status = Status::kInvalid;
  } else {
    return true;
  }
  mark_done(req);
  return false;
}

bool KVStore::submit(int client, Request* req) {
  if (!admit(req)) return false;
  auto& q = *queues_[client];
  if (!q.try_push(req)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    c_shed_.add(1);
    obs::trace_instant(obs::TraceEventType::kSvcShed,
                       static_cast<std::uint64_t>(client), q.capacity());
    req->status = Status::kRejected;
    mark_done(req);
    return false;
  }
  // Dekker handshake with close(): submitter = [push; fence; read
  // closed_], closer = [write closed_; fence; sweep]. The fences make it
  // impossible that the sweep misses this push AND this read misses
  // closed_ — so a push that raced past the final sweep is caught here
  // and swept by the submitter itself (the workers are gone by then, and
  // close_mu_ serializes against close(), so SPSC consumption holds).
  // The same fence pairs with the owning worker's sleep announcement:
  // either it sees this push before sleeping or wake() sees it asleep.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!skip_submit_wake_.load(std::memory_order_relaxed)) {
    wake(wakes_[static_cast<std::size_t>(client % cfg_.workers)]);
  }
  if (closed_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> g(close_mu_);
    if (swept_) reject_queue(q);
    return req->state.load(std::memory_order_acquire) != Request::kDone;
  }
  return true;
}

void KVStore::wait(Request* req) {
  auto& st = req->state;
  for (int i = 0; i < 256; ++i) {
    if (st.load(std::memory_order_acquire) == Request::kDone) return;
    std::this_thread::yield();
  }
  for (;;) {
    std::uint32_t s = Request::kQueued;
    if (st.compare_exchange_strong(s, Request::kWaiting,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      s = Request::kWaiting;
    }
    if (s == Request::kDone) return;
    st.wait(s, std::memory_order_acquire);
  }
}

Result KVStore::result_of(const Request& req) {
  Result r;
  r.status = req.status;
  r.applied = req.op.ok;
  r.value = req.op.out_value;
  return r;
}

Result KVStore::get(int client, std::uint64_t key) {
  Request r = Request::get(key);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Result KVStore::put(int client, std::uint64_t key, std::uint64_t value) {
  Request r = Request::put(key, value);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Result KVStore::remove(int client, std::uint64_t key) {
  Request r = Request::del(key);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Status KVStore::scan(
    std::uint64_t start_key, std::size_t max_out,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* out) {
  out->clear();
  if (shards_.empty() || !shards_[0]->ordered()) return Status::kUnsupported;
  const int n = shards();
  // K-way merge over per-shard successor cursors.
  std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>> cand(
      static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) cand[s] = shards_[s]->successor(start_key);
  while (out->size() < max_out) {
    int best = -1;
    for (int s = 0; s < n; ++s) {
      if (cand[s] && (best < 0 || cand[s]->first < cand[best]->first)) {
        best = s;
      }
    }
    if (best < 0) break;
    out->push_back(*cand[best]);
    cand[best] = shards_[best]->successor(cand[best]->first);
  }
  return Status::kOk;
}

void KVStore::resolve(Request* req) {
  using Kind = epoch::BatchOp::Kind;
  switch (req->op.kind) {
    case Kind::kGet:
    case Kind::kRemove:
      req->status = req->op.ok ? Status::kOk : Status::kNotFound;
      break;
    case Kind::kPut:
      req->status = Status::kOk;
      break;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (req->span_id != 0) {
    obs::trace_instant(obs::TraceEventType::kReqAck, req->span_id,
                       static_cast<std::uint64_t>(req->status));
  }
  mark_done(req);
}

void KVStore::execute_shard_batch(int s, WorkerCtx& ctx, std::size_t m) {
  const std::uint64_t t0 = now_ns();
  ctx.ops.resize(m);
  for (std::size_t i = 0; i < m; ++i) ctx.ops[i] = ctx.reqs[i]->op;

  std::size_t envelopes = 0;
  epoch::run_envelope(es_, m, [&](std::size_t first, std::size_t count) {
    ++envelopes;
    // Stamp the segment with its envelope's epoch BEFORE applying: a
    // restart re-stamps only the unapplied suffix, so every request ends
    // up with the exact epoch its effects are stamped with (the recovery
    // oracle and the kDurable release both depend on this).
    const std::uint64_t cur = es_.current_op_epoch();
    for (std::size_t i = first; i < first + count; ++i) {
      ctx.reqs[i]->complete_epoch = cur;
    }
    shards_[static_cast<std::size_t>(s)]->apply_batch(ctx.ops.data() + first,
                                                      count);
  });

  for (std::size_t i = 0; i < m; ++i) {
    ctx.reqs[i]->op.ok = ctx.ops[i].ok;
    ctx.reqs[i]->op.out_value = ctx.ops[i].out_value;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  c_batches_.add(1);
  c_ops_.add(m);
  if (envelopes > 1) {
    restarts_.fetch_add(envelopes - 1, std::memory_order_relaxed);
    c_restarts_.add(envelopes - 1);
  }
  h_batch_size_.record(m);
  const std::uint64_t t_end = now_ns();
  // Sampled (one point per batch, the oldest request): per-op records
  // would cost more than the batching saves. Drivers that need exact
  // quantiles time submit->wait themselves.
  h_latency_ns_.record(t_end - ctx.reqs[0]->t_submit_ns);
  // Decomposition legs, sampled at the same once-per-batch cadence. The
  // origin is the client-side submit stamp when the request crossed the
  // IPC boundary with one, else the in-process submit time.
  const std::uint64_t origin = ctx.reqs[0]->t_origin_ns != 0
                                   ? ctx.reqs[0]->t_origin_ns
                                   : ctx.reqs[0]->t_submit_ns;
  if (t0 > origin) h_lat_queue_.record(t0 - origin);
  h_lat_htm_.record(t_end - t0);
  c_shard_ops_[static_cast<std::size_t>(s)]->add(m);
  obs::trace_complete(obs::TraceEventType::kSvcBatch, t0,
                      static_cast<std::uint64_t>(s), m);
  if (obs::tracing_enabled()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (ctx.reqs[i]->span_id == 0) continue;
      // Each traced request shows the envelope window it rode in plus
      // the epoch its effects were stamped with.
      obs::trace_complete(obs::TraceEventType::kReqExec, t0,
                          ctx.reqs[i]->span_id,
                          static_cast<std::uint64_t>(s));
      obs::trace_instant(obs::TraceEventType::kReqEpoch, ctx.reqs[i]->span_id,
                         ctx.reqs[i]->complete_epoch);
    }
  }

  if (cfg_.release == ReleasePolicy::kBuffered) {
    for (std::size_t i = 0; i < m; ++i) resolve(ctx.reqs[i]);
    const std::uint64_t t_ack = now_ns();
    if (t_ack > origin) h_ack_buffered_.record(t_ack - origin);
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t release_epoch = ctx.reqs[i]->complete_epoch + 2;
      assert(ctx.parked.empty() ||
             ctx.parked.back().release_epoch <= release_epoch);
      ctx.parked.push_back({release_epoch, t_end, ctx.reqs[i]});
    }
  }
}

std::size_t KVStore::release_parked(WorkerCtx& ctx, bool force_advance) {
  std::size_t released = 0;
  while (!ctx.parked.empty()) {
    // A worker's complete_epoch stamps never decrease, so ctx.parked is
    // in release order: release from the head, stop at the first entry
    // the persisted epoch does not cover.
    const std::uint64_t p = es_.persisted_epoch();
    std::size_t n = 0;
    while (n < ctx.parked.size() && ctx.parked[n].release_epoch <= p) ++n;
    if (n > 0) {
      // One sample per sweep (same cadence policy as the batch
      // latencies): how long the commit waited on durability, and the
      // full origin->durable-ack span.
      const Parked& first = ctx.parked[0];
      const std::uint64_t now = now_ns();
      if (now > first.t_exec_ns) {
        h_lat_epoch_wait_.record(now - first.t_exec_ns);
      }
      const std::uint64_t origin = first.req->t_origin_ns != 0
                                       ? first.req->t_origin_ns
                                       : first.req->t_submit_ns;
      if (now > origin) h_ack_durable_.record(now - origin);
      for (std::size_t i = 0; i < n; ++i) {
        const Parked& pk = ctx.parked[i];
        if (pk.req->span_id != 0) {
          obs::trace_complete(obs::TraceEventType::kReqDurable, pk.t_exec_ns,
                              pk.req->span_id, pk.release_epoch);
        }
        resolve(pk.req);
      }
      ctx.parked.erase(ctx.parked.begin(),
                       ctx.parked.begin() + static_cast<std::ptrdiff_t>(n));
      released += n;
    }
    if (ctx.parked.empty() || !force_advance) break;
    // Drain-then-advance: at shutdown nobody else may move the epoch
    // forward, so the worker pushes durability out itself.
    es_.advance();
  }
  return released;
}

void KVStore::attach(int client, Source* src) {
  std::lock_guard<std::mutex> g(close_mu_);
  if (swept_) {  // closed: nobody will pull
    src->state_.store(Source::kDetached, std::memory_order_release);
    return;
  }
  src->state_.store(Source::kAttached, std::memory_order_relaxed);
  sources_[client].store(src, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake(wakes_[static_cast<std::size_t>(client % cfg_.workers)]);
}

void KVStore::detach(Source* src) {
  std::uint32_t st = Source::kAttached;
  src->state_.compare_exchange_strong(st, Source::kDetachRequested,
                                      std::memory_order_acq_rel);
  if (cfg_.start_workers) return;  // the owning worker completes it
  std::lock_guard<std::mutex> g(close_mu_);
  for (int c = 0; c < cfg_.clients; ++c) {
    if (sources_[c].load(std::memory_order_relaxed) == src) {
      drop_source(c, *src);
    }
  }
}

void KVStore::drop_source(int c, Source& src) {
  sources_[c].store(nullptr, std::memory_order_relaxed);
  // Hands the source back: the store touches it no more.
  src.state_.store(Source::kDetached, std::memory_order_release);
}

std::size_t KVStore::pull_source(int c, Source& src, WorkerCtx& ctx) {
  // Quiescent point: no batch of this worker is executing, and every
  // pulled request still unresolved sits in ctx.parked (in_flight_).
  if (src.state_.load(std::memory_order_acquire) != Source::kAttached) {
    if (src.in_flight_ == 0) drop_source(c, src);
    return 0;
  }
  // A closed store takes no new work; close() sweeps what is published.
  if (closed_.load(std::memory_order_acquire)) return 0;
  ctx.pulled.resize(cfg_.max_batch);
  const std::size_t n = src.pull(ctx.pulled.data(), cfg_.max_batch);
  src.in_flight_ += n;
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Request* r = ctx.pulled[i];
    if (!admit(r)) continue;
    ctx.by_shard[static_cast<std::size_t>(shard_of(r->op.key))].push_back(r);
    ++admitted;
  }
  return admitted;
}

void KVStore::worker_main(int w) {
  WorkerCtx ctx;
  ctx.by_shard.resize(shards_.size());
  std::uint64_t idle_since = 0;  // 0: the last pass did work
  for (;;) {
    bool any = false;
    bool serves_source = false;
    for (int c = w; c < cfg_.clients; c += cfg_.workers) {
      // Depth sampled at drain time (admission pressure as the worker
      // sees it), keeping the submit hot path free of registry traffic.
      const std::size_t depth = queues_[c]->size();
      if (depth > 0) h_queue_depth_.record(depth);
      Request* r = nullptr;
      std::size_t pulled = 0;
      while (pulled < cfg_.max_batch && queues_[c]->try_pop(&r)) {
        ctx.by_shard[static_cast<std::size_t>(shard_of(r->op.key))]
            .push_back(r);
        ++pulled;
      }
      if (Source* src = sources_[c].load(std::memory_order_acquire)) {
        serves_source = true;
        pulled += pull_source(c, *src, ctx);
      }
      if (pulled > 0) any = true;
    }
    if (any) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        auto& bucket = ctx.by_shard[s];
        if (bucket.empty()) continue;
        h_shard_depth_[s]->record(bucket.size());
        std::size_t off = 0;
        while (off < bucket.size()) {
          const std::size_t m =
              std::min(cfg_.max_batch, bucket.size() - off);
          ctx.reqs.assign(bucket.begin() + static_cast<std::ptrdiff_t>(off),
                          bucket.begin() +
                              static_cast<std::ptrdiff_t>(off + m));
          execute_shard_batch(static_cast<int>(s), ctx, m);
          off += m;
        }
        bucket.clear();
      }
    }
    if (release_parked(ctx, /*force_advance=*/false) > 0) any = true;
    if (any) {
      idle_since = 0;
      continue;
    }
    bool drained = closed_.load(std::memory_order_acquire);
    if (drained) {
      for (int c = w; c < cfg_.clients; c += cfg_.workers) {
        if (!queues_[c]->empty()) {
          drained = false;
          break;
        }
      }
    }
    if (drained) {
      release_parked(ctx, /*force_advance=*/true);
      break;
    }
    // Idle: poll for the budget (released clients usually resubmit
    // within it), then sleep. A worker serving a source keeps polling.
    const std::uint64_t now = now_ns();
    if (idle_since == 0) idle_since = now;
    if (serves_source || now - idle_since < kIdleSpinNs) {
      std::this_thread::yield();
      continue;
    }
    sleep_until_woken(w, ctx);
    idle_since = 0;
  }
}

bool KVStore::work_ready(int w, const WorkerCtx& ctx) const {
  if (closed_.load(std::memory_order_acquire)) return true;
  for (int c = w; c < cfg_.clients; c += cfg_.workers) {
    if (!queues_[c]->empty() ||
        sources_[c].load(std::memory_order_acquire) != nullptr) {
      return true;
    }
  }
  return !ctx.parked.empty() &&
         es_.persisted_epoch() >= ctx.parked.front().release_epoch;
}

void KVStore::sleep_until_woken(int w, const WorkerCtx& ctx) {
  WorkerWake& wk = wakes_[static_cast<std::size_t>(w)];
  const std::uint32_t seen = wk.word.load(std::memory_order_acquire);
  // Dekker pair with every ringer: announce, fence, re-check. A ringer
  // publishes its work, fences, then reads `sleeping`, so either the
  // re-check below sees the work or the ringer sees the announcement and
  // bumps `word` past `seen` before its wake.
  wk.sleeping.store(
      ctx.parked.empty() ? kNoRelease : ctx.parked.front().release_epoch,
      std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (work_ready(w, ctx)) {
    wk.sleeping.store(kAwake, std::memory_order_relaxed);
    return;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  c_parks_.add(1);
  const bool expired = futex_sleep(&wk.word, seen, kParkBackstopNs);
  // A ringer claims the announcement before it wakes the worker. When the
  // backstop ends a sleep with work waiting, the ring may be on its way:
  // a publish makes the persisted counter visible before it rings, and
  // a kDurable wait of two epochs lines the backstop up with that very
  // publish. Only a claim that does not follow within kRingGraceNs is a
  // wake that did not come.
  const bool owed = expired && work_ready(w, ctx);
  if (owed) {
    const std::uint64_t until = now_ns() + kRingGraceNs;
    while (wk.sleeping.load(std::memory_order_relaxed) != kAwake &&
           now_ns() < until) {
      std::this_thread::yield();
    }
  }
  const bool claimed =
      wk.sleeping.exchange(kAwake, std::memory_order_relaxed) == kAwake;
  if (owed && !claimed) {
    park_timeouts_.fetch_add(1, std::memory_order_relaxed);
    c_park_timeouts_.add(1);
  }
}

void KVStore::wake(WorkerWake& wk) {
  if (wk.sleeping.load(std::memory_order_relaxed) == kAwake ||
      wk.sleeping.exchange(kAwake, std::memory_order_relaxed) == kAwake) {
    return;
  }
  wk.word.fetch_add(1, std::memory_order_release);
  futex_wake_one(&wk.word);
}

void KVStore::on_publish(std::uint64_t persisted) {
  // Pairs with the sleep announcement: the advancer stored the persisted
  // counter before this call, so a sleeper whose re-check missed it is
  // seen here.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (int w = 0; w < cfg_.workers; ++w) {
    WorkerWake& wk = wakes_[static_cast<std::size_t>(w)];
    const std::uint64_t want = wk.sleeping.load(std::memory_order_relaxed);
    if (want != kAwake && persisted >= want) wake(wk);
  }
}

void KVStore::reject(Request* req) {
  req->status = Status::kRejected;
  rejected_on_close_.fetch_add(1, std::memory_order_relaxed);
  c_rejected_closed_.add(1);
  mark_done(req);
}

void KVStore::reject_queue(SpscQueue<Request*>& q) {
  Request* r = nullptr;
  while (q.try_pop(&r)) reject(r);
}

void KVStore::sweep_rejected() {
  // Post-join (or never-started-workers) sweep: anything still queued
  // or published in an attached source resolves as kRejected — a
  // submitted request is never lost. Callers hold close_mu_.
  for (auto& q : queues_) reject_queue(*q);
  std::vector<Request*> buf(cfg_.max_batch);
  for (int c = 0; c < cfg_.clients; ++c) {
    Source* src = sources_[c].load(std::memory_order_acquire);
    if (src == nullptr) continue;
    // A source whose detach was requested is not pulled: its attacher
    // sheds what is left. A pull that comes back short has scanned the
    // whole source.
    std::size_t n = buf.size();
    while (n == buf.size() &&
           src->state_.load(std::memory_order_acquire) == Source::kAttached) {
      n = src->pull(buf.data(), buf.size());
      src->in_flight_ += n;
      for (std::size_t i = 0; i < n; ++i) reject(buf[i]);
    }
    drop_source(c, *src);
  }
}

void KVStore::close() {
  closed_.store(true, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (int w = 0; w < cfg_.workers; ++w) {
    wake(wakes_[static_cast<std::size_t>(w)]);
  }
  // Everything after the closed_ publication happens under close_mu_, so
  // a second concurrent close() simply queues behind the first and
  // returns once the drain is complete (idempotent: joined_/swept_ flags
  // make the join and the straggler sweep single-shot). Joining outside
  // the mutex raced two closers into std::thread::join() on the same
  // handles — one of them UB. No deadlock risk: workers never take
  // close_mu_, and submit()'s cold path holds it only briefly to sweep.
  std::lock_guard<std::mutex> g(close_mu_);
  if (!joined_) {
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
  if (!swept_) {
    sweep_rejected();
    swept_ = true;
  }
}

std::size_t KVStore::recover(int threads) {
  for (auto& s : shards_) s->reset_index();
  std::vector<std::pair<epoch::KVPair*, std::uint64_t>> blocks;
  es_.recover([&](void* p, std::uint64_t ce) {
    blocks.emplace_back(static_cast<epoch::KVPair*>(p), ce);
  });
  auto link_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto [kv, ce] = blocks[i];
      shards_[static_cast<std::size_t>(shard_of(kv->key))]->relink_recovered(
          kv, ce);
    }
  };
  if (threads <= 1) {
    link_range(0, blocks.size());
  } else {
    std::vector<std::thread> ws;
    const std::size_t chunk =
        (blocks.size() + static_cast<std::size_t>(threads) - 1) /
        static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = static_cast<std::size_t>(t) * chunk;
      const std::size_t hi = std::min(blocks.size(), lo + chunk);
      if (lo >= hi) break;
      ws.emplace_back([&, lo, hi] { link_range(lo, hi); });
    }
    for (auto& t : ws) t.join();
  }
  return blocks.size();
}

}  // namespace bdhtm::svc
