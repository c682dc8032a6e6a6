// Service-layer unit tests (DESIGN.md §10): KVStore admission control,
// shard routing, batch execution against a sequential oracle, the
// envelope-restart protocol, ordered scans, release policies, and the
// shutdown contract — a submitted request always resolves (completed or
// kRejected), it is never lost — and the idle protocol: a worker with
// nothing to do sleeps, and submit, the epoch publish and attach wake it
// without waiting out the backstop. The suite runs in the sanitizer
// lane: the submit/shutdown race test is the TSan target the checklist
// names.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "nvm/device.hpp"
#include "svc/kvstore.hpp"
#include "svc/queue.hpp"

namespace bdhtm {
namespace {

struct SvcWorld {
  explicit SvcWorld(bool manual_epochs = false) {
    nvm::DeviceConfig dcfg;
    dcfg.capacity = 64ull << 20;
    dev = std::make_unique<nvm::Device>(dcfg);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    epoch::EpochSys::Config ecfg;
    if (manual_epochs) {
      ecfg.start_advancer = false;
      ecfg.flusher_threads = 1;
    }
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
  }

  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

svc::KVStoreConfig small_cfg(svc::Backend b) {
  svc::KVStoreConfig cfg;
  cfg.backend = b;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.clients = 1;
  cfg.queue_capacity = 64;
  cfg.max_batch = 8;
  cfg.shard_opt.veb_ubits = 12;
  return cfg;
}

const svc::Backend kAllBackends[] = {
    svc::Backend::kVebTree, svc::Backend::kSkiplist, svc::Backend::kHash};

TEST(Svc, SpscQueueBasics) {
  svc::SpscQueue<int*> q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  int vals[8];
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(&vals[i]));
  int extra;
  EXPECT_FALSE(q.try_push(&extra)) << "9th push into capacity-8 ring";
  int* out = nullptr;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out, &vals[i]) << "FIFO order";
  }
  EXPECT_FALSE(q.try_pop(&out));
  EXPECT_TRUE(q.empty());
}

TEST(Svc, SyncOpsAllBackends) {
  for (svc::Backend b : kAllBackends) {
    SvcWorld w;
    svc::KVStore store(*w.es, small_cfg(b));
    EXPECT_EQ(store.get(0, 7).status, svc::Status::kNotFound);
    auto put = store.put(0, 7, 70);
    EXPECT_EQ(put.status, svc::Status::kOk);
    EXPECT_TRUE(put.applied) << "fresh insert";
    auto got = store.get(0, 7);
    EXPECT_EQ(got.status, svc::Status::kOk);
    EXPECT_EQ(got.value, 70u);
    auto upd = store.put(0, 7, 71);
    EXPECT_EQ(upd.status, svc::Status::kOk);
    EXPECT_FALSE(upd.applied) << "update of existing key";
    EXPECT_EQ(store.get(0, 7).value, 71u);
    EXPECT_EQ(store.remove(0, 7).status, svc::Status::kOk);
    EXPECT_EQ(store.remove(0, 7).status, svc::Status::kNotFound);
    store.close();
  }
}

TEST(Svc, EmptyBatchAndIdleClose) {
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  // A zero-op apply_batch under a caller envelope must be a no-op.
  epoch::run_envelope(*w.es, 0, [&](std::size_t, std::size_t n) {
    store.shard(0).apply_batch(nullptr, n);
  });
  store.close();
  EXPECT_EQ(store.completed_total(), 0u);
  EXPECT_EQ(store.rejected_on_close_total(), 0u);
}

TEST(Svc, OneShardSkew) {
  // Every key routed to the same shard: the other shards stay idle and
  // nothing deadlocks or misroutes.
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.shards = 4;
  svc::KVStore store(*w.es, cfg);
  std::vector<std::uint64_t> skewed;
  for (std::uint64_t k = 0; skewed.size() < 64; ++k) {
    if (store.shard_of(k) == 0) skewed.push_back(k);
  }
  for (std::uint64_t k : skewed) {
    EXPECT_EQ(store.put(0, k, k * 3).status, svc::Status::kOk);
  }
  for (std::uint64_t k : skewed) {
    auto r = store.get(0, k);
    EXPECT_EQ(r.status, svc::Status::kOk);
    EXPECT_EQ(r.value, k * 3);
  }
  store.close();
  EXPECT_EQ(store.completed_total(), skewed.size() * 2);
}

TEST(Svc, CrossShardPerKeyOrdering) {
  // One client, pipelined flights spanning all shards: every per-key
  // op sequence must apply in submission order even when the worker
  // splits a flight into per-shard groups.
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.shards = 4;
  cfg.max_batch = 16;
  svc::KVStore store(*w.es, cfg);
  constexpr int kKeys = 32;
  std::map<std::uint64_t, std::optional<std::uint64_t>> oracle;
  Rng rng(0x5eed);
  std::vector<svc::Request> flight(16);
  for (int round = 0; round < 50; ++round) {
    for (auto& r : flight) {
      const std::uint64_t k = rng.next_below(kKeys);
      switch (rng.next_below(3)) {
        case 0:
          r = svc::Request::put(k, round * 1000 + k);
          oracle[k] = round * 1000 + k;
          break;
        case 1:
          r = svc::Request::del(k);
          oracle[k] = std::nullopt;
          break;
        default:
          r = svc::Request::get(k);
          break;
      }
      ASSERT_TRUE(store.submit(0, &r));
    }
    for (auto& r : flight) store.wait(&r);
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto r = store.get(0, k);
    const auto it = oracle.find(k);
    const bool expect = it != oracle.end() && it->second.has_value();
    EXPECT_EQ(r.status == svc::Status::kOk, expect) << "key " << k;
    if (expect) {
      EXPECT_EQ(r.value, *it->second) << "key " << k;
    }
  }
  store.close();
}

TEST(Svc, BatchMatchesSequentialOracleAllBackends) {
  // 1 client + 1 worker + 1 shard: execution order equals submission
  // order, so every per-op result (ok flag, read value) must match a
  // std::map replay exactly.
  for (svc::Backend b : kAllBackends) {
    SvcWorld w;
    svc::KVStoreConfig cfg = small_cfg(b);
    cfg.max_batch = 8;
    // Tiny directory so batches straddle BD-Spash bucket splits.
    cfg.shard_opt.hash_initial_depth = 1;
    svc::KVStore store(*w.es, cfg);
    std::map<std::uint64_t, std::uint64_t> oracle;
    Rng rng(0xbeef ^ static_cast<std::uint64_t>(b));
    std::vector<svc::Request> flight(8);
    for (int round = 0; round < 150; ++round) {
      struct Expect {
        bool applied;
        std::uint64_t value;
        svc::Status status;
      };
      std::vector<Expect> want;
      for (auto& r : flight) {
        const std::uint64_t k = rng.next_below(512);
        const auto dice = rng.next_below(4);
        if (dice == 0) {
          const auto it = oracle.find(k);
          want.push_back({it != oracle.end(),
                          it != oracle.end() ? it->second : 0,
                          it != oracle.end() ? svc::Status::kOk
                                             : svc::Status::kNotFound});
          r = svc::Request::get(k);
        } else if (dice == 1) {
          const bool removed = oracle.erase(k) != 0;
          want.push_back({removed, 0,
                          removed ? svc::Status::kOk
                                  : svc::Status::kNotFound});
          r = svc::Request::del(k);
        } else {
          const std::uint64_t v = round * 4096 + k;
          const bool fresh = oracle.find(k) == oracle.end();
          oracle[k] = v;
          want.push_back({fresh, 0, svc::Status::kOk});
          r = svc::Request::put(k, v);
        }
        ASSERT_TRUE(store.submit(0, &r));
      }
      for (std::size_t i = 0; i < flight.size(); ++i) {
        store.wait(&flight[i]);
        const auto res = svc::KVStore::result_of(flight[i]);
        ASSERT_EQ(res.status, want[i].status)
            << svc::backend_name(b) << " round " << round << " op " << i;
        ASSERT_EQ(res.applied, want[i].applied)
            << svc::backend_name(b) << " round " << round << " op " << i;
        if (flight[i].op.kind == epoch::BatchOp::Kind::kGet &&
            res.status == svc::Status::kOk) {
          ASSERT_EQ(res.value, want[i].value)
              << svc::backend_name(b) << " round " << round << " op " << i;
        }
      }
    }
    EXPECT_GT(store.batches_total(), 0u);
    store.close();
  }
}

TEST(Svc, EnvelopeRestartRetriesStaleBatch) {
  // Deterministic OldSeeNew: T1 pins an envelope at epoch e, the epoch
  // advances, T2 stamps a block at e+1, then T1's batch touches that
  // block. The structure must throw EnvelopeRestart and run_envelope
  // must re-apply under a fresh epoch — observable as a second call of
  // the apply callback and a correct final value.
  SvcWorld w(/*manual_epochs=*/true);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kVebTree);
  cfg.start_workers = false;  // direct shard access only
  svc::KVStore store(*w.es, cfg);
  auto& shard = store.shard(0);
  ASSERT_TRUE(shard.insert(5, 50));

  const std::uint64_t e0 = w.es->current_epoch();
  std::atomic<int> phase{0};
  int t1_applies = 0;
  epoch::BatchOp op;
  op.kind = epoch::BatchOp::Kind::kPut;
  op.key = 5;
  op.value = 55;
  std::thread t1([&] {
    epoch::run_envelope(*w.es, 1, [&](std::size_t first, std::size_t n) {
      ++t1_applies;
      if (t1_applies == 1) {
        // Pinned at the pre-advance epoch; park here while the main
        // thread advances and overwrites the key at the newer epoch.
        EXPECT_EQ(w.es->current_op_epoch(), e0);
        phase.store(1, std::memory_order_release);
        while (phase.load(std::memory_order_acquire) != 2) {
          std::this_thread::yield();
        }
      }
      shard.apply_batch(&op + first, n);
    });
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  // One advance only: a second would block in step 1 waiting out t1's
  // open envelope in e0. Current becomes e0+1; the overwrite stamps it.
  w.es->advance();
  ASSERT_FALSE(shard.insert(5, 51));  // overwrite at the newer epoch
  phase.store(2, std::memory_order_release);
  t1.join();

  EXPECT_GE(t1_applies, 2) << "stale envelope must restart at least once";
  auto got = shard.find(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 55u) << "t1's put is the last write";
  store.close();
}

TEST(Svc, ScanMergesAcrossShardsOrderedBackends) {
  for (svc::Backend b : {svc::Backend::kVebTree, svc::Backend::kSkiplist}) {
    SvcWorld w;
    svc::KVStoreConfig cfg = small_cfg(b);
    cfg.shards = 2;
    svc::KVStore store(*w.es, cfg);
    for (std::uint64_t k = 0; k <= 100; ++k) {
      ASSERT_EQ(store.put(0, k, k + 1000).status, svc::Status::kOk);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    ASSERT_EQ(store.scan(10, 20, &out), svc::Status::kOk);
    ASSERT_EQ(out.size(), 20u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].first, 11 + i) << "strictly-greater, sorted, merged";
      EXPECT_EQ(out[i].second, 11 + i + 1000);
    }
    // Tail clamp: fewer than max_out remain.
    ASSERT_EQ(store.scan(95, 20, &out), svc::Status::kOk);
    ASSERT_EQ(out.size(), 5u);
    store.close();
  }
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(store.scan(0, 10, &out), svc::Status::kUnsupported);
  store.close();
}

TEST(Svc, ShedOnFullQueue) {
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.queue_capacity = 8;
  cfg.start_workers = false;  // nobody drains: pushes 9+ must shed
  svc::KVStore store(*w.es, cfg);
  std::vector<svc::Request> reqs(12);
  int accepted = 0, shed = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i);
    if (store.submit(0, &reqs[i])) {
      ++accepted;
    } else {
      ++shed;
      EXPECT_EQ(reqs[i].status, svc::Status::kRejected);
      EXPECT_EQ(reqs[i].state.load(), svc::Request::kDone)
          << "shed requests resolve immediately";
    }
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(store.shed_total(), 4u);
  store.close();
  // The never-lost contract: close() resolves the queued 8 as rejected.
  for (auto& r : reqs) {
    EXPECT_EQ(r.state.load(), svc::Request::kDone);
    EXPECT_EQ(r.status, svc::Status::kRejected);
  }
  EXPECT_EQ(store.rejected_on_close_total(), 8u);
}

TEST(Svc, CloseDrainsQueuedWork) {
  // Requests queued before close() complete normally (drain), and a
  // submit after close() resolves kClosed.
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  std::vector<svc::Request> reqs(32);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i * 2);
    ASSERT_TRUE(store.submit(0, &reqs[i]));
  }
  store.close();
  for (auto& r : reqs) {
    EXPECT_EQ(r.state.load(), svc::Request::kDone);
    EXPECT_TRUE(r.status == svc::Status::kOk ||
                r.status == svc::Status::kRejected)
        << "drained or swept, never lost";
  }
  svc::Request late = svc::Request::get(1);
  EXPECT_FALSE(store.submit(0, &late));
  EXPECT_EQ(late.status, svc::Status::kClosed);
}

TEST(Svc, DurableReleaseImpliesPersistence) {
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  std::vector<svc::Request> reqs(8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i + 9);
    ASSERT_TRUE(store.submit(0, &reqs[i]));
  }
  // close() drains: parked durable releases are pushed out by the
  // worker advancing the epoch system (drain-then-advance).
  store.close();
  for (auto& r : reqs) {
    ASSERT_EQ(r.state.load(), svc::Request::kDone);
    ASSERT_EQ(r.status, svc::Status::kOk);
    EXPECT_GT(r.complete_epoch, 0u);
    EXPECT_GE(w.es->persisted_epoch(), r.complete_epoch + 2)
        << "kDurable acknowledgement implies durability";
  }
}

TEST(Svc, SubmitShutdownRace) {
  // TSan target: clients hammer submit while the main thread closes the
  // store. Every request that submit() accepted must resolve; requests
  // racing past close() resolve kClosed or kRejected. Nothing is lost,
  // nothing crashes, no data race.
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.clients = 4;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 16;
  svc::KVStore store(*w.es, cfg);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x9999 + c);
      std::vector<svc::Request> reqs(256);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (auto& r : reqs) {
        const std::uint64_t k = rng.next_below(1024);
        r = rng.next_below(2) == 0 ? svc::Request::put(k, k)
                                   : svc::Request::get(k);
        store.submit(c, &r);
      }
      for (auto& r : reqs) {
        store.wait(&r);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  store.close();  // races with the submissions above, by design
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), 4u * 256u) << "every request resolved";
}

TEST(Svc, CloseIsIdempotentAndConcurrent) {
  // Regression for the ipc server's shutdown path, where several session
  // threads and the owner can reach KVStore::close() concurrently: every
  // close() call — first, racing, or repeated — must return only after
  // the drain completed (workers joined, queues swept), and the store
  // must be deterministically kClosed afterwards. The old close() joined
  // workers unguarded, so a second caller double-joined or returned
  // while the first was still draining.
  SvcWorld w;
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.clients = 4;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 16;
  svc::KVStore store(*w.es, cfg);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xc105e + c);
      std::vector<svc::Request> reqs(128);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (auto& r : reqs) {
        const std::uint64_t k = rng.next_below(512);
        r = svc::Request::put(k, k + 1);
        store.submit(c, &r);
      }
      for (auto& r : reqs) {
        store.wait(&r);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> closers;
  for (int i = 0; i < 3; ++i) {
    closers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      store.close();
      // Post-condition of ANY close() returning: admission is closed
      // AND the sweep already ran, so a late submit resolves kClosed
      // synchronously. This is what the second/third closer used to
      // break by returning before the first finished draining.
      svc::Request late = svc::Request::get(1);
      EXPECT_FALSE(store.submit(0, &late));
      EXPECT_EQ(late.status, svc::Status::kClosed);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : closers) t.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), 4u * 128u) << "every request resolved";
  store.close();  // sequential repeat stays a no-op
}

TEST(Svc, IngressAnswersInvalidOpAndKey) {
  // One ingress check for both request paths (the ipc arena hands over
  // client-written fields): an op kind outside the three and a key the
  // backend cannot hold resolve kInvalid without executing.
  for (svc::Backend b : kAllBackends) {
    SvcWorld w;
    svc::KVStore store(*w.es, small_cfg(b));  // veb_ubits = 12
    svc::Request bad_op = svc::Request::put(3, 4);
    bad_op.op.kind = static_cast<epoch::BatchOp::Kind>(3);
    EXPECT_FALSE(store.submit(0, &bad_op));
    EXPECT_EQ(bad_op.state.load(), svc::Request::kDone);
    EXPECT_EQ(bad_op.status, svc::Status::kInvalid);
    const std::uint64_t top = ~std::uint64_t{0};
    const svc::Status want_top = b == svc::Backend::kSkiplist
                                     ? svc::Status::kOk
                                     : svc::Status::kInvalid;
    EXPECT_EQ(store.put(0, top, 1).status, want_top) << svc::backend_name(b);
    if (b == svc::Backend::kVebTree) {
      EXPECT_EQ(store.put(0, 4096, 1).status, svc::Status::kInvalid);
      EXPECT_EQ(store.get(0, 4096).status, svc::Status::kInvalid);
      EXPECT_EQ(store.put(0, 4095, 1).status, svc::Status::kOk);
    }
    // Nothing invalid reached a shard; valid ops still run.
    EXPECT_EQ(store.get(0, 3).status, svc::Status::kNotFound);
    EXPECT_EQ(store.put(0, 7, 70).status, svc::Status::kOk);
    EXPECT_EQ(store.get(0, 7).value, 70u);
    store.close();
  }
}

/// A Source over an in-memory array: requests become pullable as
/// `published` advances.
struct ArraySource final : svc::Source {
  explicit ArraySource(std::size_t n) : reqs(n) {
    for (auto& r : reqs) r.source = this;
  }
  std::size_t pull(svc::Request** out, std::size_t max) override {
    std::size_t n = 0;
    const std::size_t p = published.load(std::memory_order_acquire);
    while (next < p && n < max) out[n++] = &reqs[next++];
    return n;
  }
  void complete(svc::Request& r) override {
    EXPECT_EQ(r.source, this);
    completed.fetch_add(1, std::memory_order_release);
  }
  std::vector<svc::Request> reqs;
  std::atomic<std::size_t> published{0};
  std::size_t next = 0;
  std::atomic<std::size_t> completed{0};
};

TEST(Svc, SourceDetachWaitsForParkedDurableRequests) {
  // The reclaim handoff: a detach requested while pulled kDurable
  // requests are parked on the epoch frontier completes only after they
  // resolved — the attacher may free the source's memory only then.
  SvcWorld w(/*manual_epochs=*/true);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  ArraySource src(4);
  for (std::size_t i = 0; i < src.reqs.size(); ++i) {
    src.reqs[i].op.kind = epoch::BatchOp::Kind::kPut;
    src.reqs[i].op.key = i + 1;
    src.reqs[i].op.value = i + 10;
  }
  store.attach(0, &src);
  EXPECT_FALSE(src.detached());
  const std::uint64_t b0 = store.batches_total();
  src.published.store(src.reqs.size(), std::memory_order_release);
  for (int spin = 0; store.batches_total() == b0; ++spin) {
    ASSERT_LT(spin, 10'000) << "worker never executed the source's batch";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  store.detach(&src);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(src.detached()) << "detached with durable requests parked";
  EXPECT_EQ(src.completed.load(), 0u);
  for (int i = 0; i < 3; ++i) w.es->advance();
  for (int spin = 0; !src.detached(); ++spin) {
    ASSERT_LT(spin, 10'000) << "detach never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(src.completed.load(), src.reqs.size());
  for (const auto& r : src.reqs) {
    EXPECT_EQ(r.status, svc::Status::kOk);
    EXPECT_GE(w.es->persisted_epoch(), r.complete_epoch + 2);
  }
  store.close();
}

/// Waits (bounded, without timing assertions) until the store's workers
/// have gone to sleep more than `after` times in total.
void await_parks(const svc::KVStore& store, std::uint64_t after) {
  for (int spin = 0; store.parks_total() <= after; ++spin) {
    ASSERT_LT(spin, 10'000) << "worker never went to sleep";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Svc, IdleWorkerSleepsAndSubmitWakesIt) {
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  ASSERT_EQ(store.put(0, 1, 10).status, svc::Status::kOk);
  const std::uint64_t timeouts0 = store.park_timeouts_total();
  await_parks(store, store.parks_total());
  // The worker is asleep (or announcing it); only the ring from
  // submit() can wake it before the backstop.
  auto r = store.get(0, 1);
  EXPECT_EQ(r.status, svc::Status::kOk);
  EXPECT_EQ(r.value, 10u);
  EXPECT_EQ(store.park_timeouts_total() - timeouts0, 0u)
      << "the submit waited out the backstop: its wake was lost";
  store.close();
}

TEST(Svc, SkippedSubmitWakeIsCaughtOnlyByTheBackstop) {
  // Negative control for the test above: with the ring skipped, a
  // request submitted to a sleeping worker is served only after the
  // backstop expires, and the expiry is counted.
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  store.skip_submit_wake_for_testing(true);
  const std::uint64_t timeouts0 = store.park_timeouts_total();
  // A put that lands in a sleep (one that began after its re-check) is
  // ended by nothing but the backstop. One that a descheduled test thread
  // delivers only after that sleep, while the worker polls again, is
  // served without either; so try a few times.
  for (int attempt = 0; store.park_timeouts_total() == timeouts0;
       ++attempt) {
    ASSERT_LT(attempt, 20)
        << "served without a wake and without a backstop expiry";
    await_parks(store, store.parks_total());
    ASSERT_EQ(store.put(0, 2, 20).status, svc::Status::kOk);
  }
  store.skip_submit_wake_for_testing(false);
  store.close();
}

/// Submits durable puts to `store`, waits until its worker sleeps on
/// them, then advances the manual epoch system: only the publish
/// listener can wake the worker to release them.
void durable_round_trip(svc::KVStore& store, epoch::EpochSys& es,
                        std::uint64_t key0) {
  std::vector<svc::Request> reqs(4);
  const std::uint64_t b0 = store.batches_total();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(key0 + i, i);
    ASSERT_TRUE(store.submit(0, &reqs[i]));
  }
  for (int spin = 0; store.batches_total() == b0; ++spin) {
    ASSERT_LT(spin, 10'000) << "worker never executed the batch";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The worker executes every queued request before it sleeps again.
  await_parks(store, store.parks_total());
  for (const auto& r : reqs) {
    ASSERT_NE(r.state.load(), svc::Request::kDone)
        << "released before its epoch persisted";
  }
  for (int i = 0; i < 3; ++i) es.advance();
  for (auto& r : reqs) {
    store.wait(&r);
    EXPECT_EQ(r.status, svc::Status::kOk);
    EXPECT_GE(es.persisted_epoch(), r.complete_epoch + 2);
  }
}

TEST(Svc, EpochPublishWakesWorkerParkedOnDurableRelease) {
  SvcWorld w(/*manual_epochs=*/true);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  durable_round_trip(store, *w.es, 0);
  EXPECT_EQ(store.park_timeouts_total(), 0u)
      << "the publish did not wake the parked worker";
  store.close();
}

TEST(Svc, ShortEpochDurableReleaseNeedsNoBackstop) {
  // The live advancer with 1 ms epochs: every durable ack comes from a
  // publish wake (or a worker that was still polling), never from the
  // 20 ms backstop.
  nvm::DeviceConfig dcfg;
  dcfg.capacity = 64ull << 20;
  nvm::Device dev(dcfg);
  alloc::PAllocator pa(dev);
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 1000;
  epoch::EpochSys es(pa, ecfg);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(es, cfg);
  const std::uint64_t timeouts0 = store.park_timeouts_total();
  std::vector<svc::Request> flight(8);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < flight.size(); ++i) {
      flight[i] = svc::Request::put(round * 8 + i, i);
      ASSERT_TRUE(store.submit(0, &flight[i]));
    }
    for (auto& r : flight) {
      store.wait(&r);
      ASSERT_EQ(r.status, svc::Status::kOk);
      ASSERT_GE(es.persisted_epoch(), r.complete_epoch + 2);
    }
  }
  EXPECT_EQ(store.park_timeouts_total() - timeouts0, 0u);
  store.close();
}

TEST(Svc, AttachWakesSleepingWorker) {
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  await_parks(store, store.parks_total());
  const std::uint64_t timeouts0 = store.park_timeouts_total();
  ArraySource src(4);
  for (std::size_t i = 0; i < src.reqs.size(); ++i) {
    src.reqs[i].op.kind = epoch::BatchOp::Kind::kPut;
    src.reqs[i].op.key = i + 1;
    src.reqs[i].op.value = i + 10;
  }
  src.published.store(src.reqs.size(), std::memory_order_release);
  store.attach(0, &src);
  for (int spin = 0; src.completed.load() < src.reqs.size(); ++spin) {
    ASSERT_LT(spin, 10'000) << "the attached source was never served";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(store.park_timeouts_total() - timeouts0, 0u)
      << "attach did not wake the sleeping worker";
  for (const auto& r : src.reqs) EXPECT_EQ(r.status, svc::Status::kOk);
  store.detach(&src);
  for (int spin = 0; !src.detached(); ++spin) {
    ASSERT_LT(spin, 10'000) << "detach never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  store.close();
}

TEST(Svc, TwoStoresOnOneEpochSysBothGetPublishWakes) {
  SvcWorld w(/*manual_epochs=*/true);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  auto a = std::make_unique<svc::KVStore>(*w.es, cfg);
  svc::KVStore b(*w.es, cfg);
  durable_round_trip(*a, *w.es, 0);
  durable_round_trip(b, *w.es, 100);
  EXPECT_EQ(a->park_timeouts_total(), 0u);
  EXPECT_EQ(b.park_timeouts_total(), 0u);
  // Destroying one store unregisters its listener; the other keeps
  // getting publish wakes.
  a.reset();
  durable_round_trip(b, *w.es, 200);
  EXPECT_EQ(b.park_timeouts_total(), 0u);
  b.close();
}

TEST(Svc, IdleStoreCostsLittleCpu) {
  // An upper bound on work done, not on timing: an idle store's worker
  // sleeps, so the whole process uses well under 10% of one CPU while
  // nothing is submitted (the polling worker it replaces used 100%).
  SvcWorld w;
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  ASSERT_EQ(store.put(0, 1, 1).status, svc::Status::kOk);
  auto cpu_us = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000LL +
           ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  };
  const long long c0 = cpu_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long long used = cpu_us() - c0;
  EXPECT_LT(used, 30'000) << "idle process used " << used
                          << " us of CPU in 300 ms";
  store.close();
}

}  // namespace
}  // namespace bdhtm
