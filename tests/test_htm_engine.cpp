// Tests for the software HTM engine: atomicity, rollback, TSX-style abort
// statuses, capacity limits, non-transactional interop, lock elision,
// opacity under concurrency, and statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/checked.hpp"
#include "common/threading.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"

namespace bdhtm {
namespace {

class HtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});  // defaults, no injection
    htm::reset_stats();
  }
};

TEST_F(HtmTest, CommitPublishesWrites) {
  alignas(8) std::uint64_t x = 0, y = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store(&x, std::uint64_t{1});
    tx.store(&y, std::uint64_t{2});
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 2u);
}

TEST_F(HtmTest, ExplicitAbortRollsBackAndReturnsCode) {
  alignas(8) std::uint64_t x = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store(&x, std::uint64_t{42});
    tx.abort(0x7f);
  });
  EXPECT_TRUE(st & htm::kAbortExplicit);
  EXPECT_EQ(htm::explicit_code(st), 0x7f);
  EXPECT_EQ(x, 0u);  // speculative write discarded
}

TEST_F(HtmTest, ReadAfterWriteSeesOwnStore) {
  alignas(8) std::uint64_t x = 5;
  std::uint64_t seen = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store(&x, std::uint64_t{9});
    seen = tx.load(&x);
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(seen, 9u);
}

TEST_F(HtmTest, SubWordAccessesWork) {
  struct alignas(8) Packed {
    std::uint32_t a;
    std::uint16_t b;
    std::uint8_t c;
    std::uint8_t d;
  } p{};
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store(&p.a, std::uint32_t{0x11223344});
    tx.store(&p.b, std::uint16_t{0x5566});
    tx.store(&p.c, std::uint8_t{0x77});
    EXPECT_EQ(tx.load(&p.a), 0x11223344u);
    EXPECT_EQ(tx.load(&p.b), 0x5566u);
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(p.a, 0x11223344u);
  EXPECT_EQ(p.b, 0x5566u);
  EXPECT_EQ(p.c, 0x77u);
  EXPECT_EQ(p.d, 0u);
}

TEST_F(HtmTest, WriteCapacityAborts) {
  htm::EngineConfig cfg;
  cfg.write_cap_lines = 16;
  htm::configure(cfg);
  std::vector<std::uint64_t> data(64, 0);
  const unsigned st = htm::run([&](htm::Txn& tx) {
    for (auto& w : data) tx.store(&w, std::uint64_t{1});
  });
  EXPECT_TRUE(st & htm::kAbortCapacity);
  for (auto w : data) EXPECT_EQ(w, 0u);  // nothing leaked
}

TEST_F(HtmTest, ReadCapacityAborts) {
  htm::EngineConfig cfg;
  cfg.read_cap_entries = 16;
  htm::configure(cfg);
  std::vector<std::uint64_t> data(64, 0);
  const unsigned st = htm::run([&](htm::Txn& tx) {
    std::uint64_t sum = 0;
    for (auto& w : data) sum += tx.load(&w);
    (void)sum;
  });
  EXPECT_TRUE(st & htm::kAbortCapacity);
}

TEST_F(HtmTest, NontxStoreAbortsConflictingReader) {
  // A transaction that read a word must abort if a plain store modified
  // it before commit — the coherence-induced conflict.
  alignas(8) std::uint64_t x = 0, y = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    (void)tx.load(&x);
    htm::nontx_store(&x, std::uint64_t{99});  // "another core" writes x
    tx.store(&y, std::uint64_t{1});
  });
  EXPECT_TRUE(st & htm::kAbortConflict);
  EXPECT_EQ(y, 0u);
  EXPECT_EQ(x, 99u);  // the nontx store itself persists
}

TEST_F(HtmTest, SpuriousInjectionSetsRetryBit) {
  htm::EngineConfig cfg;
  cfg.spurious_abort_prob = 1.0;
  htm::configure(cfg);
  const unsigned st = htm::run([&](htm::Txn&) {});
  EXPECT_TRUE(st & htm::kAbortSpurious);
  EXPECT_TRUE(st & htm::kAbortRetry);
}

TEST_F(HtmTest, MemtypeInjectionSuppressedByPrewalkHint) {
  htm::EngineConfig cfg;
  cfg.memtype_abort_prob = 1.0;
  htm::configure(cfg);
  unsigned st = htm::run([&](htm::Txn&) {});
  EXPECT_TRUE(st & htm::kAbortMemtype);
  htm::prewalk_hint();  // the paper's mitigation
  for (int i = 0; i < 16; ++i) {  // suppression lasts a while...
    st = htm::run([&](htm::Txn&) {});
    EXPECT_EQ(st, htm::kCommitted) << i;
  }
  st = htm::run([&](htm::Txn&) {});  // ...then the anomaly returns
  EXPECT_TRUE(st & htm::kAbortMemtype);
}

TEST_F(HtmTest, ReadOnlyTransactionCommits) {
  alignas(8) std::uint64_t x = 77;
  std::uint64_t seen = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) { seen = tx.load(&x); });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(seen, 77u);
}

TEST_F(HtmTest, StatsCountCommitsAndAborts) {
  alignas(8) std::uint64_t x = 0;
  ASSERT_EQ(htm::run([&](htm::Txn& tx) { tx.store(&x, std::uint64_t{1}); }),
            htm::kCommitted);
  (void)htm::run([&](htm::Txn& tx) { tx.abort(3); });
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts_explicit, 1u);
  EXPECT_EQ(s.attempts(), 2u);
}

TEST_F(HtmTest, GlobalLockSubscriptionAbortsWhenHeld) {
  htm::FallbackPolicy lock(1);
  lock.acquire(lock.all(), htm::FallbackCause::kStructural);
  const unsigned st =
      htm::run([&](htm::Txn& tx) { lock.subscribe(tx, lock.all()); });
  EXPECT_TRUE(st & htm::kAbortExplicit);
  EXPECT_EQ(htm::explicit_code(st), 0x52);
  lock.release(lock.all());
  const unsigned st2 =
      htm::run([&](htm::Txn& tx) { lock.subscribe(tx, lock.all()); });
  EXPECT_EQ(st2, htm::kCommitted);
}

TEST_F(HtmTest, FallbackAcquisitionAbortsSubscribedTxn) {
  // Subscribe first, then the lock is acquired before commit -> conflict.
  // Acquiring in-transaction is a deliberate violation (the checked build
  // reports irrevocable-in-tx); capture the report instead of aborting.
  checked::ScopedHandler guard(+[](checked::Rule, const char*) {});
  htm::FallbackPolicy lock(1);
  alignas(8) std::uint64_t x = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    lock.subscribe(tx, lock.all());
    lock.acquire_stripe(0);  // simulates another thread's fallback path
    tx.store(&x, std::uint64_t{1});
  });
  EXPECT_TRUE(st & htm::kAbortConflict);
  EXPECT_EQ(x, 0u);
  lock.release_stripe(0);
}

TEST_F(HtmTest, NontxLoadNeverSeesSpeculativeState) {
  alignas(8) std::uint64_t x = 0;
  (void)htm::run([&](htm::Txn& tx) {
    tx.store(&x, std::uint64_t{123});
    // Before commit, plain readers must not see the speculative value.
    EXPECT_EQ(htm::nontx_load(&x), 0u);
  });
  EXPECT_EQ(htm::nontx_load(&x), 123u);
}

// ---- Concurrency: atomicity / opacity stress ----

TEST_F(HtmTest, ConcurrentCountersConserveTotal) {
  // N threads move units between two cells transactionally; the sum is
  // invariant under atomicity. Retry loop with fallback mirrors real use.
  alignas(8) std::uint64_t a = 1'000'000, b = 0;
  htm::FallbackPolicy lock(1);
  constexpr int kThreads = 4;
  constexpr int kMoves = 20'000;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&] {
      for (int i = 0; i < kMoves; ++i) {
        int attempts = 0;
        for (;;) {
          const unsigned st = htm::run([&](htm::Txn& tx) {
            lock.subscribe(tx, lock.all());
            const auto va = tx.load(&a);
            const auto vb = tx.load(&b);
            tx.store(&a, va - 1);
            tx.store(&b, vb + 1);
          });
          if (st == htm::kCommitted) break;
          if (++attempts > 8) {  // fallback path
            htm::PolicyGuard g(lock, lock.all(),
                               htm::FallbackCause::kRetryExhausted);
            const auto va = htm::nontx_load(&a);
            const auto vb = htm::nontx_load(&b);
            htm::nontx_store(&a, va - 1);
            htm::nontx_store(&b, vb + 1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  EXPECT_EQ(a + b, 1'000'000u);
  EXPECT_EQ(b, static_cast<std::uint64_t>(kThreads) * kMoves);
}

TEST_F(HtmTest, OpacityInvariantUnderConcurrentUpdates) {
  // Writers keep x == y; readers must never observe x != y, even in
  // transactions that subsequently abort (read-set revalidation).
  alignas(8) std::uint64_t x = 0, y = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (int i = 1; i < 50'000; ++i) {
      for (;;) {
        const unsigned st = htm::run([&](htm::Txn& tx) {
          tx.store(&x, static_cast<std::uint64_t>(i));
          tx.store(&y, static_cast<std::uint64_t>(i));
        });
        if (st == htm::kCommitted) break;
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      std::uint64_t vx = 0, vy = 0;
      const unsigned st = htm::run([&](htm::Txn& tx) {
        vx = tx.load(&x);
        vy = tx.load(&y);
      });
      if (st == htm::kCommitted && vx != vy) violations.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(x, 49'999u);
  EXPECT_EQ(y, 49'999u);
}

TEST_F(HtmTest, TwoWordsSameLineConflictLikeHardware) {
  // Conflict detection is line-granular: a nontx store to word 1 aborts a
  // transaction that only read word 0 of the same line.
  struct alignas(64) Line {
    std::uint64_t w0, w1;
  } line{};
  const unsigned st = htm::run([&](htm::Txn& tx) {
    (void)tx.load(&line.w0);
    htm::nontx_store(&line.w1, std::uint64_t{5});
    tx.store(&line.w0, std::uint64_t{1});
  });
  EXPECT_TRUE(st & htm::kAbortConflict);
}

// ---- Line-grain read tracking ----
//
// A transaction remembers the last line it read; a further read of that
// line reuses its stripe. These pin down that the shortcut keeps every
// abort condition of the full path and never serves a stale word.

TEST_F(HtmTest, NontxStoreToSameLineBetweenReadsAbortsReader) {
  struct alignas(64) Line {
    std::uint64_t a, b;
  } line{1, 2};
  bool read_b = false;
  std::uint64_t seen_b = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    (void)tx.load(&line.a);
    htm::nontx_store(&line.b, std::uint64_t{7});  // "another core" writes b
    seen_b = tx.load(&line.b);                    // same line as a
    read_b = true;
  });
  EXPECT_EQ(st, htm::kAbortConflict | htm::kAbortRetry);
  EXPECT_FALSE(read_b) << "same-line read returned " << seen_b
                       << " after a conflicting store";
  EXPECT_EQ(htm::collect_stats().aborts_conflict, 1u);
  EXPECT_EQ(line.b, 7u);
}

TEST_F(HtmTest, ReadYourOwnWriteOnWrittenLine) {
  struct alignas(64) Line {
    std::uint64_t w[8];
  } line{{10, 11, 12, 13, 14, 15, 16, 17}};
  std::uint64_t written = 0, neighbour = 0, after = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    (void)tx.load(&line.w[0]);  // line now cached for repeat reads
    tx.store(&line.w[2], std::uint64_t{99});
    written = tx.load(&line.w[2]);    // the written word: from the redo log
    neighbour = tx.load(&line.w[3]);  // unwritten word of a written line
    after = tx.load(&line.w[0]);
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(written, 99u);
  EXPECT_EQ(neighbour, 13u);
  EXPECT_EQ(after, 10u);
  EXPECT_EQ(line.w[2], 99u);
}

TEST_F(HtmTest, LineScanTracksOneReadEntryPerLine) {
  struct alignas(64) Bucket {
    std::uint64_t w[16];  // two cache lines
  } bucket{};
  std::size_t tracked = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    for (auto& w : bucket.w) (void)tx.load(&w);
    tracked = htm::detail::txn_tracked_access_count();
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_EQ(tracked, 2u);
}

}  // namespace
}  // namespace bdhtm
