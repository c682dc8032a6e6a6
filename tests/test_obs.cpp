// Tests for the observability subsystem (DESIGN.md "Observability"):
// sharded counters, log-bucketed histograms, the metrics registry, the
// per-thread trace rings (wraparound, concurrent emission — the TSan
// lane runs this file), Chrome trace JSON export, the JSON writer, the
// EpochStats min-sentinel fix, and elide()'s fallback-cause split.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "epoch/epoch_sys.hpp"
#include "htm/retry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/shm_stats.hpp"
#include "obs/trace.hpp"

namespace bdhtm {
namespace {

// ---- Minimal JSON validity checker -------------------------------------
// Recursive-descent acceptor for the JSON the exporter emits; rejects
// trailing commas, unterminated strings, and unbalanced nesting — the
// classes of bug a hand-rolled writer can have.

struct JsonParser {
  const char* p;
  const char* end;
  bool ok = true;

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool eat(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  void string() {
    if (!eat('"')) {
      ok = false;
      return;
    }
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) break;
      }
      ++p;
    }
    if (p >= end) {
      ok = false;
      return;
    }
    ++p;  // closing quote
  }
  void number() {
    if (p < end && (*p == '-' || *p == '+')) ++p;
    const char* start = p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+')) {
      ++p;
    }
    if (p == start) ok = false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (static_cast<std::size_t>(end - p) >= n &&
        std::char_traits<char>::compare(p, lit, n) == 0) {
      p += n;
      return true;
    }
    return false;
  }
  void value() {
    ws();
    if (!ok || p >= end) {
      ok = false;
      return;
    }
    switch (*p) {
      case '{': {
        ++p;
        if (eat('}')) return;
        do {
          string();
          if (!ok || !eat(':')) {
            ok = false;
            return;
          }
          value();
        } while (ok && eat(','));
        if (!eat('}')) ok = false;
        return;
      }
      case '[': {
        ++p;
        if (eat(']')) return;
        do {
          value();
        } while (ok && eat(','));
        if (!eat(']')) ok = false;
        return;
      }
      case '"':
        string();
        return;
      default:
        if (literal("true") || literal("false") || literal("null")) return;
        number();
    }
  }
};

bool valid_json(const std::string& s) {
  JsonParser j{s.data(), s.data() + s.size()};
  j.value();
  j.ws();
  return j.ok && j.p == j.end;
}

std::size_t count_occurrences(const std::string& hay, const std::string& n) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(n); pos != std::string::npos;
       pos = hay.find(n, pos + n.size())) {
    ++count;
  }
  return count;
}

// ---- Counter -----------------------------------------------------------

TEST(ObsCounter, ConcurrentShardedAddsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 4;
  constexpr int kAdds = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads) * kAdds);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsCounter, AddAtAttributesToGivenShard) {
  obs::Counter c;
  c.add_at(3, 7);
  c.add_at(5, 11);
  EXPECT_EQ(c.total(), 18u);
}

// ---- Histogram ---------------------------------------------------------

TEST(ObsHistogram, EmptyReportsZerosNotSentinels) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);  // never the ~0 CAS sentinel
  EXPECT_EQ(h.max(), 0u);
  const auto s = h.snapshot();
  EXPECT_EQ(s.quantile(0.5), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ObsHistogram, SmallValuesAreExact) {
  obs::Histogram h;
  for (std::uint64_t v : {1, 2, 3}) h.record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 3u);
  const auto s = h.snapshot();
  EXPECT_EQ(s.quantile(0.0), 1u);
  EXPECT_EQ(s.quantile(1.0), 3u);
}

TEST(ObsHistogram, BucketBoundsAreConsistent) {
  for (std::uint64_t v : {0ull, 1ull, 3ull, 4ull, 5ull, 63ull, 64ull, 100ull,
                          1000ull, 123456789ull, ~0ull}) {
    const int b = obs::HistogramSnapshot::bucket_of(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, obs::HistogramSnapshot::kBuckets);
    EXPECT_LE(obs::HistogramSnapshot::bucket_lo(b), v) << "v=" << v;
    EXPECT_GE(obs::HistogramSnapshot::bucket_hi(b), v) << "v=" << v;
  }
  // Bucket lower bounds map back to their own bucket.
  for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(obs::HistogramSnapshot::bucket_of(
                  obs::HistogramSnapshot::bucket_lo(i)),
              i);
  }
}

TEST(ObsHistogram, QuantilesWithinBucketError) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto s = h.snapshot();
  // 4 sub-buckets per octave bound the relative bucket error at 12.5%;
  // clamping to [min,max] keeps the extremes exact.
  EXPECT_NEAR(static_cast<double>(s.quantile(0.5)), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(s.quantile(0.95)), 950.0, 950.0 * 0.15);
  EXPECT_EQ(s.quantile(0.0), 1u);
  EXPECT_EQ(s.quantile(1.0), 1000u);
  EXPECT_NEAR(s.mean(), 500.5, 0.001);
}

TEST(ObsHistogram, ResetRestoresEmptyContract) {
  obs::Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// Contract pins (DESIGN.md §13): downstream consumers (bdhtm_top, the
// stats segment, bench JSON) rely on these exact edge-case values, so
// they are asserted here explicitly rather than implied by the larger
// distribution tests above.
TEST(ObsHistogram, EmptyQuantileIsZeroAtEveryQ) {
  const auto s = obs::Histogram{}.snapshot();
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(s.quantile(q), 0u) << "q=" << q;
  }
}

TEST(ObsHistogram, SingleSampleCollapsesMinMaxAndQuantiles) {
  obs::Histogram h;
  h.record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
  const auto s = h.snapshot();
  // With one sample every quantile is that sample: the bucket midpoint
  // is clamped into [min, max] == [777, 777].
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(s.quantile(q), 777u) << "q=" << q;
  }
  EXPECT_EQ(s.mean(), 777.0);
}

TEST(ObsHistogram, SingleZeroSampleIsDistinguishableByCount) {
  obs::Histogram h;
  h.record(0);
  // min()==0 is shared with the empty histogram by design; count is the
  // discriminator consumers must use.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0u);
}

TEST(ObsHistogram, SnapshotMergeCombines) {
  obs::Histogram a, b;
  a.record(10);
  a.record(20);
  b.record(5);
  b.record(1000);
  auto sa = a.snapshot();
  const auto sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.sum, 1035u);
  EXPECT_EQ(sa.min, 5u);
  EXPECT_EQ(sa.max, 1000u);
  // Merging an empty snapshot is a no-op.
  sa.merge(obs::HistogramSnapshot{});
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.min, 5u);
}

// ---- Gauge -------------------------------------------------------------

TEST(ObsGauge, SetAddValueReset) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.set(-7);  // gauges are signed: lag can legitimately read negative 0-ish
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsGauge, LastWriterWinsAcrossThreads) {
  obs::Gauge g;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&g, t] {
      for (int i = 0; i < 10'000; ++i) g.set(t + 1);
    });
  }
  for (auto& t : ts) t.join();
  // Not an accumulation: the final value is whichever set() landed last.
  EXPECT_GE(g.value(), 1);
  EXPECT_LE(g.value(), 4);
}

// ---- Registry ----------------------------------------------------------

TEST(ObsRegistry, FindOrCreateIsStable) {
  obs::Registry reg;
  obs::Counter& c1 = reg.counter("x.commits");
  obs::Counter& c2 = reg.counter("x.commits");
  EXPECT_EQ(&c1, &c2);
  obs::Histogram& h1 = reg.histogram("x.lat");
  obs::Histogram& h2 = reg.histogram("x.lat");
  EXPECT_EQ(&h1, &h2);
  obs::Gauge& g1 = reg.gauge("x.lag");
  obs::Gauge& g2 = reg.gauge("x.lag");
  EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, SnapshotIncludesGauges) {
  obs::Registry reg;
  reg.gauge("lag.b").set(9);
  reg.gauge("lag.a").set(-3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "lag.a");
  EXPECT_EQ(snap.gauges[0].second, -3);
  EXPECT_EQ(snap.gauges[1].first, "lag.b");
  EXPECT_EQ(snap.gauges[1].second, 9);
  reg.reset();
  EXPECT_EQ(reg.snapshot().gauges[0].second, 0);
}

TEST(ObsRegistry, SnapshotIsSortedAndResetZeroes) {
  obs::Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.histogram("z").record(7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  reg.reset();
  const auto snap2 = reg.snapshot();
  EXPECT_EQ(snap2.counters[0].second, 0u);
  EXPECT_EQ(snap2.histograms[0].second.count, 0u);
}

// ---- EpochStats accessor contract (the old ~0 sentinel leak) -----------

TEST(ObsEpochStats, AdvanceMinIsZeroBeforeFirstTransition) {
  epoch::EpochStats st;
  EXPECT_EQ(st.advance_ns_min(), 0u);
  EXPECT_EQ(st.advance_ns_max(), 0u);
  EXPECT_EQ(st.advance_ns_total(), 0u);
  st.advance_ns.record(1234);
  EXPECT_EQ(st.advance_ns_min(), 1234u);
  EXPECT_EQ(st.advance_ns_max(), 1234u);
  EXPECT_EQ(st.advance_ns_total(), 1234u);
}

// ---- Trace rings -------------------------------------------------------

// Ring capacity is fixed at a ring's first emit, and each test binary
// thread keeps its ring for the process lifetime — so the wraparound
// test (which wants a tiny main-thread ring) must run before any other
// emit from the main thread. gtest runs tests in declaration order
// within a file; keep this one first among the trace tests.
TEST(ObsTrace, RingWrapsOverwritingOldest) {
  obs::set_trace_capacity(8);
  ASSERT_EQ(obs::trace_capacity(), 8u);
  obs::reset_traces();
  obs::set_tracing(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::trace_instant(obs::TraceEventType::kCrash, i);
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_events_emitted(), 20u);
  EXPECT_EQ(obs::trace_events_captured(), 8u);
  std::vector<std::uint64_t> seen;
  obs::for_each_trace_event(
      [](void* ctx, int, const obs::TraceEvent& ev) {
        static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(ev.a);
      },
      &seen);
  ASSERT_EQ(seen.size(), 8u);
  // Oldest-first: the retained window is the last 8 emits, in order.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 12 + i);
  }
}

TEST(ObsTrace, DisabledEmitIsDropped) {
  obs::reset_traces();
  obs::set_tracing(false);
  obs::trace_instant(obs::TraceEventType::kCrash);
  obs::trace_complete(obs::TraceEventType::kRecovery, 0);
  EXPECT_EQ(obs::trace_events_emitted(), 0u);
  EXPECT_EQ(obs::trace_events_captured(), 0u);
}

TEST(ObsTrace, ConcurrentEmissionFromManyThreads) {
  obs::set_trace_capacity(64);
  obs::reset_traces();
  obs::set_tracing(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        obs::trace_instant(obs::TraceEventType::kFaultTrip, i, i * 2);
        obs::trace_complete(obs::TraceEventType::kEpochAdvance, now_ns(), i);
      }
    });
  }
  for (auto& t : ts) t.join();  // join = the exporter's quiescence point
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_events_emitted(), kThreads * kPerThread * 2);
  // Each worker retains one full ring (these threads emitted with the
  // 64-entry capacity configured above; the main thread emitted nothing
  // since the reset).
  EXPECT_EQ(obs::trace_events_captured(), static_cast<std::uint64_t>(
                                              kThreads) * 64);
  std::atomic<std::uint64_t> visited{0};
  obs::for_each_trace_event(
      [](void* ctx, int, const obs::TraceEvent&) {
        static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(1);
      },
      &visited);
  EXPECT_EQ(visited.load(), obs::trace_events_captured());
}

TEST(ObsTrace, ChromeTraceJsonIsValidAndComplete) {
  obs::reset_traces();
  obs::set_tracing(true);
  const std::uint64_t t0 = now_ns();
  obs::trace_complete(obs::TraceEventType::kEpochAdvance, t0, 7, 3);
  obs::trace_instant(obs::TraceEventType::kWatchdogTrip, 100, 200);
  obs::set_tracing(false);

  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch.advance\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog.trip\""), std::string::npos);
  // One complete event (ph X, with dur) and one instant (ph i).
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 1u);
  // The instant's args carry the values we emitted.
  EXPECT_NE(json.find("\"deadline_ns\":100"), std::string::npos);
  EXPECT_NE(json.find("\"stall_ns\":200"), std::string::npos);
}

TEST(ObsTrace, WriteChromeTraceRoundTrips) {
  obs::reset_traces();
  obs::set_tracing(true);
  obs::trace_instant(obs::TraceEventType::kCrash);
  obs::trace_complete(obs::TraceEventType::kRecovery, now_ns(), 10, 2);
  obs::set_tracing(false);

  const std::string path = ::testing::TempDir() + "bdhtm_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string back;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    back.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  // Quiesced rings serialize identically: file contents == fresh export.
  EXPECT_EQ(back, obs::chrome_trace_json());
  EXPECT_TRUE(valid_json(back));
  EXPECT_EQ(count_occurrences(back, "\"name\":"),
            obs::trace_events_captured());
}

// ---- Trace rings across fork() -----------------------------------------

// The child inherits byte copies of the parent's rings; the atfork
// handler must reset them so a forking server (shm_server, bench
// drivers) never exports the parent's events twice. The child runs its
// assertions and reports via its exit code.
TEST(ObsTrace, ForkedChildDoesNotAliasParentEvents) {
  obs::reset_traces();
  obs::set_tracing(true);
  obs::trace_instant(obs::TraceEventType::kCrash, 1, 1);
  obs::trace_instant(obs::TraceEventType::kCrash, 2, 2);
  ASSERT_EQ(obs::trace_events_emitted(), 2u);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: inherited events must be gone, own emission must work.
    int rc = 0;
    if (obs::trace_events_emitted() != 0) rc |= 1;
    if (obs::trace_events_captured() != 0) rc |= 2;
    obs::trace_instant(obs::TraceEventType::kRecovery, 7, 7);
    if (obs::trace_events_emitted() != 1) rc |= 4;
    const std::string json = obs::chrome_trace_json();
    if (json.find("\"recovery.scan\"") == std::string::npos &&
        json.find("\"recovery\"") == std::string::npos) {
      // The child's own event must be exportable...
      rc |= 8;
    }
    if (json.find("\"crash\"") != std::string::npos) {
      // ...and the parent's must not reappear.
      rc |= 16;
    }
    _exit(rc);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child assertion bitmask";

  // Parent is untouched by the child's reset.
  EXPECT_EQ(obs::trace_events_emitted(), 2u);
  obs::set_tracing(false);
  obs::reset_traces();
}

// ---- Shared-memory stats segment (DESIGN.md §13) -----------------------

TEST(ObsShmStats, PublishSampleRoundTrips) {
  const std::string path = ::testing::TempDir() + "bdhtm_stats_rt.shm";
  obs::StatsPublisher pub;
  ASSERT_TRUE(pub.create(path));

  obs::Registry reg;
  reg.counter("svc.ops").add(12345);
  reg.counter("svc.shed").add(6);
  reg.gauge("epoch.persistence_lag_us").set(777);
  auto& h = reg.histogram("svc.lat.queue_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 10);
  std::vector<obs::StatsPublisher::SessionRow> rows = {
      {"sess.0", 4242, 2, 99},
      {"sess.1", 0, 0, 0},
  };
  pub.publish(reg.snapshot(), rows);

  obs::StatsReader rd;
  ASSERT_TRUE(rd.open(path));
  obs::StatsSample s;
  ASSERT_TRUE(rd.sample(s));

  EXPECT_EQ(s.server_pid, static_cast<std::uint32_t>(getpid()));
  EXPECT_GT(s.publish_ns, 0u);
  EXPECT_GE(s.publish_ns, s.start_ns);
  ASSERT_NE(s.counter("svc.ops"), nullptr);
  EXPECT_EQ(*s.counter("svc.ops"), 12345u);
  EXPECT_EQ(*s.counter("svc.shed"), 6u);
  ASSERT_NE(s.gauge("epoch.persistence_lag_us"), nullptr);
  EXPECT_EQ(*s.gauge("epoch.persistence_lag_us"), 777);
  const auto* hs = s.hist("svc.lat.queue_ns");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->min, 10u);
  EXPECT_EQ(hs->max, 1000u);
  EXPECT_GT(hs->p50, 0u);
  EXPECT_LE(hs->p50, hs->p99);
  EXPECT_LE(hs->p99, hs->max);
  ASSERT_EQ(s.sessions.size(), 2u);
  EXPECT_EQ(s.sessions[0].name, "sess.0");
  EXPECT_EQ(s.sessions[0].pid, 4242u);
  EXPECT_EQ(s.sessions[0].state, 2u);
  EXPECT_EQ(s.sessions[0].ops, 99u);
  EXPECT_EQ(s.counter("does.not.exist"), nullptr);

  rd.close();
  pub.close();  // unlinks
  obs::StatsReader gone;
  EXPECT_FALSE(gone.open(path));
}

TEST(ObsShmStats, RepublishOverwritesAndSignedGaugesSurvive) {
  const std::string path = ::testing::TempDir() + "bdhtm_stats_rp.shm";
  obs::StatsPublisher pub;
  ASSERT_TRUE(pub.create(path));
  obs::Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(-123456789);
  pub.publish(reg.snapshot(), {});

  obs::StatsReader rd;
  ASSERT_TRUE(rd.open(path));
  obs::StatsSample s1;
  ASSERT_TRUE(rd.sample(s1));
  EXPECT_EQ(*s1.counter("c"), 1u);
  EXPECT_EQ(*s1.gauge("g"), -123456789);  // int64 bit-cast round trip

  reg.counter("c").add(41);
  const std::uint64_t first_pub = s1.publish_ns;
  pub.publish(reg.snapshot(), {});
  obs::StatsSample s2;
  ASSERT_TRUE(rd.sample(s2));
  EXPECT_EQ(*s2.counter("c"), 42u);
  EXPECT_GE(s2.publish_ns, first_pub);
  rd.close();
  pub.close();
}

TEST(ObsShmStats, OpenRejectsGarbageAndWrongMagic) {
  const std::string path = ::testing::TempDir() + "bdhtm_stats_bad.shm";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is not a stats segment";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  obs::StatsReader rd;
  EXPECT_FALSE(rd.open(path));
  std::remove(path.c_str());
  EXPECT_FALSE(rd.open(path));  // missing file
}

// Seqlock consistency under concurrent republish: the publisher writes
// two counters that are always equal; any torn read would surface as a
// mismatched pair. (The TSan lane runs this file; publish/sample carry
// BDHTM_NO_SANITIZE_THREAD because the seqlock is the synchronization.)
TEST(ObsShmStats, ConcurrentSamplesAreNeverTorn) {
  const std::string path = ::testing::TempDir() + "bdhtm_stats_cc.shm";
  obs::StatsPublisher pub;
  ASSERT_TRUE(pub.create(path));
  obs::Registry reg;
  auto& a = reg.counter("pair.a");
  auto& b = reg.counter("pair.b");
  pub.publish(reg.snapshot(), {});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      a.add(1);
      b.add(1);
      pub.publish(reg.snapshot(), {});
    }
  });
  // A failed ASSERT returns early: stop and join the writer before the
  // publisher it writes through goes away.
  struct JoinWriter {
    std::atomic<bool>& stop;
    std::thread& t;
    ~JoinWriter() {
      stop.store(true, std::memory_order_relaxed);
      if (t.joinable()) t.join();
    }
  } join_writer{stop, writer};

  obs::StatsReader rd;
  ASSERT_TRUE(rd.open(path));
  std::uint64_t samples = 0;
  for (int i = 0; i < 2000; ++i) {
    obs::StatsSample s;
    ASSERT_TRUE(rd.sample(s));
    const std::uint64_t* va = s.counter("pair.a");
    const std::uint64_t* vb = s.counter("pair.b");
    ASSERT_NE(va, nullptr);
    ASSERT_NE(vb, nullptr);
    ASSERT_EQ(*va, *vb) << "torn sample after " << samples;
    ++samples;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  rd.close();
  pub.close();
}

// ---- JsonWriter --------------------------------------------------------

TEST(ObsJson, WriterEmitsValidNestedJson) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("bdhtm-bench/1");
  w.key("n");
  w.value(std::uint64_t{18446744073709551615ull});  // u64 max, no rounding
  w.key("neg");
  w.value(-3);
  w.key("ok");
  w.value(true);
  w.key("rows");
  w.begin_array();
  w.begin_object();
  w.key("v");
  w.value(1.5);
  w.end_object();
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  const std::string s = std::move(w).str();
  EXPECT_TRUE(valid_json(s)) << s;
  EXPECT_EQ(s,
            "{\"schema\":\"bdhtm-bench/1\",\"n\":18446744073709551615,"
            "\"neg\":-3,\"ok\":true,\"rows\":[{\"v\":1.5},2]}");
}

TEST(ObsJson, WriterEscapesStrings) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("k");
  w.value("a\"b\\c\nd\te\x01");
  w.end_object();
  const std::string s = std::move(w).str();
  EXPECT_TRUE(valid_json(s)) << s;
  EXPECT_EQ(s, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

// ---- elide() fallback-cause split --------------------------------------

class ObsElideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
  void TearDown() override { htm::configure(htm::EngineConfig{}); }
};

TEST_F(ObsElideTest, CommitCountsNoFallback) {
  htm::FallbackPolicy lock(1);
  alignas(8) std::uint64_t x = 0;
  const int r = htm::elide<int>(lock, lock.all(), [&](auto& acc) {
    acc.store(&x, std::uint64_t{5});
    return 1;
  });
  EXPECT_EQ(r, 1);
  EXPECT_EQ(x, 5u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.fallbacks_lockwait, 0u);
  EXPECT_EQ(s.fallbacks_exhausted, 0u);
  EXPECT_EQ(s.fallback_acquisitions, 0u);
}

TEST_F(ObsElideTest, RetryBudgetExhaustionCountsAsExhausted) {
  htm::EngineConfig cfg;
  cfg.spurious_abort_prob = 1.0;  // every attempt aborts
  htm::configure(cfg);
  htm::FallbackPolicy lock(1);
  htm::ElideOptions opts;
  opts.max_retries = 3;
  alignas(8) std::uint64_t x = 0;
  const int r = htm::elide<int>(
      lock, lock.all(),
      [&](auto& acc) {
        acc.store(&x, std::uint64_t{9});
        return 4;
      },
      opts);
  EXPECT_EQ(r, 4);  // fallback path still runs the body
  EXPECT_EQ(x, 9u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.aborts_spurious, 3u);
  EXPECT_EQ(s.fallbacks_exhausted, 1u);
  EXPECT_EQ(s.fallbacks_lockwait, 0u);
  EXPECT_EQ(s.fallback_acquisitions, 1u);
}

TEST_F(ObsElideTest, LockWaitBoundCountsAsLockwaitFallback) {
  htm::FallbackPolicy lock(1);
  // The main thread plays the fallback holder: one structural
  // fallback acquisition.
  lock.acquire(lock.all(), htm::FallbackCause::kStructural);
  htm::ElideOptions opts;
  opts.max_lock_waits = 1;  // give up after the first subscription abort
  alignas(8) std::uint64_t x = 0;
  std::thread worker([&] {
    const int r = htm::elide<int>(
        lock, lock.all(),
        [&](auto& acc) {
          acc.store(&x, std::uint64_t{3});
          return 2;
        },
        opts);
    EXPECT_EQ(r, 2);
  });
  // The worker hits the lock-wait bound, attributes the fallback, then
  // blocks acquiring the lock until the holder releases.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.release(lock.all());
  worker.join();
  EXPECT_EQ(x, 3u);
  const auto s = htm::collect_stats();
  EXPECT_GE(s.aborts_lock_subscription, 1u);
  EXPECT_EQ(s.fallbacks_lockwait, 1u);
  EXPECT_EQ(s.fallbacks_exhausted, 0u);
  EXPECT_EQ(s.fallbacks_structural, 1u);   // the holder
  EXPECT_EQ(s.fallback_acquisitions, 2u);  // holder + worker fallback
}

TEST_F(ObsElideTest, WaitDeadlineCountsAsWaitTimeoutFallback) {
  htm::FallbackPolicy lock(1);
  // The holder sits on the lock far longer than the deadline.
  lock.acquire(lock.all(), htm::FallbackCause::kStructural);
  htm::ElideOptions opts;
  opts.max_wait_us = 1'000;        // 1ms total-wait deadline...
  opts.max_lock_waits = 1 << 20;   // ...and the count bound can't trip
  alignas(8) std::uint64_t x = 0;
  const std::uint64_t before =
      obs::Registry::global().counter("htm.fallback.wait_timeout").total();
  std::thread worker([&] {
    const int r = htm::elide<int>(
        lock, lock.all(),
        [&](auto& acc) {
          acc.store(&x, std::uint64_t{5});
          return 6;
        },
        opts);
    EXPECT_EQ(r, 6);
  });
  // The worker times out its total-wait budget, attributes the fallback
  // to wait_timeout (NOT lockwait — deadline beats count in priority),
  // then blocks acquiring the lock until the holder releases. Release
  // only once the attribution is visible (bounded: a worker that never
  // times out fails the checks below instead of hanging the suite).
  auto& wait_timeouts =
      obs::Registry::global().counter("htm.fallback.wait_timeout");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (wait_timeouts.total() == before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  lock.release(lock.all());
  worker.join();
  EXPECT_EQ(x, 5u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.fallbacks_wait_timeout, 1u);
  EXPECT_EQ(s.fallbacks_lockwait, 0u);
  EXPECT_EQ(s.fallbacks_exhausted, 0u);
  EXPECT_EQ(s.fallbacks_structural, 1u);   // the holder
  EXPECT_EQ(s.fallback_acquisitions, 2u);  // holder + worker fallback
  const std::uint64_t after =
      obs::Registry::global().counter("htm.fallback.wait_timeout").total();
  EXPECT_EQ(after - before, 1u);
}

TEST_F(ObsElideTest, WaitDeadlineAppliesToStripedPolicyElide) {
  htm::FallbackPolicy pol(4);
  const htm::StripeMask mask = pol.mask_of_hash(1);
  // The holder pins the worker's stripe.
  pol.acquire(mask, htm::FallbackCause::kStructural);
  htm::ElideOptions opts;
  opts.max_wait_us = 1'000;
  opts.max_lock_waits = 1 << 20;
  alignas(8) std::uint64_t x = 0;
  std::thread worker([&] {
    const int r = htm::elide<int>(
        pol, mask,
        [&](auto& acc) {
          acc.store(&x, std::uint64_t{7});
          return 8;
        },
        opts);
    EXPECT_EQ(r, 8);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pol.release(mask);
  worker.join();
  EXPECT_EQ(x, 7u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.fallbacks_wait_timeout, 1u);
  EXPECT_EQ(s.fallbacks_lockwait, 0u);
  EXPECT_EQ(s.fallbacks_structural, 1u);
  EXPECT_EQ(s.fallback_acquisitions, 2u);
}

TEST_F(ObsElideTest, ZeroWaitDeadlineMeansUnbounded) {
  htm::FallbackPolicy lock(1);
  lock.acquire(lock.all(), htm::FallbackCause::kStructural);
  htm::ElideOptions opts;
  opts.max_wait_us = 0;           // opt back into the unbounded paper wait
  opts.max_lock_waits = 1 << 20;
  alignas(8) std::uint64_t x = 0;
  std::thread worker([&] {
    const int r = htm::elide<int>(
        lock, lock.all(),
        [&](auto& acc) {
          acc.store(&x, std::uint64_t{1});
          return 2;
        },
        opts);
    EXPECT_EQ(r, 2);
  });
  // Holder releases after well past the default deadline's order of
  // magnitude at this scale; the worker must still be waiting (not
  // timed out) and then commit transactionally.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lock.release(lock.all());
  worker.join();
  EXPECT_EQ(x, 1u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.fallbacks_wait_timeout, 0u);
}

TEST_F(ObsElideTest, TaxonomySplitsWellKnownExplicitCodes) {
  alignas(8) std::uint64_t x = 0;
  (void)x;
  const unsigned s1 = htm::run(
      [&](htm::Txn& tx) { tx.abort(htm::kLockSubscriptionCode); });
  const unsigned s2 =
      htm::run([&](htm::Txn& tx) { tx.abort(htm::kOldSeeNewCode); });
  const unsigned s3 = htm::run([&](htm::Txn& tx) { tx.abort(0x7f); });
  EXPECT_TRUE(s1 & htm::kAbortExplicit);
  EXPECT_TRUE(s2 & htm::kAbortExplicit);
  EXPECT_TRUE(s3 & htm::kAbortExplicit);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.aborts_lock_subscription, 1u);
  EXPECT_EQ(s.aborts_old_see_new, 1u);
  EXPECT_EQ(s.aborts_explicit, 1u);
  EXPECT_EQ(s.total_aborts(), 3u);
  EXPECT_EQ(s.attempts(), 3u);
}

}  // namespace
}  // namespace bdhtm
