// Microbenchmarks (google-benchmark) for the substrate primitives the
// paper's arguments rest on: HTM transaction commit cost vs lock cost,
// the price of a persist (clwb+fence) vs a buffered store, and epoch
// system API overhead. These are the per-operation costs whose ratios
// drive every figure-level result.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc/pallocator.hpp"
#include "bench/bench_common.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"

namespace {
using namespace bdhtm;

void BM_HtmTxnCommit(benchmark::State& state) {
  htm::configure(htm::EngineConfig{});
  alignas(64) static std::uint64_t cell = 0;
  for (auto _ : state) {
    const unsigned st = htm::run([&](htm::Txn& tx) {
      tx.store(&cell, tx.load(&cell) + 1);
    });
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_HtmTxnCommit);

void BM_MutexCriticalSection(benchmark::State& state) {
  static std::mutex mu;
  alignas(64) static std::uint64_t cell = 0;
  for (auto _ : state) {
    std::scoped_lock lk(mu);
    benchmark::DoNotOptimize(++cell);
  }
}
BENCHMARK(BM_MutexCriticalSection);

void BM_HtmTxnReadOnly8Words(benchmark::State& state) {
  htm::configure(htm::EngineConfig{});
  alignas(64) static std::uint64_t cells[64] = {};
  for (auto _ : state) {
    std::uint64_t sum = 0;
    htm::run([&](htm::Txn& tx) {
      for (int i = 0; i < 8; ++i) sum += tx.load(&cells[i * 8]);
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_HtmTxnReadOnly8Words);

// A BD-Spash bucket scan: 16 consecutive key words over 2 lines. The
// engine tracks reads per line (DESIGN.md §6), so this costs 2 tracked
// reads plus 14 repeat-line reads, against 8 tracked reads above.
void BM_HtmTxnReadOnlyBucketScan(benchmark::State& state) {
  htm::configure(htm::EngineConfig{});
  alignas(64) static std::uint64_t cells[16] = {};
  for (auto _ : state) {
    std::uint64_t sum = 0;
    htm::run([&](htm::Txn& tx) {
      for (const std::uint64_t& c : cells) sum += tx.load(&c);
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_HtmTxnReadOnlyBucketScan);

struct NvmFixture : benchmark::Fixture {
  void SetUp(const benchmark::State&) override {
    if (!dev) {
      dev = std::make_unique<nvm::Device>(bench::nvm_cfg(256ull << 20));
      pa = std::make_unique<alloc::PAllocator>(*dev);
      cell = static_cast<std::uint64_t*>(pa->alloc(64));
    }
  }
  static std::unique_ptr<nvm::Device> dev;
  static std::unique_ptr<alloc::PAllocator> pa;
  static std::uint64_t* cell;
};
std::unique_ptr<nvm::Device> NvmFixture::dev;
std::unique_ptr<alloc::PAllocator> NvmFixture::pa;
std::uint64_t* NvmFixture::cell;

BENCHMARK_F(NvmFixture, BM_BufferedNvmStore)(benchmark::State& state) {
  std::uint64_t v = 0;
  for (auto _ : state) {
    dev->write(cell, ++v);  // store only: persistence deferred
  }
}

BENCHMARK_F(NvmFixture, BM_StrictPersistStore)(benchmark::State& state) {
  std::uint64_t v = 0;
  for (auto _ : state) {
    dev->write(cell, ++v);
    dev->persist_nontxn(cell, 8);  // the strict-DL tax per update
  }
}

void BM_EpochBeginEnd(benchmark::State& state) {
  static std::unique_ptr<nvm::Device> dev;
  static std::unique_ptr<alloc::PAllocator> pa;
  static std::unique_ptr<epoch::EpochSys> es;
  if (!dev) {
    nvm::DeviceConfig cfg;
    cfg.capacity = 64ull << 20;
    dev = std::make_unique<nvm::Device>(cfg);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    epoch::EpochSys::Config ecfg;
    ecfg.start_advancer = false;
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
  }
  for (auto _ : state) {
    es->beginOp();
    es->endOp();
  }
}
BENCHMARK(BM_EpochBeginEnd);

void BM_EpochTrackedWrite(benchmark::State& state) {
  static std::unique_ptr<nvm::Device> dev;
  static std::unique_ptr<alloc::PAllocator> pa;
  static std::unique_ptr<epoch::EpochSys> es;
  static epoch::KVPair* kv;
  if (!dev) {
    nvm::DeviceConfig cfg;
    cfg.capacity = 64ull << 20;
    dev = std::make_unique<nvm::Device>(cfg);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    epoch::EpochSys::Config ecfg;
    ecfg.start_advancer = false;
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
    es->beginOp();
    kv = epoch::make_kv(*es, 1, 1);
    es->endOp();
  }
  std::uint64_t v = 0;
  for (auto _ : state) {
    es->beginOp();
    es->pSet(kv, &v, 8, offsetof(epoch::KVPair, value));
    es->pTrack(kv);
    es->endOp();
    ++v;
  }
  // Keep the tracked-range buffers bounded between iterations.
  es->advance();
  es->advance();
  es->advance();
}
BENCHMARK(BM_EpochTrackedWrite);

}  // namespace

// Hand-rolled main (instead of BENCHMARK_MAIN): the exporter flags
// --obs-out/--trace-out must be stripped before benchmark::Initialize,
// which treats unrecognized arguments as fatal.
int main(int argc, char** argv) {
  bdhtm::bench::init("micro_substrates", argc, argv);
  bdhtm::bench::set_structure("substrates");
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--obs-out", 9) == 0 ||
        std::strncmp(a, "--trace-out", 11) == 0) {
      const bool has_value = std::strchr(a, '=') != nullptr;
      if (!has_value && i + 1 < argc) ++i;  // skip the separate value
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bdhtm::bench::finish();
}
