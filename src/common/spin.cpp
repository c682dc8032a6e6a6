#include "common/spin.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace bdhtm {
namespace {

std::atomic<double> g_iters_per_ns{0.0};

// A loop body the optimizer cannot elide. One out-of-line copy, aligned
// to a cache line, serves both the calibration probe and every spin:
// inlined copies compiled to different loops whose speeds differed with
// where the linker placed them (a 1 ms spin ran 1.3-1.7 ms when one
// straddled a 64-byte boundary).
__attribute__((noinline, aligned(64))) void spin_iters(std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    asm volatile("" ::: "memory");
  }
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_calibrate() {
  if (g_iters_per_ns.load(std::memory_order_acquire) > 0.0) return;
  // The fastest of several probes: preemption or a cold core only ever
  // slows one down, and a slow probe would shorten every later spin.
  constexpr std::uint64_t kProbe = 1'000'000;
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = now_ns();
    spin_iters(kProbe);
    const std::uint64_t t1 = now_ns();
    best = std::min(best, t1 > t0 ? t1 - t0 : 1);
  }
  g_iters_per_ns.store(static_cast<double>(kProbe) / best,
                       std::memory_order_release);
}

void spin_for_ns(std::uint32_t ns) {
  if (ns == 0) return;
  double rate = g_iters_per_ns.load(std::memory_order_acquire);
  if (rate <= 0.0) {
    spin_calibrate();
    rate = g_iters_per_ns.load(std::memory_order_acquire);
  }
  spin_iters(static_cast<std::uint64_t>(rate * ns) + 1);
}

void Backoff::pause() {
  if (cur_ >= max_) {
    std::this_thread::yield();
    return;
  }
  spin_for_ns(cur_);
  cur_ *= 2;
}

}  // namespace bdhtm
