// Multi-word compare-and-swap, volatile descriptor-based variant
// (paper §2.3 / Fig. 4 "MwCAS").
//
// Protocol (Wang et al. [54], persistence stripped):
//   1. fill a descriptor with {addr, expected, desired} triples, sorted by
//      address (canonical order prevents install livelock);
//   2. install a tagged pointer to the descriptor in each target word with
//      CAS(expected -> desc|1); on meeting another descriptor, help it
//      finish and retry; on value mismatch, the operation fails;
//   3. a single CAS flips the descriptor status Undecided -> Succeeded /
//      Failed — the linearization point;
//   4. each word is patched from the descriptor pointer to the desired
//      (success) or expected (failure) value.
// Any thread that encounters a descriptor pointer performs steps 2–4 on
// the owner's behalf (lock-freedom by helping).
//
// Installs go through RDCSS (sync/rdcss.hpp): a descriptor can only enter
// a word while its status is Undecided, checked atomically, which keeps
// the status CAS the unique linearization point even under value
// recurrence (ABA). Target words must keep bits 0-1 clear (tag bits):
// the structures built on MwCAS store 4-byte-aligned pointers and
// multiples of four. Descriptors are recycled through an EBR domain.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/ebr.hpp"

namespace bdhtm::sync {

inline constexpr int kMwCASMaxWords = 8;
inline constexpr std::uint64_t kDescTag = 1;

constexpr bool is_descriptor(std::uint64_t v) { return (v & kDescTag) != 0; }

/// Shared EBR domain for the volatile MwCAS descriptors and RDCSS
/// records in the process. Reclaimed records go back to the reclaiming
/// thread's pool, which frees them when the thread exits; at process
/// exit the domain frees whatever is still in limbo.
EbrDomain& mwcas_ebr();

/// True once mwcas_ebr() is being torn down: the threads' pools are gone,
/// so reclaim callbacks must free a record instead of recycling it.
bool mwcas_ebr_closing();

class MwCAS {
 public:
  enum Status : std::uint64_t {
    kUndecided = 0,
    kSucceeded = 1,
    kFailed = 2,
  };

  struct Word {
    std::atomic<std::uint64_t>* addr;
    std::uint64_t expected;
    std::uint64_t desired;
  };

  struct Descriptor {
    std::atomic<std::uint64_t> status{kUndecided};
    std::uint32_t count = 0;
    Word words[kMwCASMaxWords];
  };

  /// Atomically: if every words[i].addr holds words[i].expected, replace
  /// each with words[i].desired. Returns success. `n <= kMwCASMaxWords`.
  /// Words need not be pre-sorted; values must have bit 0 clear.
  static bool execute(Word* words, int n);

  /// Helper-aware read: resolves any in-flight descriptor first, so the
  /// returned value is always a real application value.
  static std::uint64_t read(std::atomic<std::uint64_t>* addr);

 private:
  friend struct MwCASTestPeer;
  static Descriptor* acquire_descriptor();
  static void retire_descriptor(Descriptor* d);
  static void help(Descriptor* d);
};

}  // namespace bdhtm::sync
