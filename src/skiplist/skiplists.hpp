// The skiplist family of paper §4.2 / Fig. 5.
//
//   TSkiplist          - transient baseline: DRAM nodes, volatile MwCAS
//   PSkiplistNoFlush   - DL-Skiplist minus persist instructions (not
//                        crash consistent; isolates flush cost)
//   PSkiplistHTMMwCAS  - same, with MwCAS replaced by HTM-MwCAS
//                        (isolates descriptor-protocol cost)
//   DLSkiplist         - Wang et al. [54]: NVM nodes, PMwCAS, strictly
//                        durably linearizable, with post-crash recovery
//
// (BDL-Skiplist, the paper's contribution, lives in bdl_skiplist.hpp.)
//
// User values are stored shifted left by 3 bits inside the CAS'd value
// word (the MwCAS/PMwCAS tag bits must stay clear), so values must fit
// in 60 bits — ample for the paper's 8-byte-integer workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "alloc/pallocator.hpp"
#include "nvm/device.hpp"
#include "nvm/roots.hpp"
#include "skiplist/skiplist_base.hpp"
#include "sync/htm_mwcas.hpp"
#include "sync/pmwcas.hpp"

namespace bdhtm::skiplist {

/// Map facade over SkiplistBase: insert-or-update / remove / find /
/// successor with the pin-unmarked value-update protocol.
template <typename Ops>
class SkiplistMap {
 public:
  using Base = SkiplistBase<Ops>;
  using Node = typename Base::Node;

  explicit SkiplistMap(Ops ops, std::uint64_t seed = 0x51ee9)
      : base_(ops, seed) {}

  bool insert(std::uint64_t key, std::uint64_t value) {
    const std::uint64_t slot = encode(value);
    for (;;) {
      EbrDomain::Guard g(base_.ebr());
      Node* existing = nullptr;
      if (base_.insert_node(key, slot, &existing)) return true;
      const std::uint64_t old = base_.read_value(existing);
      if (base_.update_value(existing, old, slot)) return false;
      // Node was removed or the value raced; retry from scratch.
    }
  }

  bool remove(std::uint64_t key) {
    EbrDomain::Guard g(base_.ebr());
    std::uint64_t slot;
    return base_.remove_node(key, &slot);
  }

  std::optional<std::uint64_t> find(std::uint64_t key) {
    EbrDomain::Guard g(base_.ebr());
    Node* n = base_.find_node(key);
    if (n == nullptr) return std::nullopt;
    return decode(base_.read_value(n));
  }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key) {
    EbrDomain::Guard g(base_.ebr());
    std::uint64_t k, slot;
    if (!base_.successor(key, &k, &slot)) return std::nullopt;
    return std::pair{k, decode(slot)};
  }

  Base& base() { return base_; }

  static std::uint64_t encode(std::uint64_t v) {
    assert(v < (std::uint64_t{1} << 60));
    return v << 3;
  }
  static std::uint64_t decode(std::uint64_t slot) { return slot >> 3; }

 private:
  Base base_;
};

/// T-Skiplist (DRAM + MwCAS).
class TSkiplist : public SkiplistMap<MwcasDramOps> {
 public:
  TSkiplist() : SkiplistMap(MwcasDramOps{}) {}
  TSkiplist(const TSkiplist&) = delete;
  TSkiplist& operator=(const TSkiplist&) = delete;

  /// Frees the DRAM nodes still linked at level 0. A marked node was
  /// retired by its remover, so the EBR domain frees it instead.
  ~TSkiplist() {
    Node* n = base().head();
    while (n != nullptr) {
      const std::uint64_t w = n->next[0].load(std::memory_order_relaxed);
      if (!is_marked(w)) base().ops().dealloc(n);
      n = reinterpret_cast<Node*>(strip(w));
    }
  }
};

/// P-Skiplist-no-flush (NVM nodes + MwCAS, no persists).
class PSkiplistNoFlush : public SkiplistMap<MwcasNvmNoFlushOps> {
 public:
  explicit PSkiplistNoFlush(alloc::PAllocator& pa)
      : SkiplistMap(MwcasNvmNoFlushOps{pa}) {}
};

/// P-Skiplist-HTM-MwCAS (NVM nodes + HTM-MwCAS, no persists).
class PSkiplistHTMMwCAS : public SkiplistMap<HtmNvmNoFlushOps> {
 public:
  explicit PSkiplistHTMMwCAS(alloc::PAllocator& pa)
      : SkiplistMap(HtmNvmNoFlushOps{pa, mw_}) {}

 private:
  sync::HTMMwCAS mw_;
};

namespace detail {
/// Private base so the PMwCAS instance outlives (is constructed before)
/// the SkiplistMap base that references it.
struct PmHolder {
  PmHolder(nvm::Device& dev, alloc::PAllocator& pa, bool format)
      : pm(dev, pa,
           format ? sync::PMwCAS::Mode::kFormat
                  : sync::PMwCAS::Mode::kAttach) {}
  sync::PMwCAS pm;
};
}  // namespace detail

/// DL-Skiplist (Wang et al.): NVM nodes + PMwCAS, strict DL.
class DLSkiplist : private detail::PmHolder,
                   public SkiplistMap<PmwcasOps> {
 public:
  enum class Mode { kFormat, kAttach };

  DLSkiplist(nvm::Device& dev, alloc::PAllocator& pa,
             Mode mode = Mode::kFormat)
      : detail::PmHolder(dev, pa, mode == Mode::kFormat),
        SkiplistMap(PmwcasOps{pa, pm}), pa_(pa) {
    if (mode == Mode::kFormat) {
      // Publish the head so recovery can re-attach the structure.
      nvm::publish_root(dev, nvm::kRootStructure,
                        static_cast<std::uint64_t>(
                            reinterpret_cast<std::byte*>(base().head()) -
                            dev.base()));
    } else {
      const std::uint64_t off = *nvm::root_slot(dev, nvm::kRootStructure);
      base().set_head(reinterpret_cast<Node*>(dev.base() + off));
    }
  }

  /// Post-crash: roll in-flight PMwCAS operations forward/back and
  /// rebuild the allocator's transient free lists. The structure itself
  /// lives in NVM and needs no index rebuild.
  void recover() {
    pm.recover();
    pa_.rebuild_free_lists();
  }

  sync::PMwCAS& pmwcas() { return pm; }

 private:
  alloc::PAllocator& pa_;
};

}  // namespace bdhtm::skiplist
