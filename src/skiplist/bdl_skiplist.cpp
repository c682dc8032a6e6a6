#include "skiplist/bdl_skiplist.hpp"

#include <cassert>
#include <thread>
#include <vector>

namespace bdhtm::skiplist {

using epoch::KVPair;

namespace {
std::uint64_t block_epoch(const KVPair* kv) {
  return alloc::PAllocator::header_of(const_cast<KVPair*>(kv))->create_epoch;
}
}  // namespace

BDLSkiplist::BDLSkiplist(epoch::EpochSys& es, int fallback_stripes)
    : es_(es),
      dev_(es.device()),
      mw_(fallback_stripes),
      base_(std::make_unique<Base>(DramOps{mw_})),
      tctx_(std::make_unique<Padded<ThreadCtx>[]>(kMaxThreads)) {}

BDLSkiplist::~BDLSkiplist() { free_towers(); }

void BDLSkiplist::free_towers() {
  Node* n = base_->head();
  while (n != nullptr) {
    Node* next = reinterpret_cast<Node*>(strip(n->next[0]));
    base_->ops().dealloc(n);
    n = next;
  }
}

KVPair* BDLSkiplist::prep_block(std::uint64_t k, std::uint64_t v) {
  auto& tc = tctx_[thread_id()].value;
  if (tc.new_blk == nullptr) {
    tc.new_blk = epoch::make_kv(es_, k, v);
  } else {
    epoch::reinit_kv(es_, tc.new_blk, k, v);
  }
  return tc.new_blk;
}

void BDLSkiplist::consume_or_unstamp(bool used) {
  auto& tc = tctx_[thread_id()].value;
  if (used) {
    tc.new_blk = nullptr;
  } else if (tc.new_blk != nullptr) {
    // Unused preallocation must not keep a valid epoch stamp (§5).
    auto* hdr = alloc::PAllocator::header_of(tc.new_blk);
    hdr->create_epoch = alloc::kInvalidEpoch;
    dev_.mark_dirty(&hdr->create_epoch, 8);
  }
}

bool BDLSkiplist::insert_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                                   std::uint64_t value, bool* restart) {
  KVPair* nb = prep_block(key, value);
  // Stamp before the linearization point; the block is still private.
  epoch::EpochSys::set_epoch_nontx(dev_, nb, op_epoch);

  for (;;) {  // same-epoch retry loop
    EbrDomain::Guard g(base_->ebr());
    Node* existing = nullptr;
    if (base_->insert_node(key, reinterpret_cast<std::uint64_t>(nb),
                           &existing)) {
      es_.pTrack(nb);
      consume_or_unstamp(true);
      return true;
    }

    // Key present: Listing 1 epoch logic on the node's KV block. Reads
    // are validated by pinning the node's link and value words in the
    // HTM-MwCAS, so a block we act on is still the node's live block.
    auto& ops = base_->ops();
    const std::uint64_t w0 = ops.read(&existing->next[0]);
    if (is_marked(w0)) continue;  // being removed: retry (fresh insert)
    const std::uint64_t kvw = ops.read(&existing->value);
    auto* kv = reinterpret_cast<KVPair*>(kvw);
    const std::uint64_t e = block_epoch(kv);  // stable while reachable
    if (e != alloc::kInvalidEpoch && e > op_epoch) {
      *restart = true;  // OldSeeNewException
      consume_or_unstamp(false);
      return false;
    }
    if (e == op_epoch) {
      // Same epoch: in-place value update (pin link + block identity).
      const std::uint64_t oldv =
          ops.read(reinterpret_cast<DramOps::Word*>(&kv->value));
      CasTriple t[3] = {{&existing->next[0], w0, w0},
                        {&existing->value, kvw, kvw},
                        {&kv->value, oldv, value}};
      if (ops.mcas(t, 3)) {
        dev_.mark_dirty(&kv->value, 8);
        es_.pTrack(kv);
        consume_or_unstamp(false);
        return false;
      }
    } else {
      // Older epoch: replace out-of-place, retire the old block.
      CasTriple t[2] = {{&existing->next[0], w0, w0},
                        {&existing->value, kvw,
                         reinterpret_cast<std::uint64_t>(nb)}};
      if (ops.mcas(t, 2)) {
        es_.pRetire(kv);
        es_.pTrack(nb);
        consume_or_unstamp(true);
        return false;
      }
    }
    // mcas contention: retry within the same epoch.
  }
}

bool BDLSkiplist::insert(std::uint64_t key, std::uint64_t value) {
  for (;;) {  // epoch-registration loop
    const std::uint64_t op_epoch = es_.beginOp();
    bool restart = false;
    const bool inserted = insert_enveloped(op_epoch, key, value, &restart);
    if (!restart) {
      es_.endOp();
      return inserted;
    }
    es_.abortOp();
  }
}

bool BDLSkiplist::remove_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                                   bool* restart) {
  EbrDomain::Guard g(base_->ebr());
  auto& ops = base_->ops();
  for (;;) {
    Node* n = base_->find_node(key);
    if (n == nullptr) return false;
    const std::uint64_t w0 = ops.read(&n->next[0]);
    if (is_marked(w0)) return false;  // another remover got it
    const std::uint64_t kvw = ops.read(&n->value);
    auto* kv = reinterpret_cast<KVPair*>(kvw);
    const std::uint64_t e = block_epoch(kv);
    if (e != alloc::kInvalidEpoch && e > op_epoch) {
      *restart = true;
      return false;
    }
    // Logical delete: mark level 0 while pinning the block identity,
    // so the retired block is exactly the removed one. The base
    // primitive also unlinks and retires the DRAM node.
    const CasTriple pin{&n->value, kvw, kvw};
    std::uint64_t slot = 0;
    const auto mr = base_->try_remove_node(n, w0, &pin, 1, &slot);
    if (mr == Base::MarkResult::kMarked) {
      es_.pRetire(kv);
      return true;
    }
    if (mr == Base::MarkResult::kLost) return false;
  }
}

bool BDLSkiplist::remove(std::uint64_t key) {
  for (;;) {
    const std::uint64_t op_epoch = es_.beginOp();
    bool restart = false;
    const bool removed = remove_enveloped(op_epoch, key, &restart);
    if (!restart) {
      es_.endOp();
      return removed;
    }
    es_.abortOp();
  }
}

std::optional<std::uint64_t> BDLSkiplist::find_enveloped(std::uint64_t key) {
  EbrDomain::Guard g(base_->ebr());
  if (Node* n = base_->find_node(key)) {
    auto* kv = reinterpret_cast<KVPair*>(base_->read_value(n));
    dev_.account_read();
    return base_->ops().read(reinterpret_cast<DramOps::Word*>(&kv->value));
  }
  return std::nullopt;
}

std::optional<std::uint64_t> BDLSkiplist::find(std::uint64_t key) {
  es_.beginOp();  // pin the epoch: blocks we read cannot be reclaimed
  auto out = find_enveloped(key);
  es_.endOp();
  return out;
}

void BDLSkiplist::apply_batch(epoch::BatchOp* ops, std::size_t n) {
  using Kind = epoch::BatchOp::Kind;
  assert(es_.in_op() && "apply_batch runs under the caller's envelope");
  const std::uint64_t op_epoch = es_.current_op_epoch();
  for (std::size_t i = 0; i < n; ++i) {
    epoch::BatchOp& op = ops[i];
    bool restart = false;
    switch (op.kind) {
      case Kind::kPut:
        op.ok = insert_enveloped(op_epoch, op.key, op.value, &restart);
        break;
      case Kind::kRemove:
        op.ok = remove_enveloped(op_epoch, op.key, &restart);
        break;
      case Kind::kGet: {
        const auto v = find_enveloped(op.key);
        op.ok = v.has_value();
        op.out_value = v.value_or(0);
        break;
      }
    }
    // Ops [0, i) committed with their pTrack/pRetire filed in the open
    // envelope; the executor's endOp/beginOp restart preserves them.
    if (restart) throw epoch::EnvelopeRestart{i};
  }
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> BDLSkiplist::successor(
    std::uint64_t key) {
  es_.beginOp();
  std::optional<std::pair<std::uint64_t, std::uint64_t>> out;
  {
    EbrDomain::Guard g(base_->ebr());
    std::uint64_t k, slot;
    if (base_->successor(key, &k, &slot)) {
      auto* kv = reinterpret_cast<KVPair*>(slot);
      dev_.account_read();
      out = std::pair{k, base_->ops().read(
                             reinterpret_cast<DramOps::Word*>(&kv->value))};
    }
  }
  es_.endOp();
  return out;
}

void BDLSkiplist::reset_index() {
  free_towers();
  base_ = std::make_unique<Base>(DramOps{mw_});
}

htm::FallbackPolicy& BDLSkiplist::fallback_policy() {
  return mw_.fallback_policy();
}

htm::StripeMask BDLSkiplist::footprint(std::uint64_t key) const {
  // Representative two-word link update (prev->next + node word); the
  // real per-op footprint hashes tower-word addresses, unknowable before
  // the search. See the header comment.
  const htm::FallbackPolicy& pol = mw_.fallback_policy();
  return pol.mask_of_hash(splitmix64(key)) |
         pol.mask_of_hash(splitmix64(key ^ 0x9e3779b97f4a7c15ULL));
}

void BDLSkiplist::relink_recovered(KVPair* kv,
                                   std::uint64_t /*create_epoch*/) {
  Node* existing = nullptr;
  if (base_->insert_node(kv->key, reinterpret_cast<std::uint64_t>(kv),
                         &existing)) {
    return;
  }
  // Duplicate key: keep the newer block.
  auto* cur = reinterpret_cast<KVPair*>(base_->read_value(existing));
  if (block_epoch(cur) < block_epoch(kv)) {
    if (base_->update_value(existing,
                            reinterpret_cast<std::uint64_t>(cur),
                            reinterpret_cast<std::uint64_t>(kv))) {
      es_.pDelete(cur);
      return;
    }
  }
  es_.pDelete(kv);
}

std::size_t BDLSkiplist::recover(int threads) {
  reset_index();
  std::vector<KVPair*> blocks;
  es_.recover([&](void* payload, std::uint64_t) {
    blocks.push_back(static_cast<KVPair*>(payload));
  });
  if (threads <= 1) {
    for (KVPair* kv : blocks) relink_recovered(kv, block_epoch(kv));
  } else {
    std::vector<std::thread> workers;
    const std::size_t chunk = (blocks.size() + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(blocks.size(), lo + chunk);
      if (lo >= hi) break;
      workers.emplace_back([this, &blocks, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) {
          relink_recovered(blocks[i], block_epoch(blocks[i]));
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  return blocks.size();
}

}  // namespace bdhtm::skiplist
