#include "svc/shard.hpp"

#include "hash/bd_spash.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "veb/phtm_veb.hpp"

namespace bdhtm::svc {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kVebTree:
      return "phtm-veb";
    case Backend::kSkiplist:
      return "bdl-skiplist";
    case Backend::kHash:
      return "bd-spash";
  }
  return "?";
}

namespace {

class VebShard final : public ShardIndex {
 public:
  VebShard(epoch::EpochSys& es, const ShardOptions& opt)
      : t_(es, opt.veb_ubits, opt.fallback_stripes) {}
  bool insert(std::uint64_t k, std::uint64_t v) override {
    return t_.insert(k, v);
  }
  bool remove(std::uint64_t k) override { return t_.remove(k); }
  std::optional<std::uint64_t> find(std::uint64_t k) override {
    return t_.find(k);
  }
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t k) override {
    return t_.successor(k);
  }
  bool ordered() const override { return true; }
  std::uint64_t max_key() const override {
    return (std::uint64_t{1} << t_.ubits()) - 1;
  }
  void apply_batch(epoch::BatchOp* ops, std::size_t n) override {
    t_.apply_batch(ops, n);
  }
  void reset_index() override { t_.reset_index(); }
  void relink_recovered(epoch::KVPair* kv, std::uint64_t ce) override {
    t_.relink_recovered(kv, ce);
  }
  htm::FallbackPolicy& fallback_policy() override {
    return t_.fallback_policy();
  }
  htm::StripeMask footprint(std::uint64_t key) const override {
    return t_.footprint(key);
  }

 private:
  veb::PHTMvEB t_;
};

class SkiplistShard final : public ShardIndex {
 public:
  SkiplistShard(epoch::EpochSys& es, const ShardOptions& opt)
      : t_(es, opt.fallback_stripes) {}
  bool insert(std::uint64_t k, std::uint64_t v) override {
    return t_.insert(k, v);
  }
  bool remove(std::uint64_t k) override { return t_.remove(k); }
  std::optional<std::uint64_t> find(std::uint64_t k) override {
    return t_.find(k);
  }
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t k) override {
    return t_.successor(k);
  }
  bool ordered() const override { return true; }
  std::uint64_t max_key() const override { return ~std::uint64_t{0}; }
  void apply_batch(epoch::BatchOp* ops, std::size_t n) override {
    t_.apply_batch(ops, n);
  }
  void reset_index() override { t_.reset_index(); }
  void relink_recovered(epoch::KVPair* kv, std::uint64_t ce) override {
    t_.relink_recovered(kv, ce);
  }
  htm::FallbackPolicy& fallback_policy() override {
    return t_.fallback_policy();
  }
  htm::StripeMask footprint(std::uint64_t key) const override {
    return t_.footprint(key);
  }

 private:
  skiplist::BDLSkiplist t_;
};

class HashShard final : public ShardIndex {
 public:
  HashShard(epoch::EpochSys& es, const ShardOptions& opt)
      : t_(es, opt.hash_initial_depth, sizeof(epoch::KVPair),
           hash::BDSpash::PersistRouting::kHybrid, opt.fallback_stripes) {}
  bool insert(std::uint64_t k, std::uint64_t v) override {
    return t_.insert(k, v);
  }
  bool remove(std::uint64_t k) override { return t_.remove(k); }
  std::optional<std::uint64_t> find(std::uint64_t k) override {
    return t_.find(k);
  }
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t) override {
    return std::nullopt;  // unordered
  }
  bool ordered() const override { return false; }
  std::uint64_t max_key() const override {
    return hash::BDSpash::kEmptyKey - 1;
  }
  void apply_batch(epoch::BatchOp* ops, std::size_t n) override {
    t_.apply_batch(ops, n);
  }
  void reset_index() override { t_.reset_index(); }
  void relink_recovered(epoch::KVPair* kv, std::uint64_t ce) override {
    t_.relink_recovered(kv, ce);
  }
  htm::FallbackPolicy& fallback_policy() override {
    return t_.fallback_policy();
  }
  htm::StripeMask footprint(std::uint64_t key) const override {
    return t_.footprint(key);
  }

 private:
  hash::BDSpash t_;
};

}  // namespace

std::unique_ptr<ShardIndex> make_shard(Backend b, epoch::EpochSys& es,
                                       const ShardOptions& opt) {
  switch (b) {
    case Backend::kVebTree:
      return std::make_unique<VebShard>(es, opt);
    case Backend::kSkiplist:
      return std::make_unique<SkiplistShard>(es, opt);
    case Backend::kHash:
      return std::make_unique<HashShard>(es, opt);
  }
  return nullptr;
}

}  // namespace bdhtm::svc
