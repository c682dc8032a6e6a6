#include "sync/htm_mwcas.hpp"

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::sync {

HTMMwCAS::Result HTMMwCAS::execute(Word* words, int n) {
  // Footprint: the union of the target words' stripes (one stripe under
  // the global policy). Two MwCASes that can touch the same word always
  // share a stripe, so a fallback excludes every conflicting fast path.
  htm::StripeMask mask = 0;
  for (int i = 0; i < n; ++i) {
    mask |= policy_.mask_of_hash(
        splitmix64(reinterpret_cast<std::uintptr_t>(words[i].addr)));
  }
  bool used_fallback = false;
  const bool success =
      htm::elide<bool>(policy_, mask, [&](auto& acc) -> bool {
        used_fallback = !acc.transactional();
        // A mismatch is a genuine CAS failure, not contention: return it,
        // which commits the read-only transaction.
        for (int i = 0; i < n; ++i) {
          if (acc.load(words[i].addr) != words[i].expected) return false;
        }
        for (int i = 0; i < n; ++i) acc.store(words[i].addr, words[i].desired);
        return true;
      });
  return {success, used_fallback};
}

}  // namespace bdhtm::sync
