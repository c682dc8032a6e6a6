#include "veb/htm_veb.hpp"

#include "htm/retry.hpp"

namespace bdhtm::veb {

HTMvEB::HTMvEB(int ubits) : core_(ubits) {}

bool HTMvEB::insert(std::uint64_t key, std::uint64_t value) {
  return htm::elide<bool>(policy_, policy_.all(), [&](auto& acc) {
    if (std::uint64_t* slot = core_.slot_addr(acc, key)) {
      acc.store(slot, value);
      return false;
    }
    core_.insert_new(acc, key, value);
    return true;
  });
}

bool HTMvEB::remove(std::uint64_t key) {
  return htm::elide<bool>(policy_, policy_.all(), [&](auto& acc) {
    if (core_.slot_addr(acc, key) == nullptr) return false;
    core_.remove_existing(acc, key);
    return true;
  });
}

std::optional<std::uint64_t> HTMvEB::find(std::uint64_t key) {
  using Out = std::optional<std::uint64_t>;
  return htm::elide<Out>(
      policy_, policy_.all(), [&](auto& acc) -> Out {
        if (std::uint64_t* slot = core_.slot_addr(acc, key)) {
          return acc.load(slot);
        }
        return std::nullopt;
      });
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> HTMvEB::successor(
    std::uint64_t key) {
  using Out = std::optional<std::pair<std::uint64_t, std::uint64_t>>;
  return htm::elide<Out>(policy_, policy_.all(), [&](auto& acc) {
    return core_.successor(acc, key);
  });
}

}  // namespace bdhtm::veb
