#ifndef PROCSIM_UTIL_SHARD_H_
#define PROCSIM_UTIL_SHARD_H_

#include <cstddef>

#include "util/logging.h"

namespace procsim::util {

/// Shard count of every partitioned engine structure: the cache budget's
/// shards and the engine's slot stripes.
inline constexpr std::size_t kDefaultShardCount = 8;

/// \brief A fixed partitioning of a key space into N shards.
///
/// One ShardMap value describes how an engine dimension (procedure slots,
/// cached results) is split: dense ids partition by `id % size()` (so slot
/// `id / size()` within a shard is dense too).  The map is immutable: the
/// shard count is fixed at construction, never changed live.
class ShardMap {
 public:
  explicit ShardMap(std::size_t shards = kDefaultShardCount)
      : shards_(shards) {
    PROCSIM_CHECK_GT(shards, 0u) << "a shard map needs at least one shard";
  }

  std::size_t size() const { return shards_; }

  /// Shard of a dense id.  Ids registered in order land round-robin, so
  /// shard loads stay balanced without hashing.
  std::size_t ForId(std::size_t id) const { return id % shards_; }

  /// Dense slot of `id` within its shard (ForId/SlotFor invert id).
  std::size_t SlotFor(std::size_t id) const { return id / shards_; }

  /// Bounds-checked shard index for direct addressing (validators, tests);
  /// aborts on an out-of-range index rather than wrapping silently.
  std::size_t At(std::size_t index) const {
    PROCSIM_CHECK_LT(index, shards_)
        << "shard index out of range (shard count " << shards_ << ")";
    return index;
  }

 private:
  std::size_t shards_;
};

}  // namespace procsim::util

#endif  // PROCSIM_UTIL_SHARD_H_
