#include "txn/age.hpp"

#include <algorithm>

namespace mvcom::txn {

AgeProfile shard_age_profile(const Trace& trace,
                             std::span<const std::size_t> block_indices,
                             double commit_time) {
  AgeProfile profile;
  for (const std::size_t b : block_indices) {
    const BlockRecord& block = trace.blocks.at(b);
    // All TXs of a block share its creation time; negative waits (blocks
    // "created" after the commit instant) clamp to zero.
    const double age = std::max(0.0, commit_time - block.btime);
    profile.tx_count += block.tx_count;
    profile.total_age += age * static_cast<double>(block.tx_count);
    profile.max_age = std::max(profile.max_age, age);
  }
  return profile;
}

}  // namespace mvcom::txn
