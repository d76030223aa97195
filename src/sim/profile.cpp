#include "sim/profile.hpp"

#include "common/error.hpp"

namespace gpusim {

const BlockProfile& KernelProfile::block_at(std::int64_t index) const {
  std::int64_t seen = 0;
  for (const auto& g : groups) {
    if (index < seen + g.count) return g.block;
    seen += g.count;
  }
  gm::raise_precondition("block index out of range in KernelProfile::block_at");
}

ProfileTotals aggregate(const KernelProfile& profile) {
  ProfileTotals t;
  for (const auto& g : profile.groups) {
    const auto n = static_cast<double>(g.count);
    t.warp_instructions += n * g.block.warp_instructions;
    t.lane_instructions += n * g.block.lane_instructions;
    t.tex_requests += n * g.block.tex_requests;
    t.shared_requests += n * g.block.shared_requests;
    t.global_requests += n * g.block.global_requests;
    t.atomic_requests += n * g.block.atomic_requests;
    t.syncs += g.count * g.block.syncs;
    t.blocks += g.count;
  }
  return t;
}

}  // namespace gpusim
