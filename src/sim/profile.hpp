// Kernel execution profiles: the interchange format between the *functional*
// engine (which measures these numbers by executing a kernel) and the
// *analytic* workload models (which compute them in closed form), and the
// sole input — besides DeviceSpec and LaunchConfig — of the timing model.
//
// A profile describes per-block work at warp granularity.  Blocks of the
// mining kernels are nearly homogeneous, so profiles store groups of
// identical blocks rather than one record per block; this keeps full-scale
// (15,600-block) profiles tiny.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/launch.hpp"

namespace gpusim {

/// How a block's lanes address texture memory.  CC 1.x texture caches serve
/// warp-uniform and warp-sequential streams well but retain almost nothing
/// for per-lane strided streams (each lane walking its own region brings a
/// full line per fetch) — the mechanism behind the paper's C8.
enum class TexAccessKind {
  kNone,             ///< block issues no texture fetches
  kBroadcast,        ///< all lanes of a warp fetch the same address
  kCoalescedStream,  ///< a warp's lanes fetch 32 consecutive bytes (one line)
  kStridedPerLane,   ///< each lane streams through its own distant region
};

/// How a block touches texture memory; consumed by the cost model's
/// texture-cache traffic estimator.
struct TexturePattern {
  TexAccessKind kind = TexAccessKind::kNone;
  /// Unique bytes the block touches over its lifetime (compulsory traffic
  /// for the cache-friendly kinds).
  double footprint_bytes = 0.0;
  /// Blocks with the same nonzero key read the same addresses in the same
  /// order; when co-resident on an SM they share one cache footprint.
  int sharing_key = 0;

  friend bool operator==(const TexturePattern&, const TexturePattern&) = default;
};

/// Aggregated work of one block.
///
/// "warp_*" fields are sums over barrier-delimited segments of the
/// max-over-lanes count in each warp: the SIMT issue cost of the block.
/// "lane_instructions" is the plain sum over lanes, so
/// warp_instructions * warp_size / lane_instructions measures divergence.
struct BlockProfile {
  int warps = 0;
  int syncs = 0;  ///< __syncthreads barriers executed

  double warp_instructions = 0.0;
  double warp_tex_ops = 0.0;
  double warp_shared_ops = 0.0;
  double warp_global_ops = 0.0;
  double warp_atomic_ops = 0.0;

  // Critical-path view: per segment, the max over warps of that segment's
  // per-warp cost, summed over segments.  Barriers synchronize the block, so
  // this is the serial chain no amount of warp overlap can hide (e.g. the
  // thread-0 fold in the block-level kernels).
  double path_instructions = 0.0;
  double path_tex_ops = 0.0;
  double path_shared_ops = 0.0;
  double path_global_ops = 0.0;

  double lane_instructions = 0.0;

  double tex_requests = 0.0;  ///< lane-level texture fetches
  double shared_requests = 0.0;
  double global_requests = 0.0;
  double global_bytes = 0.0;
  double atomic_requests = 0.0;

  TexturePattern texture;

  friend bool operator==(const BlockProfile&, const BlockProfile&) = default;
};

/// Profile of one kernel launch: groups of identical blocks, in launch order.
struct KernelProfile {
  struct Group {
    BlockProfile block;
    std::int64_t count = 0;
  };

  std::vector<Group> groups;

  [[nodiscard]] std::int64_t total_blocks() const noexcept {
    std::int64_t n = 0;
    for (const auto& g : groups) n += g.count;
    return n;
  }

  /// Append a block, coalescing with the last group when identical.
  void add_block(const BlockProfile& block, std::int64_t count = 1) {
    if (!groups.empty() && groups.back().block == block) {
      groups.back().count += count;
    } else {
      groups.push_back({block, count});
    }
  }

  /// The i-th block's profile (blocks are laid out group by group).
  [[nodiscard]] const BlockProfile& block_at(std::int64_t index) const;
};

/// Whole-launch sums, for reporting and tests.
struct ProfileTotals {
  double warp_instructions = 0.0;
  double lane_instructions = 0.0;
  double tex_requests = 0.0;
  double shared_requests = 0.0;
  double global_requests = 0.0;
  double atomic_requests = 0.0;
  std::int64_t syncs = 0;
  std::int64_t blocks = 0;
};

[[nodiscard]] ProfileTotals aggregate(const KernelProfile& profile);

}  // namespace gpusim
