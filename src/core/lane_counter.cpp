#include "core/lane_counter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "core/lane_kernel.hpp"

namespace gm::core {
namespace {

static_assert(lanes::kMaxLevel == kLaneMaxLevel);

/// Kernel column storage: blocks start on 64-byte boundaries, so the kernel
/// loads aligned vectors at every width.
struct alignas(64) ColumnChunk {
  std::uint8_t bytes[64];
};

/// Episodes per register block at `width`.
std::size_t block_lanes(LaneWidth width) {
  return std::size_t{lanes::kVectors} * (width == LaneWidth::kAvx2 ? 32 : 16);
}

bool cpu_runs_avx2() {
#if defined(GM_LANE_AVX2)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace

bool lane_width_runs(LaneWidth width) {
  return width == LaneWidth::kBaseline || cpu_runs_avx2();
}

std::string_view lane_isa() {
  if (lane_width_runs(LaneWidth::kAvx2)) return "avx2";
#if defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

std::vector<std::int64_t> count_all_lanes(std::span<const Episode> episodes,
                                          std::span<const Symbol> database, Semantics semantics,
                                          ExpiryPolicy expiry) {
  const LaneWidth widest =
      lane_width_runs(LaneWidth::kAvx2) ? LaneWidth::kAvx2 : LaneWidth::kBaseline;
  return count_all_lanes_at(widest, episodes, database, semantics, expiry);
}

std::vector<std::int64_t> count_all_lanes_at(LaneWidth width, std::span<const Episode> episodes,
                                             std::span<const Symbol> database,
                                             Semantics semantics, ExpiryPolicy expiry) {
  gm::expects(lane_width_runs(width), "this binary or CPU cannot run the AVX2 lane kernel");
  if (expiry.enabled()) {
    gm::raise_precondition(
        "the lane engine has no episode expiry (requested window " +
            std::to_string(expiry.window) + "); count expiring episodes with cpu-single-scan",
        ErrorCode::kCapability);
  }
  for (const Episode& e : episodes) {
    gm::expects(!e.empty(), "cannot count an empty episode");
    if (e.level() > kLaneMaxLevel) {
      gm::raise_precondition("the lane engine counts episodes only up to level " +
                                 std::to_string(kLaneMaxLevel) + ", got level " +
                                 std::to_string(e.level()),
                             ErrorCode::kCapability);
    }
  }

  // Transpose into the kernel's byte columns (core/lane_kernel.hpp), padded
  // to whole blocks; padding lanes count symbol 0 and are dropped.
  const std::size_t n = episodes.size();
  const std::size_t per_block = block_lanes(width);
  const std::size_t block_count = (n + per_block - 1) / per_block;
  const std::size_t block_bytes = lanes::kColumns * per_block;
  std::vector<ColumnChunk> storage(block_count * block_bytes / sizeof(ColumnChunk));
  auto* columns = reinterpret_cast<std::uint8_t*>(storage.data());
  std::vector<std::uint8_t> levels(block_count, 1);
  for (std::size_t e = 0; e < block_count * per_block; ++e) {
    // Column c of this lane is lane[c * per_block].
    std::uint8_t* lane = columns + e / per_block * block_bytes + e % per_block;
    lane[lanes::kLengthColumn * per_block] = 1;
    if (e >= n) continue;
    const std::span<const Symbol> symbols = episodes[e].symbols();
    std::uint8_t& level = levels[e / per_block];
    level = std::max(level, static_cast<std::uint8_t>(symbols.size()));
    lane[lanes::kLengthColumn * per_block] = static_cast<std::uint8_t>(symbols.size());
    lane[0] = symbols[0];
    lane[lanes::kWaitColumn * per_block] = symbols[0];
    for (std::size_t k = 1; k < symbols.size(); ++k) {
      lane[k * per_block] = static_cast<std::uint8_t>(symbols[0] ^ symbols[k]);
    }
  }

  std::vector<std::int64_t> totals(block_count * per_block, 0);
  const lanes::Job job{.columns = columns,
                       .levels = levels.data(),
                       .block_count = block_count,
                       .database = database.data(),
                       .events = database.size(),
                       .contiguous = semantics == Semantics::kContiguousRestart,
                       .totals = totals.data()};
  if (width == LaneWidth::kAvx2) {
#if defined(GM_LANE_AVX2)
    lanes::scan_avx2(job);
#endif
  } else {
    lanes::scan<16>(job);
  }
  totals.resize(n);
  return totals;
}

}  // namespace gm::core
