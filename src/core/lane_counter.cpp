#include "core/lane_counter.hpp"

#include <algorithm>
#include <bit>
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

LaneWidth widest_width() {
  return cpu_runs_avx2() ? LaneWidth::kAvx2 : LaneWidth::kBaseline;
}

/// Lanes per vector at `width`.
std::size_t vector_bytes(LaneWidth width) { return width == LaneWidth::kAvx2 ? 32 : 16; }

/// Refuses what no lane layout holds: empty episodes, and episodes longer
/// than kLaneMaxLevel as a capability error.
void check_lane_episodes(std::span<const Episode> episodes) {
  for (const Episode& e : episodes) {
    gm::expects(!e.empty(), "cannot count an empty episode");
    if (e.level() > kLaneMaxLevel) {
      gm::raise_precondition("the lane engine counts episodes only up to level " +
                                 std::to_string(kLaneMaxLevel) + ", got level " +
                                 std::to_string(e.level()),
                             ErrorCode::kCapability);
    }
  }
}

/// Byte storage for `bytes` bytes of blocks on a 64-byte boundary.
std::vector<ColumnChunk> block_storage(std::size_t bytes) {
  return std::vector<ColumnChunk>((bytes + sizeof(ColumnChunk) - 1) / sizeof(ColumnChunk));
}

/// Episodes transposed into the untracked kernel's byte columns
/// (core/lane_kernel.hpp) in blocks of kVectors vectors, padded to whole
/// blocks; padding lanes count symbol 0 and are dropped.
struct Columns {
  Columns(LaneWidth width, std::span<const Episode> episodes)
      : per_block(lanes::kVectors * vector_bytes(width)),
        levels((episodes.size() + per_block - 1) / per_block, 1),
        storage(block_storage(levels.size() * lanes::kColumns * per_block)) {
    check_lane_episodes(episodes);
    for (std::size_t e = 0; e < levels.size() * per_block; ++e) {
      // Column c of this lane is lane[c * per_block].
      std::uint8_t* lane = bytes() + e / per_block * lanes::kColumns * per_block + e % per_block;
      lane[lanes::kLengthColumn * per_block] = 1;
      if (e >= episodes.size()) continue;
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
  }

  [[nodiscard]] std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(storage.data()); }

  std::size_t per_block;
  std::vector<std::uint8_t> levels;  ///< per block: its longest episode
  std::vector<ColumnChunk> storage;
};

/// The largest symbol any of `episodes` uses, 0 for none.
std::size_t largest_symbol(std::span<const Episode> episodes) {
  std::size_t largest = 0;
  for (const Episode& e : episodes) {
    for (const Symbol s : e.symbols()) largest = std::max<std::size_t>(largest, s);
  }
  return largest;
}

/// Episodes laid out for the tracked kernel (core/lane_kernel.hpp) in
/// one-vector blocks: each lane's one-hot state and end bit, then its bits
/// of the match table, whose rows stop at the largest symbol the episodes
/// use plus one zero row.  Padding lanes have no table bits and a level-1
/// end bit, so they never leave the start state.
struct OneHotBlocks {
  OneHotBlocks(LaneWidth width, std::span<const Episode> episodes)
      : per_block(vector_bytes(width)),
        rows(largest_symbol(episodes) + 2),
        block_count((episodes.size() + per_block - 1) / per_block),
        storage(block_storage(block_count * (lanes::kTableRow + rows) * per_block)) {
    check_lane_episodes(episodes);
    for (std::size_t e = 0; e < block_count * per_block; ++e) {
      byte(e, lanes::kOneHotRow) = 1;
      byte(e, lanes::kEndRow) = 2;
      if (e >= episodes.size()) continue;
      const std::span<const Symbol> symbols = episodes[e].symbols();
      // 1 << 8 wraps to 0, as the level-8 state does when it completes.
      byte(e, lanes::kEndRow) = static_cast<std::uint8_t>(1u << symbols.size());
      for (std::size_t d = 0; d < symbols.size(); ++d) {
        byte(e, lanes::kTableRow + symbols[d]) |= static_cast<std::uint8_t>(1u << d);
      }
    }
  }

  [[nodiscard]] std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(storage.data()); }
  /// Lane e's byte in row r of its block.
  [[nodiscard]] std::uint8_t& byte(std::size_t e, std::size_t r) { return bytes()[offset(e, r)]; }
  [[nodiscard]] std::uint8_t byte(std::size_t e, std::size_t r) const {
    return reinterpret_cast<const std::uint8_t*>(storage.data())[offset(e, r)];
  }
  [[nodiscard]] std::size_t offset(std::size_t e, std::size_t r) const {
    return (e / per_block * (lanes::kTableRow + rows) + r) * per_block + e % per_block;
  }

  std::size_t per_block;
  std::size_t rows;  ///< match-table rows per block
  std::size_t block_count;
  std::vector<ColumnChunk> storage;
};

/// Run `job` on the `width` kernel.
void run(LaneWidth width, const lanes::Job& job) {
  if (width == LaneWidth::kAvx2) {
#if defined(GM_LANE_AVX2)
    lanes::scan_avx2(job);
#endif
  } else {
    lanes::scan<16>(job);
  }
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
  return count_all_lanes_at(widest_width(), episodes, database, semantics, expiry);
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
  const std::size_t n = episodes.size();
  Columns columns(width, episodes);
  std::vector<std::int64_t> totals(columns.levels.size() * columns.per_block, 0);
  run(width, {.columns = columns.bytes(),
              .levels = columns.levels.data(),
              .block_count = columns.levels.size(),
              .database = database.data(),
              .events = database.size(),
              .contiguous = semantics == Semantics::kContiguousRestart,
              .totals = totals.data()});
  totals.resize(n);
  return totals;
}

struct LaneCounter::Impl {
  Impl(LaneWidth width, std::span<const Episode> episodes, Semantics semantics,
       ExpiryPolicy expiry)
      : width(width),
        contiguous(semantics == Semantics::kContiguousRestart),
        window(expiry.window),
        episode_count(episodes.size()),
        blocks(width, episodes),
        counts(blocks.block_count * blocks.per_block, 0),
        first_pos(blocks.block_count * blocks.per_block, 0) {
    gm::expects(lane_width_runs(width), "this binary or CPU cannot run the AVX2 lane kernel");
    gm::expects(expiry.window >= 0, "expiry window must be >= 0 (0 disables expiry)");
  }

  LaneWidth width;
  bool contiguous;
  std::int64_t window;
  std::size_t episode_count;
  OneHotBlocks blocks;
  std::vector<std::int64_t> counts;     // per lane, padding included
  std::vector<std::int64_t> first_pos;  // per lane, padding included
};

LaneCounter::LaneCounter(std::span<const Episode> episodes, Semantics semantics,
                         ExpiryPolicy expiry)
    : LaneCounter(widest_width(), episodes, semantics, expiry) {}

LaneCounter::LaneCounter(LaneWidth width, std::span<const Episode> episodes,
                         Semantics semantics, ExpiryPolicy expiry)
    : impl_(std::make_unique<Impl>(width, episodes, semantics, expiry)) {}

LaneCounter::LaneCounter(LaneCounter&&) noexcept = default;
LaneCounter& LaneCounter::operator=(LaneCounter&&) noexcept = default;
LaneCounter::~LaneCounter() = default;

void LaneCounter::restore(std::span<const EpisodeProgress> progress) {
  Impl& im = *impl_;
  gm::expects(progress.size() == im.episode_count, "progress list must match the episode list");
  for (std::size_t e = 0; e < progress.size(); ++e) {
    const EpisodeProgress& p = progress[e];
    // The end bit's position is the level: countr_zero(0) is 8.
    gm::expects(p.state >= 0 && p.state < std::countr_zero(im.blocks.byte(e, lanes::kEndRow)),
                "restored state outside the episode's automaton");
    im.blocks.byte(e, lanes::kOneHotRow) = static_cast<std::uint8_t>(1u << p.state);
    im.counts[e] = p.count;
    im.first_pos[e] = p.first_pos;
  }
}

void LaneCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  Impl& im = *impl_;
  run(im.width, {.columns = im.blocks.bytes(),
                 .block_count = im.blocks.block_count,
                 .database = symbols.data(),
                 .events = symbols.size(),
                 .contiguous = im.contiguous,
                 .totals = im.counts.data(),
                 .first_pos = im.first_pos.data(),
                 .rows = im.blocks.rows,
                 .base = start_pos,
                 .window = im.window});
}

std::vector<std::int64_t> LaneCounter::counts() const {
  const Impl& im = *impl_;
  return {im.counts.begin(), im.counts.begin() + static_cast<std::ptrdiff_t>(im.episode_count)};
}

std::vector<EpisodeProgress> LaneCounter::progress() const {
  const Impl& im = *impl_;
  std::vector<EpisodeProgress> progress(im.episode_count);
  for (std::size_t e = 0; e < progress.size(); ++e) {
    progress[e] = {im.counts[e], im.first_pos[e],
                   std::countr_zero(im.blocks.byte(e, lanes::kOneHotRow))};
  }
  return progress;
}

std::size_t LaneCounter::episode_count() const { return impl_->episode_count; }

}  // namespace gm::core
