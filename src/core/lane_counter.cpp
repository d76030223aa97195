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

/// Episodes transposed into the kernel's byte columns (core/lane_kernel.hpp)
/// in blocks of `vectors` vectors, padded to whole blocks; padding lanes
/// count symbol 0 and are dropped.  A one-vector block is kColumns vectors
/// long, so later blocks stay vector-aligned but not always 64-byte aligned.
struct Columns {
  Columns(LaneWidth width, int vectors, std::span<const Episode> episodes)
      : per_block(static_cast<std::size_t>(vectors) * (width == LaneWidth::kAvx2 ? 32 : 16)),
        levels((episodes.size() + per_block - 1) / per_block, 1),
        storage((levels.size() * lanes::kColumns * per_block + sizeof(ColumnChunk) - 1) /
                sizeof(ColumnChunk)) {
    for (const Episode& e : episodes) {
      gm::expects(!e.empty(), "cannot count an empty episode");
      if (e.level() > kLaneMaxLevel) {
        gm::raise_precondition("the lane engine counts episodes only up to level " +
                                   std::to_string(kLaneMaxLevel) + ", got level " +
                                   std::to_string(e.level()),
                               ErrorCode::kCapability);
      }
    }
    for (std::size_t e = 0; e < lane_count(); ++e) {
      // Column c of this lane is lane(e)[c * per_block].
      std::uint8_t* lane = this->lane(e);
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

  [[nodiscard]] std::size_t lane_count() const { return levels.size() * per_block; }
  [[nodiscard]] std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(storage.data()); }
  [[nodiscard]] const std::uint8_t* bytes() const {
    return reinterpret_cast<const std::uint8_t*>(storage.data());
  }
  /// Lane e's byte in column 0.
  [[nodiscard]] std::uint8_t* lane(std::size_t e) {
    return bytes() + e / per_block * lanes::kColumns * per_block + e % per_block;
  }
  [[nodiscard]] const std::uint8_t* lane(std::size_t e) const {
    return bytes() + e / per_block * lanes::kColumns * per_block + e % per_block;
  }

  std::size_t per_block;
  std::vector<std::uint8_t> levels;  ///< per block: its longest episode
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
  Columns columns(width, lanes::kVectors, episodes);
  std::vector<std::int64_t> totals(columns.lane_count(), 0);
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
        columns(width, 1, episodes),
        counts(columns.lane_count(), 0),
        first_pos(columns.lane_count(), 0) {
    gm::expects(lane_width_runs(width), "this binary or CPU cannot run the AVX2 lane kernel");
    gm::expects(expiry.window >= 0, "expiry window must be >= 0 (0 disables expiry)");
  }

  LaneWidth width;
  bool contiguous;
  std::int64_t window;
  std::size_t episode_count;
  Columns columns;
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
    std::uint8_t* lane = im.columns.lane(e);
    const std::size_t stride = im.columns.per_block;
    gm::expects(p.state >= 0 && p.state < lane[lanes::kLengthColumn * stride],
                "restored state outside the episode's automaton");
    lane[lanes::kStateColumn * stride] = static_cast<std::uint8_t>(p.state);
    lane[lanes::kWaitColumn * stride] =
        p.state == 0 ? lane[0] : static_cast<std::uint8_t>(lane[0] ^ lane[p.state * stride]);
    im.counts[e] = p.count;
    im.first_pos[e] = p.first_pos;
  }
}

void LaneCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  Impl& im = *impl_;
  run(im.width, {.columns = im.columns.bytes(),
                 .levels = im.columns.levels.data(),
                 .block_count = im.columns.levels.size(),
                 .database = symbols.data(),
                 .events = symbols.size(),
                 .contiguous = im.contiguous,
                 .totals = im.counts.data(),
                 .first_pos = im.first_pos.data(),
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
                   im.columns.lane(e)[lanes::kStateColumn * im.columns.per_block]};
  }
  return progress;
}

std::size_t LaneCounter::episode_count() const { return impl_->episode_count; }

}  // namespace gm::core
