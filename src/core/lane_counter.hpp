// Episode-lane counting engine: the paper's thread-level formulation
// (Algorithms 1-2, one thread per episode streaming the whole database)
// mapped onto host SIMD lanes — the accelerator-oriented transformation
// pointed back at the CPU.
//
// Layout.  count_all_lanes transposes episodes into per-level uint8 symbol
// columns: lane j of column k holds symbol k of episode j, and a per-lane
// length column holds its level.  Each lane keeps a uint8 automaton state
// and the symbol it awaits.  For every event, all lanes compare their
// awaited symbol with it, advance their state, and refill the awaited
// symbol from the columns with branchless masks:
//
//   w = c0 ^ sum_k ((c0 ^ ck) & (state == k))       (XOR sum, k = 1..L-1)
//
// kContiguousRestart adds Figure 3's mismatch edge (fall back to start, or to
// state 1 when the event equals the first symbol) as one more mask.
//
// Register blocking.  Lanes are processed in blocks of 4 vectors (one in the
// tracked mode below): a block's states, awaited symbols and uint8
// completion counters stay in registers across a run of at most 255 events
// (a lane completes at most once per event, so its counter cannot wrap),
// then the counters are flushed into the int64 totals.  Each run's events
// are broadcast into vectors once and shared by every block.
//
// Vector widths.  The kernel body (core/lane_kernel.hpp) is compiled twice:
// at 16 bytes, GCC/Clang vector extensions that lower to SSE2 on x86-64 and
// NEON on AArch64 with no intrinsics and no -march flag (64 lanes per
// block), and on x86-64 builds at 32 bytes in a file of its own built with
// -mavx2 (128 lanes per block).  count_all_lanes runs the AVX2 kernel
// whenever the CPU reports AVX2 and the baseline otherwise; nothing else
// chooses the width, and lane_isa() reports which one runs.
//
// Tracked mode.  LaneCounter, the resumable engine behind core::StreamScan
// and behind gpusim's buffered thread-level kernels (one per simulated block,
// kernels/mining_kernels), runs a second kernel one vector per block (16
// lanes, 32 with AVX2), the Shift-And form of the same automaton.  Each
// lane's state is one-hot (bit d set = d symbols matched), and each block
// holds a match table: bit d of lane j's row for symbol s is set when symbol
// d of episode j is s.  Per event a lane reads its block's row T:
//
//   adv = state & T;  next = state + adv       (adv is 0 or the state bit)
//
// A lane completes where next reaches its end bit 1 << level (which wraps
// to 0 at level 8) and restarts at 1; kContiguousRestart sends a lane that
// cannot advance to 1, or to 2 when T holds its first symbol.  The row
// address depends on the event only, so no refill waits on the state.  The
// table stops at the largest symbol the episodes use plus one zero row that
// every larger event reads, and each run's event-to-row index is computed
// once for all blocks.  Two more uint8 registers per lane hold the events
// since its match started and a flag for a start in the current run.  At
// each run's end the two give the run index where the match started, which
// is flushed into an int64 first_pos the way the counters are flushed.
// Expiry compares the age with the window.  A match carried in from an
// earlier run has its countdown reloaded at each run start from
// first_pos + window - run base (clamped, overflow-safe) and its age offset
// to meet the window at exactly that event, so windows of 1, 255, 256 and
// INT64_MAX are all exact and no age is carried between runs.  Its progress
// records equal MultiCounter's field for field; progress() and restore()
// convert EpisodeProgress::state to and from the one-hot byte.
//
// Scope.  Levels 1..kLaneMaxLevel and both counting semantics.  count_all_lanes
// runs the untracked kernel and has no expiry: expiry requests are refused
// with ErrorCode::kCapability rather than counted approximately, and the
// planner prices no expiring lanes.  LaneCounter counts expiring episodes;
// StreamScan falls back to MultiCounter for episodes longer than
// kLaneMaxLevel, which both entry points refuse with kCapability.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

/// Highest episode level the lane engine counts: the untracked refill is
/// unrolled over at most this many symbol columns, and a tracked lane's
/// one-hot state is one byte.
inline constexpr int kLaneMaxLevel = 8;

/// Count every episode by streaming `database` through the episode lanes, at
/// the widest vector width this CPU runs.  Equals count_occurrences(episodes[i],
/// ...) element for element.  Episodes may mix levels.  Throws
/// gm::PreconditionError tagged ErrorCode::kCapability when expiry is enabled
/// or an episode is longer than kLaneMaxLevel.
[[nodiscard]] std::vector<std::int64_t> count_all_lanes(std::span<const Episode> episodes,
                                                        std::span<const Symbol> database,
                                                        Semantics semantics,
                                                        ExpiryPolicy expiry = {});

/// The instruction set count_all_lanes runs on this CPU: "avx2", or the
/// 16-byte baseline's "sse2", "neon" or "generic".
[[nodiscard]] std::string_view lane_isa();

/// The vector widths the lane kernel is built at.  count_all_lanes is
/// count_all_lanes_at the widest one lane_width_runs accepts.
enum class LaneWidth {
  kBaseline,  ///< 16 bytes: 64 lanes per block, on every CPU
  kAvx2,      ///< 32 bytes: 128 lanes per block, x86-64 builds on AVX2 CPUs
};

/// Whether this binary holds the `width` kernel and this CPU can run it.
[[nodiscard]] bool lane_width_runs(LaneWidth width);

/// count_all_lanes at one width, which must pass lane_width_runs (the
/// dispatcher's per-width entry point, public so tests reach every width).
[[nodiscard]] std::vector<std::int64_t> count_all_lanes_at(LaneWidth width,
                                                           std::span<const Episode> episodes,
                                                           std::span<const Symbol> database,
                                                           Semantics semantics,
                                                           ExpiryPolicy expiry = {});

/// Incremental lane counting with capture/resume: MultiCounter's contract on
/// the tracked lane kernel.  Feed batches with absolute positions, capture
/// progress() at any batch boundary and restore() it into a fresh counter.
/// Counts, states and first positions equal MultiCounter's after every batch,
/// for every semantics and expiry window, idle and level-1 episodes included.
/// Throws gm::PreconditionError tagged ErrorCode::kCapability for an episode
/// longer than kLaneMaxLevel.
class LaneCounter {
 public:
  /// At the widest width this CPU runs.  `episodes` is copied into columns.
  LaneCounter(std::span<const Episode> episodes, Semantics semantics, ExpiryPolicy expiry);

  /// At one width, which must pass lane_width_runs (the per-width entry
  /// point, public so tests reach every width).
  LaneCounter(LaneWidth width, std::span<const Episode> episodes, Semantics semantics,
              ExpiryPolicy expiry);

  LaneCounter(LaneCounter&&) noexcept;
  LaneCounter& operator=(LaneCounter&&) noexcept;
  ~LaneCounter();

  /// Reinstate captured per-episode progress (parallel to the construction
  /// episode list); in-flight matches re-arm their expiry from first_pos.
  void restore(std::span<const EpisodeProgress> progress);

  /// Feed a contiguous batch: symbols[i] is at absolute position
  /// start_pos + i, after every position fed so far.
  void advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos);

  /// Per-episode counts in construction order.
  [[nodiscard]] std::vector<std::int64_t> counts() const;

  /// Per-episode scan configuration, sufficient to restore() later.
  [[nodiscard]] std::vector<EpisodeProgress> progress() const;

  [[nodiscard]] std::size_t episode_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gm::core
