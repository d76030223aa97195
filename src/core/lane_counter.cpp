#include "core/lane_counter.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/error.hpp"

#if !defined(__GNUC__)
#error "core/lane_counter.cpp needs GCC or Clang vector extensions (vector_size)"
#endif

namespace gm::core {
namespace {

/// Sixteen uint8 lanes: one SSE2 / NEON register.
using Lanes = std::uint8_t __attribute__((vector_size(16)));

constexpr int kWidth = static_cast<int>(sizeof(Lanes));
constexpr int kVectors = kLaneBlock / kWidth;
/// Events per run: a lane completes at most once per event, so its uint8
/// completion counter cannot wrap before the flush.
constexpr std::size_t kRunEvents = 255;

/// `v` in every lane, spelled as a vector literal: GCC and Clang differ on
/// implicit scalar-to-vector conversions, so `Lanes{} + v` is not portable.
Lanes splat(std::uint8_t v) { return Lanes{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v}; }

/// Lane mask (0xFF where equal).  Vector comparisons yield signed lanes.
Lanes equal(Lanes a, Lanes b) { return (Lanes)(a == b); }

/// One register block's transposed episodes.  `delta[k - 1]` is column k
/// xor column 0, so the refill starts from column 0 and toggles in exactly
/// the column the lane's state selects; columns past a lane's level are 0.
struct Block {
  Lanes first[kVectors] = {};
  Lanes delta[kLaneMaxLevel - 1][kVectors] = {};
  Lanes length[kVectors] = {};
};

/// A block's automata between runs: states and the symbols they await.
struct Carry {
  Lanes state[kVectors] = {};
  Lanes wait[kVectors] = {};
};

/// Step one block through one run of broadcast events, then flush its uint8
/// completion counters into `totals` (the block's kLaneBlock counts).
/// kLevels is the block's longest episode, so the refill is unrolled over
/// exactly the columns in use.
template <int kLevels, Semantics kSemantics>
void scan_run(const Block& block, Carry& carry, const Lanes* events, std::size_t run,
              std::int64_t* totals) {
  const Lanes one = splat(1);
  Lanes state[kVectors] = {};
  Lanes wait[kVectors] = {};
  for (int v = 0; v < kVectors; ++v) {
    state[v] = carry.state[v];
    wait[v] = carry.wait[v];
  }
  Lanes hits[kVectors] = {};
  for (std::size_t i = 0; i < run; ++i) {
    const Lanes event = events[i];
    for (int v = 0; v < kVectors; ++v) {
      const Lanes match = equal(wait[v], event);
      Lanes next;
      if constexpr (kSemantics == Semantics::kContiguousRestart) {
        // Figure 3: a mismatch falls back to start, or to state 1 when the
        // event equals the first symbol.  Idle lanes await column 0, so for
        // them `restart` is always empty.
        const Lanes restart = equal(block.first[v], event) & ~match;
        next = ((state[v] + one) & match) | (restart & one);
      } else {
        next = state[v] - match;  // match lanes are 0xFF: state + 1
      }
      const Lanes done = equal(next, block.length[v]);
      hits[v] -= done;
      next &= ~done;
      Lanes awaited = block.first[v];
      for (int k = 1; k < kLevels; ++k) {
        awaited ^= block.delta[k - 1][v] & equal(next, splat(static_cast<std::uint8_t>(k)));
      }
      state[v] = next;
      wait[v] = awaited;
    }
  }
  for (int v = 0; v < kVectors; ++v) {
    carry.state[v] = state[v];
    carry.wait[v] = wait[v];
    for (int j = 0; j < kWidth; ++j) totals[v * kWidth + j] += hits[v][j];
  }
}

using ScanFn = void (*)(const Block&, Carry&, const Lanes*, std::size_t, std::int64_t*);

template <Semantics kSemantics, std::size_t... kLevel>
constexpr std::array<ScanFn, sizeof...(kLevel)> scan_table(std::index_sequence<kLevel...>) {
  return {&scan_run<static_cast<int>(kLevel) + 1, kSemantics>...};
}

constexpr auto kSubsequenceScans = scan_table<Semantics::kNonOverlappedSubsequence>(
    std::make_index_sequence<kLaneMaxLevel>{});
constexpr auto kContiguousScans =
    scan_table<Semantics::kContiguousRestart>(std::make_index_sequence<kLaneMaxLevel>{});

}  // namespace

std::vector<std::int64_t> count_all_lanes(std::span<const Episode> episodes,
                                          std::span<const Symbol> database, Semantics semantics,
                                          ExpiryPolicy expiry) {
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

  const auto& scans =
      semantics == Semantics::kContiguousRestart ? kContiguousScans : kSubsequenceScans;
  const std::size_t n = episodes.size();
  const std::size_t block_count = (n + kLaneBlock - 1) / kLaneBlock;
  // Padded to whole blocks; padding lanes count symbol 0 and are dropped.
  std::vector<std::int64_t> totals(block_count * kLaneBlock, 0);
  std::vector<Block> blocks(block_count);
  std::vector<Carry> carries(block_count);
  std::vector<ScanFn> scan_fns(block_count);
  for (std::size_t b = 0; b < block_count; ++b) {
    Block& block = blocks[b];
    int levels = 1;
    for (int lane = 0; lane < kLaneBlock; ++lane) {
      const int v = lane / kWidth;
      const int j = lane % kWidth;
      const std::size_t e = b * kLaneBlock + static_cast<std::size_t>(lane);
      block.length[v][j] = 1;
      if (e >= n) continue;
      const std::span<const Symbol> symbols = episodes[e].symbols();
      levels = std::max(levels, static_cast<int>(symbols.size()));
      block.length[v][j] = static_cast<std::uint8_t>(symbols.size());
      block.first[v][j] = symbols[0];
      for (std::size_t k = 1; k < symbols.size(); ++k) {
        block.delta[k - 1][v][j] = static_cast<std::uint8_t>(symbols[0] ^ symbols[k]);
      }
    }
    for (int v = 0; v < kVectors; ++v) carries[b].wait[v] = block.first[v];
    scan_fns[b] = scans[static_cast<std::size_t>(levels - 1)];
  }

  // Runs outermost: each run's events are broadcast once, then every block
  // steps through them with its automata held in registers.
  Lanes events[kRunEvents] = {};
  for (std::size_t at = 0; block_count > 0 && at < database.size(); at += kRunEvents) {
    const std::size_t run = std::min(database.size() - at, kRunEvents);
    for (std::size_t i = 0; i < run; ++i) events[i] = splat(database[at + i]);
    for (std::size_t b = 0; b < block_count; ++b) {
      scan_fns[b](blocks[b], carries[b], events, run, totals.data() + b * kLaneBlock);
    }
  }
  totals.resize(n);
  return totals;
}

}  // namespace gm::core
