// Episode-lane counting engine: the paper's thread-level formulation
// (Algorithms 1-2, one thread per episode streaming the whole database)
// mapped onto host SIMD lanes — the accelerator-oriented transformation
// pointed back at the CPU.
//
// Layout.  Episodes are transposed into per-level uint8 symbol columns: lane
// j of column k holds symbol k of episode j, and a per-lane length column
// holds its level.  Each lane keeps a uint8 automaton state and the symbol it
// awaits.  For every event, all lanes compare their awaited symbol with it,
// advance their state, and refill the awaited symbol from the columns with
// branchless masks:
//
//   w = c0 ^ sum_k ((c0 ^ ck) & (state == k))       (XOR sum, k = 1..L-1)
//
// kContiguousRestart adds Figure 3's mismatch edge (fall back to start, or to
// state 1 when the event equals the first symbol) as one more mask.
//
// Register blocking.  Lanes are processed in blocks of 4 x 16: a block's
// states, awaited symbols and uint8 completion counters stay in registers
// across a run of at most 255 events (a lane completes at most once per
// event, so its counter cannot wrap), then the counters are flushed into the
// int64 totals.  Each run's events are broadcast into vectors once and
// shared by every block.
//
// Vector type.  Lanes are 16-byte GCC/Clang vector extensions, which lower to
// SSE2 on x86-64 and NEON on AArch64 with no intrinsics and no -march flag.
// Wider vectors are deliberately not used: without a matching target ISA the
// compiler splits them into scalar code.
//
// Scope.  Levels 1..kLaneMaxLevel and both counting semantics.  Expiry is a
// capability the engine does not have (it would need per-lane age counters),
// so expiry requests are refused with ErrorCode::kCapability rather than
// counted approximately.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

/// Highest episode level the lane engine counts: the awaited-symbol refill is
/// unrolled over at most this many symbol columns.
inline constexpr int kLaneMaxLevel = 8;

/// Episodes one register block advances per event (4 vectors x 16 lanes).
inline constexpr int kLaneBlock = 64;

/// Count every episode by streaming `database` through the episode lanes.
/// Equals count_occurrences(episodes[i], ...) element for element.  Episodes
/// may mix levels.  Throws gm::PreconditionError tagged ErrorCode::kCapability
/// when expiry is enabled or an episode is longer than kLaneMaxLevel.
[[nodiscard]] std::vector<std::int64_t> count_all_lanes(std::span<const Episode> episodes,
                                                        std::span<const Symbol> database,
                                                        Semantics semantics,
                                                        ExpiryPolicy expiry = {});

}  // namespace gm::core
