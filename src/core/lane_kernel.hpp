// The episode-lane kernel body, compiled once per vector width: at 16 bytes
// inside core/lane_counter.cpp (SSE2 on x86-64, NEON on AArch64, no -march
// flag), and on x86-64 builds at 32 bytes in core/lane_kernel_avx2.cpp, the
// one file built with -mavx2.  count_all_lanes (core/lane_counter.hpp) lays
// the episodes out in this header's columns and runs the widest kernel the
// CPU supports.
//
// Freestanding on purpose: no standard library beyond <cstddef>/<cstdint>,
// no core types, raw pointers only.  Any inline function the AVX2 file
// instantiated from <vector>, <span> or core/episode.hpp would be emitted
// there as an AVX2-encoded weak symbol the linker may keep for the whole
// program.  For the same reason the kernel templates below have internal
// linkage: each including file compiles its own copy for its own ISA.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(__GNUC__)
#error "core/lane_kernel.hpp needs GCC or Clang vector extensions (vector_size)"
#endif

namespace gm::core::lanes {

/// Highest episode level the kernel counts (core::kLaneMaxLevel).
inline constexpr int kMaxLevel = 8;

/// Vectors per register block: a block holds 4 x 16 lanes at the baseline
/// width and 4 x 32 with AVX2.
inline constexpr int kVectors = 4;

/// A register block is kColumns byte columns, one byte per lane, so vector v
/// of a column holds lanes v * vector-bytes onward.  Column 0 holds each
/// lane's first symbol, column k (1..kMaxLevel-1) its symbol k xor symbol 0
/// (0 past its level), so the refill starts from column 0 and toggles in
/// exactly the column the lane's state selects.  Padding lanes have level 1
/// and await symbol 0.
enum Column : int {
  kLengthColumn = kMaxLevel,  ///< each lane's level
  kStateColumn,               ///< automaton state, carried between runs
  kWaitColumn,                ///< awaited symbol, carried between runs
  kColumns,
};

/// One count over block_count register blocks, in the same layout at every
/// width.  `columns` is block_count x kColumns x (kVectors x vector-bytes)
/// bytes on a 64-byte boundary; the kernel loads whole aligned vectors from
/// it and leaves the carried columns at their final state.
struct Job {
  std::uint8_t* columns = nullptr;
  /// Per block: its longest episode, 1..kMaxLevel.
  const std::uint8_t* levels = nullptr;
  std::size_t block_count = 0;
  const std::uint8_t* database = nullptr;
  std::size_t events = 0;
  /// Contiguous-restart semantics; otherwise non-overlapped subsequence.
  bool contiguous = false;
  /// block_count x lanes completion counts, added to.
  std::int64_t* totals = nullptr;
};

/// The 32-byte kernel, defined in core/lane_kernel_avx2.cpp on x86-64
/// builds.  Callers must first check that the CPU supports AVX2.
void scan_avx2(const Job& job);

namespace {

/// uint8 lane vectors.  The alignment is explicit because GCC aligns a
/// vector_size(32) type to 16 bytes in a file compiled without AVX.
template <int kBytes>
struct VectorOf;
template <>
struct VectorOf<16> {
  using type = std::uint8_t __attribute__((vector_size(16), aligned(16)));
};
template <>
struct VectorOf<32> {
  using type = std::uint8_t __attribute__((vector_size(32), aligned(32)));
};
template <int kBytes>
using Vector = typename VectorOf<kBytes>::type;

/// Events per run: a lane completes at most once per event, so its uint8
/// completion counter cannot wrap before the flush.
constexpr std::size_t kRunEvents = 255;

/// `v` in every lane, spelled as a vector literal: GCC and Clang differ on
/// implicit scalar-to-vector conversions, so `Vector{} + v` is not portable.
template <int kBytes>
Vector<kBytes> splat(std::uint8_t v) {
  if constexpr (kBytes == 16) {
    return Vector<16>{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v};
  } else {
    static_assert(kBytes == 32);
    return Vector<32>{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v,
                      v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v};
  }
}

/// A register block's columns as vectors.
template <int kBytes>
struct Block {
  Vector<kBytes> column[kColumns][kVectors];
};

/// Step one block through one run of broadcast events, then flush its uint8
/// completion counters into `totals` (the block's kVectors x kBytes counts).
/// kLevels is the block's longest episode, so the refill is unrolled over
/// exactly the columns in use.
template <int kBytes, int kLevels, bool kContiguous>
void scan_run(Block<kBytes>& block, const Vector<kBytes>* events, std::size_t run,
              std::int64_t* totals) {
  using Lanes = Vector<kBytes>;
  // Lane masks are 0xFF where equal; vector comparisons yield signed lanes.
  const auto equal = [](Lanes a, Lanes b) { return (Lanes)(a == b); };
  const Lanes one = splat<kBytes>(1);
  const auto& first = block.column[0];
  const auto& length = block.column[kLengthColumn];
  Lanes state[kVectors] = {};
  Lanes wait[kVectors] = {};
  for (int v = 0; v < kVectors; ++v) {
    state[v] = block.column[kStateColumn][v];
    wait[v] = block.column[kWaitColumn][v];
  }
  Lanes hits[kVectors] = {};
  for (std::size_t i = 0; i < run; ++i) {
    const Lanes event = events[i];
    for (int v = 0; v < kVectors; ++v) {
      const Lanes match = equal(wait[v], event);
      Lanes next;
      if constexpr (kContiguous) {
        // Figure 3: a mismatch falls back to start, or to state 1 when the
        // event equals the first symbol.  Idle lanes await column 0, so for
        // them `restart` is always empty.
        const Lanes restart = equal(first[v], event) & ~match;
        next = ((state[v] + one) & match) | (restart & one);
      } else {
        next = state[v] - match;  // match lanes are 0xFF: state + 1
      }
      const Lanes done = equal(next, length[v]);
      hits[v] -= done;
      next &= ~done;
      Lanes awaited = first[v];
      for (int k = 1; k < kLevels; ++k) {
        awaited ^= block.column[k][v] & equal(next, splat<kBytes>(static_cast<std::uint8_t>(k)));
      }
      state[v] = next;
      wait[v] = awaited;
    }
  }
  for (int v = 0; v < kVectors; ++v) {
    block.column[kStateColumn][v] = state[v];
    block.column[kWaitColumn][v] = wait[v];
    for (int j = 0; j < kBytes; ++j) totals[v * kBytes + j] += hits[v][j];
  }
}

template <int kBytes>
using ScanFn = void (*)(Block<kBytes>&, const Vector<kBytes>*, std::size_t, std::int64_t*);

/// The scan_run of a block whose longest episode is `levels`.
template <int kBytes, bool kContiguous, int kLevels = 1>
ScanFn<kBytes> scan_for(int levels) {
  if constexpr (kLevels < kMaxLevel) {
    if (levels > kLevels) return scan_for<kBytes, kContiguous, kLevels + 1>(levels);
  }
  return &scan_run<kBytes, kLevels, kContiguous>;
}

/// Count `job` at kBytes-wide vectors.  Runs outermost: each run's events
/// are broadcast once, then every block steps through them with its automata
/// held in registers.
template <int kBytes>
void scan(const Job& job) {
  static_assert(sizeof(Block<kBytes>) == std::size_t{kColumns} * kVectors * kBytes);
  constexpr std::size_t kLanes = std::size_t{kVectors} * kBytes;
  // Copied out of `job`: stores through uint8 vectors may alias anything.
  auto* const blocks = reinterpret_cast<Block<kBytes>*>(job.columns);
  const std::size_t block_count = job.block_count;
  const std::uint8_t* const database = job.database;
  const std::size_t events = job.events;
  Vector<kBytes> broadcast[kRunEvents] = {};
  for (std::size_t at = 0; block_count > 0 && at < events; at += kRunEvents) {
    const std::size_t run = events - at < kRunEvents ? events - at : kRunEvents;
    for (std::size_t i = 0; i < run; ++i) broadcast[i] = splat<kBytes>(database[at + i]);
    for (std::size_t b = 0; b < block_count; ++b) {
      const ScanFn<kBytes> scan_fn = job.contiguous ? scan_for<kBytes, true>(job.levels[b])
                                                    : scan_for<kBytes, false>(job.levels[b]);
      scan_fn(blocks[b], broadcast, run, job.totals + b * kLanes);
    }
  }
}

}  // namespace
}  // namespace gm::core::lanes
