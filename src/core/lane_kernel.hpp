// The episode-lane kernel body, compiled once per vector width: at 16 bytes
// inside core/lane_counter.cpp (SSE2 on x86-64, NEON on AArch64, no -march
// flag), and on x86-64 builds at 32 bytes in core/lane_kernel_avx2.cpp, the
// one file built with -mavx2.  count_all_lanes and LaneCounter
// (core/lane_counter.hpp) lay the episodes out in this header's blocks and
// run the widest kernel the CPU supports.  It has two modes: the untracked
// four-vector kernel behind count_all_lanes, which refills each lane's
// awaited symbol from its symbol columns, and the tracked one-vector kernel
// behind LaneCounter, which keeps each lane's automaton one-hot and reads a
// per-block match table (the Shift-And form of the same automaton).
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

/// Vectors per untracked register block: 4 x 16 lanes at the baseline width
/// and 4 x 32 with AVX2.  Tracked blocks are one vector wide: their extra
/// per-lane registers would spill at four.
inline constexpr int kVectors = 4;

/// An untracked register block is kColumns byte columns, one byte per lane,
/// so vector v of a column holds lanes v * vector-bytes onward.  Column 0
/// holds each lane's first symbol, column k (1..kMaxLevel-1) its symbol k xor
/// symbol 0 (0 past its level), so the refill starts from column 0 and
/// toggles in exactly the column the lane's state selects.  Padding lanes
/// have level 1 and await symbol 0.
enum Column : int {
  kLengthColumn = kMaxLevel,  ///< each lane's level
  kStateColumn,               ///< automaton state, carried between runs
  kWaitColumn,                ///< awaited symbol, carried between runs
  kColumns,
};

/// A tracked block is kTableRow + Job::rows vectors, one byte per lane.  A
/// lane's state is one-hot: bit d is set when d symbols of its episode are
/// matched.  Bit d of its match-table row for symbol s is set when symbol d
/// of its episode is s.  The table has a row per symbol up to the largest
/// one the counter's episodes use, then one zero row that every larger
/// event reads.  Padding lanes have no table bits, so they never leave the
/// start state.
enum TrackedRow : int {
  kOneHotRow,  ///< one-hot automaton state, carried between runs
  kEndRow,     ///< the bit a completed match reaches: 1 << level, 0 at level 8
  kTableRow,   ///< symbol 0's match-table row; symbol s's is kTableRow + s
};

/// One count over block_count register blocks, in the same layout at every
/// width.  `columns` is block_count blocks on a 64-byte boundary; the kernel
/// loads whole aligned vectors from it and leaves the carried state at its
/// final value.
struct Job {
  /// Untracked: block_count x kColumns x (lanes per block) bytes.  Tracked:
  /// block_count x (kTableRow + rows) x (lanes per block) bytes.
  std::uint8_t* columns = nullptr;
  /// Untracked mode: per block, its longest episode, 1..kMaxLevel.
  const std::uint8_t* levels = nullptr;
  std::size_t block_count = 0;
  const std::uint8_t* database = nullptr;
  std::size_t events = 0;
  /// Contiguous-restart semantics; otherwise non-overlapped subsequence.
  bool contiguous = false;
  /// block_count x lanes completion counts, added to.
  std::int64_t* totals = nullptr;
  /// Tracked mode when set: blocks are one vector wide, and this holds
  /// block_count x lanes absolute match starts (the serial automaton's
  /// first_pos), read at each run start and rewritten at each run end.
  std::int64_t* first_pos = nullptr;
  /// Tracked mode: match-table rows per block, the largest episode symbol
  /// plus 2 (the zero row).
  std::size_t rows = 0;
  /// Tracked mode: the absolute stream position of database[0].
  std::int64_t base = 0;
  /// Tracked mode: the expiry window, 0 = none.  A match starting at p is
  /// abandoned at the first event at p + window or later.
  std::int64_t window = 0;
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
/// completion counter cannot wrap before the flush, and a run index fits a
/// uint8 with 0xFF to spare.
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

/// An untracked register block's columns as vectors, kVectors per column.
template <int kBytes>
struct Block {
  Vector<kBytes> column[kColumns][kVectors];
};

/// Lane masks are 0xFF where equal; vector comparisons yield signed lanes.
template <int kBytes>
Vector<kBytes> equal(Vector<kBytes> a, Vector<kBytes> b) {
  return (Vector<kBytes>)(a == b);
}

/// The symbol each lane awaits in automaton state `state`, from its block's
/// columns: column 0, toggled by column k where the state is k.
template <int kBytes, int kLevels>
Vector<kBytes> awaited(const Block<kBytes>& block, int v, Vector<kBytes> state) {
  Vector<kBytes> symbol = block.column[0][v];
  for (int k = 1; k < kLevels; ++k) {
    symbol ^= block.column[k][v] &
              equal<kBytes>(state, splat<kBytes>(static_cast<std::uint8_t>(k)));
  }
  return symbol;
}

/// Step one block through one run of broadcast events, then flush its uint8
/// completion counters into `totals` (the block's kVectors x kBytes counts).
/// kLevels is the block's longest episode, so the refill is unrolled over
/// exactly the columns in use.
template <int kBytes, int kLevels, bool kContiguous>
void scan_run(Block<kBytes>& block, const Vector<kBytes>* events, std::size_t run,
              std::int64_t* totals) {
  using Lanes = Vector<kBytes>;
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
      const Lanes match = equal<kBytes>(wait[v], event);
      Lanes next;
      if constexpr (kContiguous) {
        // Figure 3: a mismatch falls back to start, or to state 1 when the
        // event equals the first symbol.  Idle lanes await column 0, so for
        // them `restart` is always empty.
        const Lanes restart = equal<kBytes>(first[v], event) & ~match;
        next = ((state[v] + one) & match) | (restart & one);
      } else {
        next = state[v] - match;  // match lanes are 0xFF: state + 1
      }
      const Lanes done = equal<kBytes>(next, length[v]);
      hits[v] -= done;
      next &= ~done;
      state[v] = next;
      wait[v] = awaited<kBytes, kLevels>(block, v, next);
    }
  }
  for (int v = 0; v < kVectors; ++v) {
    block.column[kStateColumn][v] = state[v];
    block.column[kWaitColumn][v] = wait[v];
    for (int j = 0; j < kBytes; ++j) totals[v * kBytes + j] += hits[v][j];
  }
}

/// A compile-time bool argument for generic lambdas.
template <bool kValue>
struct Flag {
  static constexpr bool value = kValue;
};

/// Events from `base` until a match that started at `first_pos` expires
/// under `window`, clamped to 0..255: a clamped 255 cannot fire within one
/// run, whose indices stop at 254.  Overflow-safe for every int64 input.
inline std::uint8_t countdown(std::int64_t first_pos, std::int64_t window, std::int64_t base) {
  std::int64_t deadline = 0;
  std::int64_t left = 0;
  // window > 0, so only a deadline past INT64_MAX overflows: it never fires.
  if (__builtin_add_overflow(first_pos, window, &deadline)) return 255;
  if (__builtin_sub_overflow(deadline, base, &left)) return base > 0 ? 0 : 255;
  return left <= 0 ? 0 : left >= 255 ? 255 : static_cast<std::uint8_t>(left);
}

/// The tracked mode: one run of a one-vector block of one-hot automata,
/// which also records where each lane's match started and, when kExpiring,
/// expires matches.  `row` holds each event's match-table row.
///
/// Each event reads its table row T and advances the lanes whose awaited
/// symbol it is: adv = state & T is the state bit where they are, so
/// state + adv moves it up one.  A lane completes where that reaches its end
/// bit (1 << level wraps to 0 at level 8) and restarts at 1, nothing
/// matched.  Under contiguous restart a lane that cannot advance falls back
/// to 1, or to 2 when the event is its first symbol (Figure 3's mismatch
/// edge).
///
/// `since` counts the events since each lane's match started: a start zeroes
/// it, every event adds one, and `began` marks the lanes that started one in
/// this run.  At the run's end such a lane's match started at index
/// run - since, which the flush adds to base for its int64 first_pos.
///
/// Expiry compares `since` with the clamped window W after each event, so a
/// match started in this run is reset when it is W events old.  A match
/// carried in from an earlier run gets its countdown reloaded at the run
/// start instead, from first_pos + window - base clamped to 0..255: one due
/// now is reset there, and the others have their `since` offset to W minus
/// the countdown (mod 256), so it meets W at exactly that event.  A clamped
/// countdown of 255, like a window of 255 or more in a match started here,
/// cannot meet W within the run; the next run's reload sees it again.  So
/// every window is exact and no age is carried between runs.  Idle lanes
/// count on without meaning; resetting one does nothing.
///
/// The reset is applied one event early, with the completion reset, except
/// after the run's last event: the run may end a batch, and a checkpoint
/// must show the state the serial automaton still holds there.  The next
/// run's reload resets it instead.
template <int kBytes, bool kContiguous, bool kExpiring>
void scan_tracked_run(Vector<kBytes>* block, const std::uint16_t* row, std::size_t run,
                      std::int64_t* totals, std::int64_t* first_pos, std::int64_t base,
                      std::int64_t window) {
  using Lanes = Vector<kBytes>;
  const Lanes one = splat<kBytes>(1);
  const Lanes none = {};
  const Lanes end = block[kEndRow];
  const std::uint8_t clamped = window >= 255 ? 255 : static_cast<std::uint8_t>(window);
  Lanes state = block[kOneHotRow];
  Lanes since = {};
  if constexpr (kExpiring) {
    std::uint8_t lefts[kBytes];
    for (int j = 0; j < kBytes; ++j) lefts[j] = countdown(first_pos[j], window, base);
    Lanes left;
    __builtin_memcpy(&left, lefts, sizeof left);
    const Lanes due = equal<kBytes>(left, none) & ~equal<kBytes>(state, one);
    state = (state & ~due) - due;  // due lanes are 0xFF: 0 - 0xFF = 1
    since = splat<kBytes>(clamped) - left;
  }
  const Lanes lifetime = splat<kBytes>(clamped);
  Lanes began = {};
  Lanes hits = {};
  const auto step = [&](Lanes table, auto expire_next) {
    const Lanes adv = state & table;
    Lanes next = state + adv;
    Lanes started = equal<kBytes>(adv, one);
    if constexpr (kContiguous) {
      // A lane that cannot advance restarts at 1, or at 2 when the event is
      // its first symbol; a lane reaching 2 either way starts a new match.
      const Lanes stuck = equal<kBytes>(adv, none);
      next = (next & ~stuck) | ((one + (table & one)) & stuck);
      started = equal<kBytes>(next, one + one);
    }
    Lanes done = equal<kBytes>(next, end);
    hits -= done;
    since = (since & ~started) + one;
    began |= started;
    if constexpr (kExpiring && decltype(expire_next)::value) {
      done |= equal<kBytes>(since, lifetime);
    }
    state = (next & ~done) - done;  // done lanes restart at 1
  };
  for (std::size_t i = 0; i + 1 < run; ++i) step(block[row[i]], Flag<true>{});
  step(block[row[run - 1]], Flag<false>{});
  block[kOneHotRow] = state;
  for (int j = 0; j < kBytes; ++j) {
    totals[j] += hits[j];
    // Only a lane that began a match has since <= run.
    first_pos[j] = began[j] != 0 ? base + static_cast<std::int64_t>(run - since[j]) : first_pos[j];
  }
}

template <int kBytes>
using ScanFn = void (*)(Block<kBytes>&, const Vector<kBytes>*, std::size_t, std::int64_t*);
template <int kBytes>
using TrackedScanFn = void (*)(Vector<kBytes>*, const std::uint16_t*, std::size_t, std::int64_t*,
                               std::int64_t*, std::int64_t, std::int64_t);

/// The scan_run of a block whose longest episode is `levels`.
template <int kBytes, bool kContiguous, int kLevels = 1>
ScanFn<kBytes> scan_for(int levels) {
  if constexpr (kLevels < kMaxLevel) {
    if (levels > kLevels) return scan_for<kBytes, kContiguous, kLevels + 1>(levels);
  }
  return &scan_run<kBytes, kLevels, kContiguous>;
}

/// The scan_tracked_run for one semantics and expiry setting.
template <int kBytes>
TrackedScanFn<kBytes> tracked_scan_for(bool contiguous, bool expiring) {
  if (contiguous) {
    return expiring ? &scan_tracked_run<kBytes, true, true>
                    : &scan_tracked_run<kBytes, true, false>;
  }
  return expiring ? &scan_tracked_run<kBytes, false, true>
                  : &scan_tracked_run<kBytes, false, false>;
}

/// Count a tracked `job` at kBytes-wide vectors.  Runs outermost: each run's
/// events are turned into match-table rows once, then every block steps
/// through them with its automata held in registers.
template <int kBytes>
void scan_tracked(const Job& job) {
  using Lanes = Vector<kBytes>;
  const TrackedScanFn<kBytes> scan_fn = tracked_scan_for<kBytes>(job.contiguous, job.window > 0);
  // Copied out of `job`: stores through uint8 vectors may alias anything.
  Lanes* const blocks = reinterpret_cast<Lanes*>(job.columns);
  const std::size_t stride = kTableRow + job.rows;  // vectors per block
  const std::size_t block_count = job.block_count;
  const std::uint8_t* const database = job.database;
  const std::size_t events = job.events;
  std::int64_t* const totals = job.totals;
  std::int64_t* const first_pos = job.first_pos;
  const std::int64_t window = job.window;
  // Symbols past the table's last symbol row read its zero row.
  const std::size_t zero_row = stride - 1;
  std::uint16_t row[kRunEvents] = {};
  for (std::size_t at = 0; block_count > 0 && at < events; at += kRunEvents) {
    const std::size_t run = events - at < kRunEvents ? events - at : kRunEvents;
    for (std::size_t i = 0; i < run; ++i) {
      const std::size_t r = kTableRow + std::size_t{database[at + i]};
      row[i] = static_cast<std::uint16_t>(r < zero_row ? r : zero_row);
    }
    for (std::size_t b = 0; b < block_count; ++b) {
      scan_fn(blocks + b * stride, row, run, totals + b * kBytes, first_pos + b * kBytes,
              job.base + static_cast<std::int64_t>(at), window);
    }
  }
}

/// Count `job` at kBytes-wide vectors.  Runs outermost: each run's events
/// are broadcast once, then every block steps through them with its automata
/// held in registers.
template <int kBytes>
void scan(const Job& job) {
  static_assert(sizeof(Block<kBytes>) == std::size_t{kColumns} * kVectors * kBytes);
  if (job.first_pos != nullptr) {
    scan_tracked<kBytes>(job);
    return;
  }
  const std::size_t lanes = std::size_t{kVectors} * kBytes;
  // Copied out of `job`: stores through uint8 vectors may alias anything.
  std::uint8_t* const columns = job.columns;
  const std::size_t block_count = job.block_count;
  const std::uint8_t* const database = job.database;
  const std::size_t events = job.events;
  std::int64_t* const totals = job.totals;
  Vector<kBytes> broadcast[kRunEvents] = {};
  for (std::size_t at = 0; block_count > 0 && at < events; at += kRunEvents) {
    const std::size_t run = events - at < kRunEvents ? events - at : kRunEvents;
    for (std::size_t i = 0; i < run; ++i) broadcast[i] = splat<kBytes>(database[at + i]);
    for (std::size_t b = 0; b < block_count; ++b) {
      auto* const block = reinterpret_cast<Block<kBytes>*>(columns) + b;
      const ScanFn<kBytes> scan_fn = job.contiguous ? scan_for<kBytes, true>(job.levels[b])
                                                    : scan_for<kBytes, false>(job.levels[b]);
      scan_fn(*block, broadcast, run, totals + b * lanes);
    }
  }
}

}  // namespace
}  // namespace gm::core::lanes
