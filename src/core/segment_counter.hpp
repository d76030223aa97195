// Chunked (segmented) episode counting and boundary-spanning correction.
//
// The paper's block-level algorithms split the database across the threads of
// a block; occurrences spanning a chunk boundary are missed unless an
// "intermediate step between map and reduce" recovers them (paper Figure 5).
// Two strategies are implemented:
//
//  * kStateComposition (exact, default): every chunk computes its transfer
//    function — for each possible automaton entry state, the occurrences
//    completed inside the chunk and the exit state.  Folding the transfer
//    functions left to right yields exactly the serial count.  Cost is
//    O(chunk * (L+1)) per chunk, so the fix-up work grows with both the
//    number of boundaries and the level, matching the paper's C3.
//
//  * kOverlapRescan (approximation): each boundary is patched by rescanning
//    a window of W symbols across it, counting occurrences that start in the
//    left chunk and end in the right one.  It misses occurrences spanning
//    more than W symbols and its fresh-automaton greedy consumption near a
//    boundary can disagree with the serial automaton's, so it is close to
//    but not exactly the serial count even when W bounds the span (expiry).
//    It models the paper's lightweight "intermediate step" and quantifies
//    the accuracy/cost trade-off against composition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

enum class SpanningFix {
  kNone,              ///< chunks counted independently; spanning occurrences lost
  kStateComposition,  ///< exact transfer-function composition
  kOverlapRescan,     ///< approximate boundary-window rescan
};

[[nodiscard]] std::string to_string(SpanningFix fix);

/// Scan database[begin, end) with the automaton entering in `entry_state`
/// (whose first matched symbol was at absolute `entry_first_pos`).  Returns
/// the occurrences completed inside the chunk and the automaton's exit
/// configuration (state, and the absolute position backing it).
[[nodiscard]] EpisodeProgress scan_segment(std::span<const Symbol> episode, Semantics semantics,
                                           ExpiryPolicy expiry, std::span<const Symbol> database,
                                           std::int64_t begin, std::int64_t end, int entry_state,
                                           std::int64_t entry_first_pos);

/// Transfer function of one chunk: outcome for every entry state 0..L-1.
/// (Entry state L never occurs: the automaton resets upon acceptance.)
struct SegmentTransfer {
  std::vector<EpisodeProgress> by_entry_state;
};

[[nodiscard]] SegmentTransfer segment_transfer(std::span<const Symbol> episode,
                                               Semantics semantics, ExpiryPolicy expiry,
                                               std::span<const Symbol> database,
                                               std::int64_t begin, std::int64_t end);

/// Count an episode over `database` split into `chunks` equal parts using the
/// selected spanning strategy.  With kStateComposition the result equals
/// count_occurrences() for every input; the others are documented
/// approximations.  `overlap_window` is used by kOverlapRescan (defaults to
/// the expiry window when enabled, else 2*L).
[[nodiscard]] std::int64_t count_chunked(const Episode& episode,
                                         std::span<const Symbol> database, int chunks,
                                         Semantics semantics, ExpiryPolicy expiry,
                                         SpanningFix fix,
                                         std::int64_t overlap_window = 0);

/// Exact fold of cold-start chunk scans over a window of the stream — the
/// recombination primitive of the stream-chunk map (count_all_stream_chunks,
/// behind cpu-parallel and distrib-gpu) and the stream assembler, and the
/// piece that makes database-partitioned counting exact UNDER EXPIRY (where
/// blind transfer-function composition is not well-defined: a nonzero entry
/// state carries an absolute first-match position the cold scan could not
/// know).
///
/// `events` holds positions [base, base + events.size()) of the stream,
/// `bounds` are absolute chunk boundaries with `bounds.front() == base`, and
/// `cold[c]` is chunk [bounds[c], bounds[c+1]) scanned from entry state 0
/// with ABSOLUTE positions — a core::MultiCounter reset and advanced over
/// the chunk at its offset, whose progress() is exactly that record.  The
/// fold enters the first chunk in `entry` — typically a checkpoint's
/// progress, or the default (idle) record for a whole database with `base`
/// 0 — and threads the true entry state through in chunk order: a chunk
/// entered in state 0 reuses the cold outcome verbatim (state 0 carries no
/// position, so cold entry IS the true entry); otherwise the true automaton
/// and a cold twin replay the chunk in lockstep until their configurations
/// coincide — equal state, and equal first-match position whenever the
/// state is nonzero and expiry makes positions matter — after which their
/// futures are identical, so the cold outcome's remaining completions (cold
/// count minus the twin's completions so far) are credited and the chunk's
/// cold exit adopted.  A chunk where they never converge was re-scanned
/// whole by the true automaton, which is simply the serial scan.
///
/// Returns the occurrences completed inside the window; `exit`, when
/// non-null, receives the progress the next window resumes from (its count
/// is `entry.count` plus the window's completions).  Exact for all
/// semantics x expiry combinations.  `rescanned_symbols`, when non-null,
/// receives the number of lockstep-replayed symbols (the fix-up work the
/// cpu-parallel cost model charges for).
[[nodiscard]] std::int64_t fold_cold_scans(std::span<const Symbol> episode,
                                           Semantics semantics, ExpiryPolicy expiry,
                                           std::span<const Symbol> events, std::int64_t base,
                                           std::span<const std::int64_t> bounds,
                                           std::span<const EpisodeProgress> cold,
                                           EpisodeProgress entry, EpisodeProgress* exit,
                                           std::int64_t* rescanned_symbols = nullptr);

/// Occurrences crossing `bound` (start < bound <= end < next_bound), found by
/// a fresh-automaton rescan of [bound-window, bound+window).  The shared
/// primitive behind the overlap-rescan fix; the GPU kernels implement the
/// identical loop with hardware-cost charging.
[[nodiscard]] std::int64_t count_boundary_crossers(std::span<const Symbol> episode,
                                                   Semantics semantics, ExpiryPolicy expiry,
                                                   std::span<const Symbol> database,
                                                   std::int64_t bound, std::int64_t next_bound,
                                                   std::int64_t window);

/// Count with an explicit boundary list (bounds.front() == 0,
/// bounds.back() == database.size(), non-decreasing).  This is the primitive
/// the GPU kernels are validated against: pass the same geometry the kernel
/// used and the results must agree element-for-element.
[[nodiscard]] std::int64_t count_with_boundaries(const Episode& episode,
                                                 std::span<const Symbol> database,
                                                 const std::vector<std::int64_t>& bounds,
                                                 Semantics semantics, ExpiryPolicy expiry,
                                                 SpanningFix fix,
                                                 std::int64_t overlap_window = 0);

/// [begin, end) of part `k` when `size` elements are split into `parts`
/// equal parts, the remainder spread over the lowest parts.  The one
/// equal-split rule: chunk_boundaries, the GPU kernels' thread and block
/// slices and their workload models all use it, so every implementation
/// agrees on the geometry.
struct ChunkRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t size() const noexcept { return end - begin; }
};
[[nodiscard]] inline ChunkRange chunk_range(std::int64_t size, int parts, int k) noexcept {
  const std::int64_t base = size / parts;
  const std::int64_t extra = size % parts;
  ChunkRange r;
  r.begin = k * base + std::min<std::int64_t>(k, extra);
  r.end = r.begin + base + (k < extra ? 1 : 0);
  return r;
}

/// The `chunks` + 1 boundaries of chunk_range's split of `size` symbols.
[[nodiscard]] std::vector<std::int64_t> chunk_boundaries(std::int64_t size, int chunks);

/// The boundary list the buffered block kernel (Algorithm 4) induces: the
/// database is staged `buffer_symbols` at a time and each staged buffer is
/// split across `threads` slices.
[[nodiscard]] std::vector<std::int64_t> buffered_slice_boundaries(std::int64_t size,
                                                                  std::int64_t buffer_symbols,
                                                                  int threads);

}  // namespace gm::core
