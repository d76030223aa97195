// Single-scan multi-episode counting engine.
//
// The serial reference (`count_all`) re-scans the full database once per
// episode, so level-L counting costs O(|DB| * |candidates|) automaton steps.
// This engine makes ONE pass over the event stream and advances *all* episode
// automata simultaneously through a symbol -> waiting-automata bucket index:
// each automaton is filed under the symbol it is currently waiting for, so the
// work per stream symbol is proportional to the automata actually awaiting
// that symbol (|candidates| / |alphabet| in expectation) instead of
// |candidates|.  This is the accelerator-oriented transformation of the
// counting step — one stream drive, many machines — applied on the host.
//
// The engine state is struct-of-arrays: per-episode records live in parallel
// arrays indexed by dense slot ids, episode symbols sit in one contiguous
// arena, and buckets are flat index vectors — nothing is allocated per event.
//
// Episode expiry (ExpiryPolicy) is handled with lazy deadlines: starting a
// match schedules `first_pos + window` on a monotone FIFO (pushes arrive in
// nondecreasing order because positions strictly increase), and before each
// stream position every automaton whose deadline has passed is reset and
// re-bucketed to await episode[0] again (it must be able to catch a fresh
// first symbol even though its old awaited symbol never arrived).  Each slot
// is filed in exactly one bucket with a backreference, so expiry moves it by
// O(1) swap-remove and buckets never hold stale entries.
//
// kContiguousRestart semantics are served by a dense per-episode path: its
// mismatch edges mean *every* symbol can transition any in-flight automaton,
// so a waiting-symbol index cannot skip work.  The dense path still reads the
// database once, stepping each automaton per symbol.
//
// The engine is exposed two ways: the one-shot `count_all_single_scan`
// function scans a complete span, and the incremental `MultiCounter` class
// feeds batches at absolute positions — the resumable object behind
// streaming scan checkpoints (core/scan_checkpoint.hpp), whose per-episode
// progress can be captured mid-stream and reinstated later to continue
// bit-exactly, and the distrib layer's one cold-scan map (a chunk scanned
// from a reset counter at its absolute offset yields the EpisodeProgress
// records core::fold_cold_scans recombines).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

/// Count every episode in one pass over `database`.  Exactly equals
/// `count_occurrences(episodes[i], ...)` element-for-element for all inputs.
[[nodiscard]] std::vector<std::int64_t> count_all_single_scan(
    std::span<const Episode> episodes, std::span<const Symbol> database, Semantics semantics,
    ExpiryPolicy expiry = {});

/// Incremental single-scan engine: feed the stream one symbol at a time via
/// `advance()` with absolute positions, capture `progress()` at any point,
/// and `restore()` it into a fresh counter to continue exactly where the
/// captured scan stopped.  Unlike the one-shot functions, expiry deadlines
/// use saturating arithmetic instead of a database-size clamp, so the engine
/// never needs to know the eventual stream length (behaviour is identical:
/// any window at least as long as the remaining stream can never fire).
class MultiCounter {
 public:
  /// `episodes` is viewed, not copied — the caller keeps it alive.
  MultiCounter(std::span<const Episode> episodes, Semantics semantics, ExpiryPolicy expiry);
  MultiCounter(MultiCounter&&) noexcept;
  MultiCounter& operator=(MultiCounter&&) noexcept;
  ~MultiCounter();

  /// Reinstate captured per-episode progress (parallel to the construction
  /// episode list).  Must be called before the first advance(); in-flight
  /// matches re-arm their expiry deadlines from the restored first_pos.
  void restore(std::span<const EpisodeProgress> progress);

  /// Feed the symbol at absolute position `pos` (strictly increasing).
  void advance(Symbol symbol, std::int64_t pos);

  /// Feed a contiguous batch: symbols[i] is at position start_pos + i.
  /// Exactly equivalent to advancing one symbol at a time, but lets the
  /// engine amortize dispatch — the dense path runs symbols innermost per
  /// slot so episode data stays register/L1-resident across the batch.
  void advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos);

  /// Reset to the freshly-constructed state (counts zeroed, every automaton
  /// idle) without releasing the arena: the episode pool, buckets, and
  /// deadline queue keep their capacity, so a worker can scan many chunks
  /// with zero per-chunk allocation.
  void reset();

  /// Per-episode counts in construction order.
  [[nodiscard]] std::vector<std::int64_t> counts() const;

  /// Per-episode scan configuration, sufficient to restore() later — exactly
  /// what the serial automaton holds after stepping the same positions, for
  /// idle episodes too (expiry resets happen at step time in both engines,
  /// and both keep first_pos across a reset).
  [[nodiscard]] std::vector<EpisodeProgress> progress() const;

  [[nodiscard]] std::size_t episode_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gm::core
