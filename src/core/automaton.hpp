// Episode-counting finite state machines (paper Figure 3).
//
// Two counting semantics are provided because the paper is ambiguous:
//
//  * kNonOverlappedSubsequence (default): the automaton waits in its current
//    state until the next episode symbol arrives (occurrences are
//    subsequences, matching the paper's formal definition in section 3.1);
//    on completion it resets, so occurrences are counted greedily without
//    overlap.  This is the Patnaik/Sastry/Unnikrishnan frequent-episode
//    semantics from the neuroscience literature the paper builds on.
//
//  * kContiguousRestart: a literal reading of Figure 3's FSM, whose mismatch
//    edges fall back to `start` (or to state 1 when the mismatching symbol
//    equals a1).  This counts contiguous occurrences, like naive string
//    matching.
//
// Episode expiration (paper section 6, future work) is supported by both:
// an in-progress match is abandoned when the window from its first matched
// symbol reaches `window` positions; the current symbol may immediately
// start a fresh match.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/episode.hpp"

namespace gm::core {

enum class Semantics {
  kNonOverlappedSubsequence,
  kContiguousRestart,
};

[[nodiscard]] std::string to_string(Semantics semantics);

/// Episode expiration: an occurrence is valid only when
/// (last index - first index) < window.  Disabled when window == 0.
struct ExpiryPolicy {
  std::int64_t window = 0;

  [[nodiscard]] bool enabled() const noexcept { return window > 0; }
  friend bool operator==(ExpiryPolicy, ExpiryPolicy) = default;
};

/// One episode's scan configuration: the automaton state (matched symbols +
/// absolute first-match position) plus the occurrences completed so far.
/// The one per-episode scan record: cold chunk scans, the exact fold, and
/// the ScanCheckpoint a stream persists all carry it — the automaton's
/// future depends on nothing else, which is what makes captured scans
/// resumable bit-exactly.
struct EpisodeProgress {
  std::int64_t count = 0;
  std::int64_t first_pos = 0;
  int state = 0;

  friend bool operator==(const EpisodeProgress&, const EpisodeProgress&) = default;
};

/// Deterministic automaton tracking one episode through a symbol stream.
///
/// `state` counts matched symbols (0 = start, level = accepted-and-reset).
/// The automaton is deliberately tiny and copyable: GPU kernels instantiate
/// one per (thread, episode).
class EpisodeAutomaton {
 public:
  EpisodeAutomaton(std::span<const Symbol> episode, Semantics semantics,
                   ExpiryPolicy expiry = {}) noexcept
      : episode_(episode), semantics_(semantics), expiry_(expiry) {}

  /// Feed the symbol at absolute position `pos`; returns true when an
  /// occurrence completed at this symbol.
  bool step(Symbol s, std::int64_t pos) noexcept {
    if (expiry_.enabled() && state_ > 0 && pos - first_pos_ >= expiry_.window) {
      // The running match can no longer finish inside the window; abandon it
      // and let the current symbol start a fresh match.
      state_ = 0;
    }
    const auto level = static_cast<int>(episode_.size());
    if (s == episode_[static_cast<std::size_t>(state_)]) {
      if (state_ == 0) first_pos_ = pos;
      ++state_;
      if (state_ == level) {
        state_ = 0;
        return true;
      }
      return false;
    }
    if (semantics_ == Semantics::kContiguousRestart && state_ != 0) {
      // Figure 3: mismatches fall back to start, except that a symbol equal
      // to a1 restarts the match at state 1.
      if (s == episode_[0]) {
        state_ = 1;
        first_pos_ = pos;
        // A level-1 episode completes immediately (handled above since
        // state_ == 0 would have matched); level >= 2 here.
      } else {
        state_ = 0;
      }
    }
    return false;
  }

  [[nodiscard]] int state() const noexcept { return state_; }
  [[nodiscard]] std::int64_t first_match_pos() const noexcept { return first_pos_; }

  /// Restore mid-stream progress (used by segment composition).
  void restore(int state, std::int64_t first_match_pos) noexcept {
    state_ = state;
    first_pos_ = first_match_pos;
  }

  void reset() noexcept {
    state_ = 0;
    first_pos_ = 0;
  }

 private:
  std::span<const Symbol> episode_;
  Semantics semantics_;
  ExpiryPolicy expiry_;
  int state_ = 0;
  std::int64_t first_pos_ = 0;
};

}  // namespace gm::core
