// Shard-local streaming scans recombined exactly, even when append batches
// reach shards out of order.
//
// In the distributed setting every shard owns a slice of the candidate set
// and scans the whole stream, but append batches travel through a queue per
// shard: batch 7 can land before batch 5.  A shard cannot advance its truth
// scan past a gap — episode automata are sequential — but it CAN cold-scan
// any batch the moment it arrives — on the single-scan engine, a fresh
// core::MultiCounter advanced at the batch's absolute positions — and park
// the EpisodeProgress records.  When the missing batches land,
// `fold_cold_scans`, entered in the truth scan's progress, stitches the
// parked cold records onto it in stream order: the truth automaton
// lockstep-replays each chunk only until it converges with the cold twin, so
// the out-of-order path re-touches a few symbols per boundary instead of
// rescanning the batches.
//
// `StreamAssembler` is that per-shard state machine: deliver chunks in ANY
// order, and counts()/checkpoint() always reflect exactly the contiguous
// stream prefix assembled so far — bit-exact with a single uninterrupted
// scan, for every semantics x expiry.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"
#include "core/scan_checkpoint.hpp"

namespace gm::distrib {

/// One stream slice scanned cold (fresh automata, absolute positions):
/// everything a shard can precompute about a batch before its predecessors
/// arrive.
struct ChunkScan {
  std::int64_t begin = 0;  ///< absolute position of events.front()
  std::vector<core::Symbol> events;
  std::vector<core::EpisodeProgress> cold;  ///< per episode, absolute first_pos
};

/// Cold-scans one batch for every episode on a fresh core::MultiCounter.
/// `base` is the batch's absolute stream position; the records carry
/// absolute first-match positions so they feed the fold directly.
[[nodiscard]] ChunkScan cold_scan_chunk(std::span<const core::Episode> episodes,
                                        core::Semantics semantics, core::ExpiryPolicy expiry,
                                        std::vector<core::Symbol> events, std::int64_t base);

/// Per-shard reassembly: accepts cold-scanned chunks in any order and folds
/// every contiguous prefix onto the truth state as soon as it exists.
class StreamAssembler {
 public:
  StreamAssembler(std::vector<core::Episode> episodes, core::Semantics semantics,
                  core::ExpiryPolicy expiry);

  /// Resumes from a checkpoint instead of stream position 0.
  explicit StreamAssembler(const core::ScanCheckpoint& checkpoint);

  /// Hands over one cold-scanned chunk.  Chunks must tile the stream exactly
  /// (each begin equals a past or future chunk's end); a chunk at a position
  /// already folded is rejected.  Returns the number of chunks folded into
  /// the truth state by this delivery (0 if the chunk was parked).
  std::size_t deliver(ChunkScan chunk);

  /// Counts over the contiguous prefix [0, high_water()) — exactly what an
  /// uninterrupted scan of that prefix yields.  Parked chunks beyond a gap
  /// are not included until the gap fills.
  [[nodiscard]] std::vector<std::int64_t> counts() const;

  /// Next absolute position the truth scan needs; chunks at this position
  /// fold immediately, later ones park.
  [[nodiscard]] std::int64_t high_water() const { return high_water_; }

  /// Number of chunks parked behind a gap.
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// Cumulative symbols lockstep-replayed by the folds — the out-of-order
  /// overhead (0 when every chunk arrives in order and enters in state 0).
  [[nodiscard]] std::int64_t rescanned_symbols() const { return rescanned_; }

  /// Checkpoint of the contiguous prefix; restores into StreamScan or
  /// another StreamAssembler.
  [[nodiscard]] core::ScanCheckpoint checkpoint(std::uint64_t generation = 0) const;

 private:
  void fold_ready();

  std::vector<core::Episode> episodes_;
  core::Semantics semantics_ = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry_;
  std::int64_t high_water_ = 0;
  std::uint64_t prefix_digest_ = 0;
  std::vector<core::EpisodeProgress> progress_;  ///< truth scan of the prefix
  std::map<std::int64_t, ChunkScan> pending_;    ///< keyed by absolute begin
  std::int64_t rescanned_ = 0;
};

}  // namespace gm::distrib
