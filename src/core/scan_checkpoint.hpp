// Resumable scan checkpoints: pause a multi-episode counting scan anywhere in
// the stream, serialize it, and continue later bit-exactly.
//
// Why this is possible at all: a serial episode automaton's future depends
// only on (state, first_match_pos) — expiry is evaluated at step time from
// first_pos, never from hidden timers — so a scan over N episodes is fully
// determined by N `EpisodeProgress` records plus the next stream position.
// The capture names no engine: it is the serial automata's own state, which
// both incremental engines hold episode for episode.  StreamScan counts on
// the tracked episode lanes (core/lane_counter) whenever every episode is at
// most kLaneMaxLevel long, and on the flat single scan (core/multi_counter)
// otherwise; either restores the other's captures.
//
// A `ScanCheckpoint` bundles the progress records with everything needed to
// refuse a bogus resume: the scan parameters (semantics + expiry), the
// episode list itself, the event high-water mark (count of consumed events ==
// the next absolute position), an FNV-1a digest of the consumed prefix, and
// the caller's database generation.  `StreamScan` is the live object:
// construct fresh or from a checkpoint, `feed()` event batches as they
// arrive, `checkpoint()` at any batch boundary.  It keeps no digest: the
// stream's owner digests each event once for all of its scans and stamps the
// checkpoints it hands out (service::MiningSession, distrib::StreamAssembler).
//
// Mid-window captures are first-class: an in-flight match whose expiry
// deadline lies beyond the checkpoint re-arms on restore from its absolute
// first_pos, so a window straddling the pause fires at exactly the position
// it would have in an uninterrupted scan.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/episode.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"

namespace gm::core {

/// A paused scan, serializable.  `high_water` is the number of events
/// consumed so far (== the absolute position the next fed event must carry);
/// `prefix_digest` is FNV-1a over those events' symbols, stamped by the
/// stream's owner (StreamScan::checkpoint() leaves it 0), so a resume against
/// a database whose retained prefix changed is refused by callers that track
/// digests; `generation` is whatever database version tag the caller wants
/// round-tripped (the service layer stores its session generation here).
struct ScanCheckpoint {
  Semantics semantics = Semantics::kNonOverlappedSubsequence;
  ExpiryPolicy expiry;
  std::int64_t high_water = 0;
  std::uint64_t prefix_digest = 0;
  std::uint64_t generation = 0;
  std::vector<Episode> episodes;
  std::vector<EpisodeProgress> progress;  // parallel to `episodes`
};

/// FNV-1a seed for an empty event prefix.
[[nodiscard]] constexpr std::uint64_t stream_digest_seed() noexcept {
  return 14695981039346656037ull;
}

/// Extends a running FNV-1a event digest by one event: the one definition of
/// the stream digest, inline so an owner's per-event loop can carry it.
[[nodiscard]] constexpr std::uint64_t stream_digest_step(std::uint64_t digest,
                                                         Symbol event) noexcept {
  return (digest ^ static_cast<std::uint64_t>(event)) * 1099511628211ull;
}

/// Extends a running FNV-1a event digest by one batch.  Chunked digesting is
/// associative-by-concatenation: digesting a stream in any batching yields
/// the same value as one pass.
[[nodiscard]] std::uint64_t stream_digest_extend(std::uint64_t digest,
                                                 std::span<const Symbol> events);

/// Incremental multi-episode scan with capture/resume.  Owns its episode
/// list, so checkpoints and the object itself outlive the caller's storage.
class StreamScan {
 public:
  /// A fresh scan positioned before the first event.  A negative expiry
  /// window is refused.
  StreamScan(std::vector<Episode> episodes, Semantics semantics, ExpiryPolicy expiry);

  /// Continues a captured scan.  Validates internal consistency (progress
  /// parallel to episodes, counts non-negative, states inside each
  /// episode's automaton, in-flight first positions before the high-water
  /// mark) and ignores `prefix_digest`: database prefix identity is the
  /// stream owner's check.
  explicit StreamScan(const ScanCheckpoint& checkpoint);

  StreamScan(StreamScan&&) noexcept;
  StreamScan& operator=(StreamScan&&) noexcept;
  ~StreamScan();

  /// Consumes the next batch of events; positions continue from the
  /// high-water mark, so feeding a stream in any batching is bit-exact with
  /// one uninterrupted scan.
  void feed(std::span<const Symbol> events);

  /// Captures the paused scan.  `generation` is round-tripped verbatim;
  /// `prefix_digest` is left 0 for the stream's owner to stamp.
  [[nodiscard]] ScanCheckpoint checkpoint(std::uint64_t generation = 0) const;

  /// Per-episode occurrence counts over everything fed so far, in episode
  /// order — exactly `count_occurrences(episodes[i], prefix, ...)`.
  [[nodiscard]] std::vector<std::int64_t> counts() const;

  [[nodiscard]] std::span<const Episode> episodes() const { return episodes_; }
  [[nodiscard]] Semantics semantics() const { return semantics_; }
  [[nodiscard]] ExpiryPolicy expiry() const { return expiry_; }
  [[nodiscard]] std::int64_t high_water() const { return high_water_; }

 private:
  std::vector<Episode> episodes_;
  Semantics semantics_ = Semantics::kNonOverlappedSubsequence;
  ExpiryPolicy expiry_;
  std::int64_t high_water_ = 0;
  // Built from episodes_, so declared after it.
  std::variant<LaneCounter, MultiCounter> counter_;
};

/// One-shot resume: restores `checkpoint`, feeds `new_events`, and returns
/// the per-episode counts over prefix + new_events.  Bit-exact with a full
/// recount of the concatenated stream, for every semantics and expiry.
[[nodiscard]] std::vector<std::int64_t> resume_scan(const ScanCheckpoint& checkpoint,
                                                    std::span<const Symbol> new_events);

}  // namespace gm::core
