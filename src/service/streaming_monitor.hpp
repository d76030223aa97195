// Live alerting over an appended event stream.
//
// A StreamingMonitor watches one registered episode set with one incremental
// scan (core::StreamScan): every append batch advances the scan by exactly
// the new events — never a recount — and episodes whose occurrence count
// reaches the monitor's threshold raise an Alert on the batch that crossed
// it.  Counts are always exact: after any sequence of appends the monitor
// reports precisely what a from-scratch scan of the whole stream would, for
// every semantics x expiry, because the underlying engine is bit-exact
// resumable (see core/scan_checkpoint.hpp).
//
// Monitors checkpoint like any stream scan, so a session can persist them
// (service/checkpoint_store) and resume after a restart: restore verifies the
// stream prefix via the checkpoint digest, replays only the events appended
// since the capture, and re-derives alert state from the counts — an episode
// already over threshold at restore does not re-fire.  A monitor keeps no
// digest of its own: every monitor of a session reads the same stream, so
// the session digests each event once and stamps the snapshots it hands out.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/episode.hpp"
#include "core/scan_checkpoint.hpp"

namespace gm::service {

/// What to watch: an episode set under fixed scan parameters, alerting when
/// any episode's count reaches `threshold`.
///
/// `idle_eviction_generations`, when positive, evicts the in-flight partial
/// match of any episode whose count has not advanced for that many
/// consecutive append batches: the automaton drops back to idle (count and
/// alert latch untouched) so a long-dormant episode stops pinning mid-match
/// state.  Eviction is per-episode — the scan's automata are independent —
/// so episodes that keep advancing alert exactly as they would without
/// eviction; only a dormant episode can lose an occurrence that would have
/// straddled its idle stretch.  Zero disables eviction.  The setting is
/// persisted with the monitor, but the per-episode idle counters are not:
/// they restart at zero when a monitor is restored.
struct MonitorSpec {
  std::string name;
  std::vector<core::Episode> episodes;
  core::Semantics semantics = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry;
  std::int64_t threshold = 1;
  std::int64_t idle_eviction_generations = 0;
};

/// One threshold crossing.  `position` is the stream high-water mark after
/// the batch that fired it — the alert's detection latency against the
/// occurrence that crossed the threshold is bounded by that batch's size.
struct Alert {
  std::string monitor;
  std::size_t episode_index = 0;  ///< into MonitorSpec::episodes
  std::int64_t count = 0;         ///< count at detection
  std::int64_t position = 0;
  std::uint64_t generation = 0;   ///< database generation at detection
};

/// Per-batch progress record: how far the monitor has read and how many
/// occurrences the batch completed (across all watched episodes).
struct MonitorTick {
  std::int64_t position = 0;
  std::int64_t batch_events = 0;
  std::int64_t new_occurrences = 0;
};

class StreamingMonitor {
 public:
  /// A monitor positioned before the first event.  Callers registering
  /// against a non-empty stream feed the existing prefix via on_append (the
  /// session does this), so counts always cover the whole stream.
  explicit StreamingMonitor(MonitorSpec spec);

  /// Resumes a persisted monitor.  The checkpoint must carry exactly the
  /// spec's episode set and scan parameters; episodes already at threshold
  /// re-arm as fired so they do not alert again.
  StreamingMonitor(MonitorSpec spec, const core::ScanCheckpoint& checkpoint);

  /// Advance over one append batch; threshold crossings append to `alerts`.
  /// Counts only: the stream's owner digests the batch.
  void on_append(std::span<const core::Symbol> events, std::uint64_t generation,
                 std::vector<Alert>& alerts);

  [[nodiscard]] const MonitorSpec& spec() const { return spec_; }
  [[nodiscard]] std::vector<std::int64_t> counts() const { return scan_.counts(); }
  [[nodiscard]] std::int64_t high_water() const { return scan_.high_water(); }
  [[nodiscard]] const std::vector<MonitorTick>& ticks() const { return ticks_; }
  /// The scan's capture, `prefix_digest` 0 for the stream's owner to stamp.
  [[nodiscard]] core::ScanCheckpoint checkpoint(std::uint64_t generation = 0) const {
    return scan_.checkpoint(generation);
  }

  /// Total in-flight partial matches dropped by idle eviction so far.
  [[nodiscard]] std::int64_t idle_evictions() const { return idle_evictions_; }

 private:
  void arm_fired();
  void evict_idle();

  MonitorSpec spec_;
  core::StreamScan scan_;
  std::vector<bool> fired_;  ///< alert-once latch, derived from counts on restore
  std::vector<MonitorTick> ticks_;
  std::int64_t last_total_ = 0;
  std::vector<std::int64_t> idle_batches_;  ///< consecutive appends without a count advance
  std::vector<std::int64_t> last_counts_;
  std::int64_t idle_evictions_ = 0;
};

}  // namespace gm::service
