#include "service/streaming_monitor.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace gm::service {
namespace {

core::StreamScan make_scan(const MonitorSpec& spec) {
  gm::expects(!spec.episodes.empty(), "monitor must watch at least one episode");
  gm::expects(spec.threshold >= 1, "monitor threshold must be at least 1");
  return core::StreamScan(spec.episodes, spec.semantics, spec.expiry);
}

}  // namespace

StreamingMonitor::StreamingMonitor(MonitorSpec spec)
    : spec_(std::move(spec)),
      scan_(make_scan(spec_)),
      fired_(spec_.episodes.size(), false),
      idle_batches_(spec_.episodes.size(), 0),
      last_counts_(spec_.episodes.size(), 0) {}

StreamingMonitor::StreamingMonitor(MonitorSpec spec, const core::ScanCheckpoint& checkpoint)
    : spec_(std::move(spec)),
      scan_(checkpoint),
      fired_(spec_.episodes.size()),
      idle_batches_(spec_.episodes.size(), 0),
      last_counts_(spec_.episodes.size(), 0) {
  gm::expects(spec_.threshold >= 1, "monitor threshold must be at least 1");
  gm::expects(checkpoint.episodes.size() == spec_.episodes.size() &&
                  std::equal(checkpoint.episodes.begin(), checkpoint.episodes.end(),
                             spec_.episodes.begin()),
              "monitor checkpoint was captured for a different episode set");
  gm::expects(checkpoint.semantics == spec_.semantics &&
                  checkpoint.expiry.window == spec_.expiry.window,
              "monitor checkpoint was captured under different scan parameters");
  arm_fired();
}

void StreamingMonitor::arm_fired() {
  const std::vector<std::int64_t> counts = scan_.counts();
  last_total_ = std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  for (std::size_t i = 0; i < counts.size(); ++i) fired_[i] = counts[i] >= spec_.threshold;
  last_counts_ = counts;
}

void StreamingMonitor::evict_idle() {
  // Capture the scan, drop the partial match of every long-idle episode, and
  // restore.  The capture/restore path is the bit-exact one checkpoints use,
  // so untouched episodes resume precisely where they were.
  core::ScanCheckpoint ckpt = scan_.checkpoint();
  bool any = false;
  for (std::size_t i = 0; i < ckpt.progress.size(); ++i) {
    if (ckpt.progress[i].state == 0) continue;
    if (idle_batches_[i] < spec_.idle_eviction_generations) continue;
    ckpt.progress[i].state = 0;
    ckpt.progress[i].first_pos = 0;
    ++idle_evictions_;
    any = true;
  }
  if (any) scan_ = core::StreamScan(ckpt);
}

void StreamingMonitor::on_append(std::span<const core::Symbol> events,
                                 std::uint64_t generation, std::vector<Alert>& alerts) {
  scan_.feed(events);
  const std::vector<std::int64_t> counts = scan_.counts();
  const std::int64_t total = std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  ticks_.push_back({scan_.high_water(), static_cast<std::int64_t>(events.size()),
                    total - last_total_});
  last_total_ = total;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    idle_batches_[i] = counts[i] == last_counts_[i] ? idle_batches_[i] + 1 : 0;
    last_counts_[i] = counts[i];
    if (fired_[i] || counts[i] < spec_.threshold) continue;
    fired_[i] = true;
    alerts.push_back({spec_.name, i, counts[i], scan_.high_water(), generation});
  }
  if (spec_.idle_eviction_generations > 0) evict_idle();
}

}  // namespace gm::service
