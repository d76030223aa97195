#include "core/scan_checkpoint.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace gm::core {
namespace {

/// The tracked lanes when they count every episode, else the flat scan.
std::variant<LaneCounter, MultiCounter> make_counter(std::span<const Episode> episodes,
                                                     Semantics semantics, ExpiryPolicy expiry) {
  gm::expects(expiry.window >= 0, "expiry window must be >= 0 (0 disables expiry)");
  const bool lanes = std::all_of(episodes.begin(), episodes.end(),
                                 [](const Episode& e) { return e.level() <= kLaneMaxLevel; });
  if (lanes) return LaneCounter(episodes, semantics, expiry);
  return MultiCounter(episodes, semantics, expiry);
}

}  // namespace

std::uint64_t stream_digest_extend(std::uint64_t digest, std::span<const Symbol> events) {
  for (const Symbol s : events) digest = stream_digest_step(digest, s);
  return digest;
}

StreamScan::StreamScan(std::vector<Episode> episodes, Semantics semantics, ExpiryPolicy expiry)
    : episodes_(std::move(episodes)),
      semantics_(semantics),
      expiry_(expiry),
      counter_(make_counter(episodes_, semantics_, expiry_)) {}

StreamScan::StreamScan(const ScanCheckpoint& checkpoint)
    : StreamScan(checkpoint.episodes, checkpoint.semantics, checkpoint.expiry) {
  gm::expects(checkpoint.high_water >= 0, "checkpoint high-water mark cannot be negative");
  for (const EpisodeProgress& p : checkpoint.progress) {
    gm::expects(p.count >= 0, "checkpoint occurrence count cannot be negative");
    gm::expects(p.state == 0 || (p.first_pos >= 0 && p.first_pos < checkpoint.high_water),
                "in-flight match starts at or beyond the checkpoint high-water mark");
  }
  // restore() refuses a progress list that is not parallel to the episodes
  // or a state outside an episode's automaton.
  std::visit([&](auto& counter) { counter.restore(checkpoint.progress); }, counter_);
  high_water_ = checkpoint.high_water;
}

StreamScan::StreamScan(StreamScan&&) noexcept = default;
StreamScan& StreamScan::operator=(StreamScan&&) noexcept = default;
StreamScan::~StreamScan() = default;

void StreamScan::feed(std::span<const Symbol> events) {
  gm::expects(events.size() <= static_cast<std::uint64_t>(
                                   std::numeric_limits<std::int64_t>::max() - high_water_),
              "stream positions would overflow int64");
  std::visit([&](auto& counter) { counter.advance_batch(events, high_water_); }, counter_);
  high_water_ += static_cast<std::int64_t>(events.size());
}

ScanCheckpoint StreamScan::checkpoint(std::uint64_t generation) const {
  ScanCheckpoint out;
  out.semantics = semantics_;
  out.expiry = expiry_;
  out.high_water = high_water_;
  out.generation = generation;
  out.episodes = episodes_;
  out.progress = std::visit([](const auto& counter) { return counter.progress(); }, counter_);
  return out;
}

std::vector<std::int64_t> StreamScan::counts() const {
  return std::visit([](const auto& counter) { return counter.counts(); }, counter_);
}

std::vector<std::int64_t> resume_scan(const ScanCheckpoint& checkpoint,
                                      std::span<const Symbol> new_events) {
  StreamScan scan(checkpoint);
  scan.feed(new_events);
  return scan.counts();
}

}  // namespace gm::core
