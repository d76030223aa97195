#include "distrib/stream_fold.hpp"

#include <array>
#include <utility>

#include "common/error.hpp"
#include "core/multi_counter.hpp"
#include "core/segment_counter.hpp"

namespace gm::distrib {

ChunkScan cold_scan_chunk(std::span<const core::Episode> episodes, core::Semantics semantics,
                          core::ExpiryPolicy expiry, std::vector<core::Symbol> events,
                          std::int64_t base) {
  gm::expects(base >= 0, "chunk base position cannot be negative");
  ChunkScan chunk{base, std::move(events), {}};
  core::MultiCounter counter(episodes, semantics, expiry);
  counter.advance_batch(chunk.events, base);
  chunk.cold = counter.progress();
  return chunk;
}

StreamAssembler::StreamAssembler(std::vector<core::Episode> episodes,
                                 core::Semantics semantics, core::ExpiryPolicy expiry)
    : episodes_(std::move(episodes)),
      semantics_(semantics),
      expiry_(expiry),
      prefix_digest_(core::stream_digest_seed()),
      progress_(episodes_.size()) {}

StreamAssembler::StreamAssembler(const core::ScanCheckpoint& checkpoint)
    : episodes_(checkpoint.episodes),
      semantics_(checkpoint.semantics),
      expiry_(checkpoint.expiry),
      high_water_(checkpoint.high_water),
      prefix_digest_(checkpoint.prefix_digest),
      progress_(checkpoint.progress) {
  gm::expects(progress_.size() == episodes_.size(),
              "checkpoint progress must be parallel to its episode list");
}

std::size_t StreamAssembler::deliver(ChunkScan chunk) {
  gm::expects(chunk.cold.size() == episodes_.size(),
              "chunk cold outcomes must be parallel to the episode list");
  gm::expects(chunk.begin >= high_water_, "chunk overlaps the already-folded prefix");
  const std::int64_t end = chunk.begin + static_cast<std::int64_t>(chunk.events.size());
  // Reject overlap with parked neighbours: chunks must tile the stream.
  const auto next = pending_.lower_bound(chunk.begin);
  gm::expects(next == pending_.end() || end <= next->first,
              "chunk overlaps a parked chunk");
  if (next != pending_.begin()) {
    const auto prev = std::prev(next);
    gm::expects(prev->first + static_cast<std::int64_t>(prev->second.events.size()) <=
                    chunk.begin,
                "chunk overlaps a parked chunk");
  }
  const bool ready = chunk.begin == high_water_;
  pending_.emplace(chunk.begin, std::move(chunk));
  if (!ready) return 0;
  const std::size_t before = pending_.size();
  fold_ready();
  return before - pending_.size();
}

void StreamAssembler::fold_ready() {
  while (true) {
    const auto it = pending_.find(high_water_);
    if (it == pending_.end()) return;
    const ChunkScan& chunk = it->second;
    const std::int64_t end =
        chunk.begin + static_cast<std::int64_t>(chunk.events.size());
    const std::array<std::int64_t, 2> bounds{chunk.begin, end};
    for (std::size_t i = 0; i < episodes_.size(); ++i) {
      std::int64_t rescanned = 0;
      (void)core::fold_cold_scans(episodes_[i].symbols(), semantics_, expiry_, chunk.events,
                                  chunk.begin, bounds, {&chunk.cold[i], 1}, progress_[i],
                                  &progress_[i], &rescanned);
      rescanned_ += rescanned;
    }
    prefix_digest_ = core::stream_digest_extend(prefix_digest_, chunk.events);
    high_water_ = end;
    pending_.erase(it);
  }
}

std::vector<std::int64_t> StreamAssembler::counts() const {
  std::vector<std::int64_t> counts;
  counts.reserve(progress_.size());
  for (const core::EpisodeProgress& p : progress_) counts.push_back(p.count);
  return counts;
}

core::ScanCheckpoint StreamAssembler::checkpoint(std::uint64_t generation) const {
  core::ScanCheckpoint out;
  out.semantics = semantics_;
  out.expiry = expiry_;
  out.high_water = high_water_;
  out.prefix_digest = prefix_digest_;
  out.generation = generation;
  out.episodes = episodes_;
  out.progress = progress_;
  return out;
}

}  // namespace gm::distrib
