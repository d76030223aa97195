#include "core/scan_checkpoint.hpp"

#include <utility>

#include "common/error.hpp"

namespace gm::core {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

std::uint64_t stream_digest_seed() { return kFnvOffset; }

std::uint64_t stream_digest_extend(std::uint64_t digest, std::span<const Symbol> events) {
  for (const Symbol s : events) {
    digest ^= static_cast<std::uint64_t>(s);
    digest *= kFnvPrime;
  }
  return digest;
}

StreamScan::StreamScan(std::vector<Episode> episodes, Semantics semantics, ExpiryPolicy expiry)
    : episodes_(std::move(episodes)),
      semantics_(semantics),
      expiry_(expiry),
      prefix_digest_(stream_digest_seed()),
      counter_(episodes_, semantics_, expiry_) {}

StreamScan::StreamScan(const ScanCheckpoint& checkpoint)
    : StreamScan(checkpoint.episodes, checkpoint.semantics, checkpoint.expiry) {
  gm::expects(checkpoint.high_water >= 0, "checkpoint high-water mark cannot be negative");
  for (const EpisodeProgress& p : checkpoint.progress) {
    gm::expects(p.state == 0 || (p.first_pos >= 0 && p.first_pos < checkpoint.high_water),
                "in-flight match starts at or beyond the checkpoint high-water mark");
  }
  // restore() refuses a progress list that is not parallel to the episodes
  // or a state outside an episode's automaton.
  counter_.restore(checkpoint.progress);
  high_water_ = checkpoint.high_water;
  prefix_digest_ = checkpoint.prefix_digest;
}

StreamScan::StreamScan(StreamScan&&) noexcept = default;
StreamScan& StreamScan::operator=(StreamScan&&) noexcept = default;
StreamScan::~StreamScan() = default;

void StreamScan::feed(std::span<const Symbol> events) {
  counter_.advance_batch(events, high_water_);
  high_water_ += static_cast<std::int64_t>(events.size());
  prefix_digest_ = stream_digest_extend(prefix_digest_, events);
}

ScanCheckpoint StreamScan::checkpoint(std::uint64_t generation) const {
  ScanCheckpoint out;
  out.semantics = semantics_;
  out.expiry = expiry_;
  out.high_water = high_water_;
  out.prefix_digest = prefix_digest_;
  out.generation = generation;
  out.episodes = episodes_;
  out.progress = counter_.progress();
  return out;
}

std::vector<std::int64_t> StreamScan::counts() const { return counter_.counts(); }

std::vector<std::int64_t> resume_scan(const ScanCheckpoint& checkpoint,
                                      std::span<const Symbol> new_events) {
  StreamScan scan(checkpoint);
  scan.feed(new_events);
  return scan.counts();
}

}  // namespace gm::core
