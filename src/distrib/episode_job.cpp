#include "distrib/episode_job.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"

namespace gm::distrib {
namespace {

/// Claim task indices from a shared counter on `threads` workers (inline when
/// one suffices).  Tasks write disjoint preallocated slots; callers read
/// after the join.
template <typename Fn>
void for_each_task(int threads, std::size_t tasks, Fn&& task_fn) {
  const int workers = std::min<int>(core::resolved_thread_count(threads),
                                    static_cast<int>(std::max<std::size_t>(tasks, 1)));
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks) return;
      task_fn(t);
    }
  };
  if (workers <= 1) {
    drain();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(drain);
  for (auto& t : pool) t.join();
}

}  // namespace

std::vector<std::int64_t> count_episodes_thread_level(
    std::span<const core::Symbol> database, std::span<const core::Episode> episodes,
    const EpisodeCountOptions& options) {
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  std::vector<std::int64_t> counts(episodes.size(), 0);
  for_each_task(options.threads, episodes.size(), [&](std::size_t e) {
    counts[e] = core::count_occurrences(episodes[e], database, options.semantics,
                                        options.expiry);
  });
  return counts;
}

std::vector<std::int64_t> count_episodes_block_level(
    std::span<const core::Symbol> database, std::span<const core::Episode> episodes,
    const EpisodeCountOptions& options) {
  gm::expects(options.chunks >= 1, "need at least one chunk");
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  std::vector<std::int64_t> counts(episodes.size(), 0);
  if (episodes.empty() || database.empty()) return counts;

  const auto bounds =
      core::chunk_boundaries(static_cast<std::int64_t>(database.size()), options.chunks);
  const auto chunk_count = static_cast<std::size_t>(options.chunks);

  // Map: one cold scan per (episode, chunk), claimed off a shared counter.
  std::vector<core::SegmentOutcome> cold(episodes.size() * chunk_count);
  for_each_task(options.threads, cold.size(), [&](std::size_t task) {
    const std::size_t e = task / chunk_count;
    const std::size_t c = task % chunk_count;
    cold[task] = core::scan_segment(episodes[e].symbols(), options.semantics, options.expiry,
                                    database, bounds[c], bounds[c + 1], 0, 0);
  });

  // Reduce: fold each episode's outcomes in chunk order (exact; see
  // core::fold_cold_scans).
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    counts[e] = core::fold_cold_scans(
        episodes[e].symbols(), options.semantics, options.expiry, database, /*base=*/0, bounds,
        std::span<const core::SegmentOutcome>(cold).subspan(e * chunk_count, chunk_count),
        /*entry_state=*/0, /*entry_first_pos=*/0, /*exit=*/nullptr);
  }
  return counts;
}

}  // namespace gm::distrib
