#include "distrib/scheduler.hpp"

#include <atomic>
#include <thread>

#include "common/error.hpp"

namespace gm::distrib {

StealStats run_sharded(
    const ShardPlan& plan,
    const std::function<void(int worker, int chunk, std::int64_t begin, std::int64_t end)>&
        chunk_fn) {
  gm::expects(plan.shards >= 1, "degenerate shard plan");
  gm::expects(plan.chunk_count() == plan.shards * kStealGranularity,
              "shard plan chunk grid is inconsistent");

  const int shards = plan.shards;
  const int g = kStealGranularity;
  StealStats stats;
  stats.chunks_by_worker.assign(static_cast<std::size_t>(shards), 0);

  auto run_chunk = [&](int worker, int chunk) {
    chunk_fn(worker, chunk, plan.chunk_bounds[static_cast<std::size_t>(chunk)],
             plan.chunk_bounds[static_cast<std::size_t>(chunk) + 1]);
  };

  if (shards == 1) {
    for (int c = 0; c < plan.chunk_count(); ++c) run_chunk(0, c);
    stats.chunks_by_worker[0] = plan.chunk_count();
    return stats;
  }

  // Per-shard claim cursors: shard s hands out chunks [s*g, (s+1)*g) in
  // order.  fetch_add makes every claim unique; an over-claim (cursor past
  // the shard's end) is simply retried elsewhere.
  std::vector<std::atomic<int>> next(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) next[static_cast<std::size_t>(s)].store(s * g);
  std::atomic<std::int64_t> total_steals{0};

  auto worker_loop = [&](int w) {
    std::int64_t ran = 0;
    std::int64_t stolen = 0;
    // Home phase: drain the own shard first (locality, and thieves target
    // the most-loaded cursor so they rarely collide with the owner early).
    const int home_end = (w + 1) * g;
    for (;;) {
      const int c = next[static_cast<std::size_t>(w)].fetch_add(1, std::memory_order_relaxed);
      if (c >= home_end) break;
      run_chunk(w, c);
      ++ran;
    }
    // Steal phase: repeatedly pick the victim with the most remaining chunks.
    // The snapshot can be stale; a lost race just re-selects.
    for (;;) {
      int victim = -1;
      int best_remaining = 0;
      for (int v = 0; v < shards; ++v) {
        if (v == w) continue;
        const int remaining =
            (v + 1) * g - next[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
        if (remaining > best_remaining) {
          best_remaining = remaining;
          victim = v;
        }
      }
      if (victim < 0) break;
      const int c =
          next[static_cast<std::size_t>(victim)].fetch_add(1, std::memory_order_relaxed);
      if (c >= (victim + 1) * g) continue;
      run_chunk(w, c);
      ++ran;
      ++stolen;
    }
    stats.chunks_by_worker[static_cast<std::size_t>(w)] = ran;  // disjoint slot
    total_steals.fetch_add(stolen, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(shards));
  for (int w = 0; w < shards; ++w) pool.emplace_back([&worker_loop, w] { worker_loop(w); });
  for (auto& t : pool) t.join();
  stats.steals = total_steals.load();
  return stats;
}

}  // namespace gm::distrib
