// Weighted database partition for the distribution layer.
//
// A ShardPlan splits the event stream into a shards x kChunksPerShard
// chunk grid: shard s owns the contiguous run of chunks [s*g, (s+1)*g), and
// a simulated card is charged for the chunks its shard owns.  Host workers
// claim chunks in order from one shared cursor (common/parallel.hpp), so a
// worker that finishes early takes the next chunk whichever shard owns it.
// Cut points are weighted by estimated per-position drain work — a position
// whose symbol appears in many candidate episodes advances more waiting
// automata — so drain-heavy regions get shorter chunks and shards start out
// balanced even on skewed streams.  The estimate is first-order (i.i.d.
// positions, no automaton state); the dynamic claims absorb what it misses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/episode.hpp"

namespace gm::distrib {

/// Chunks per shard: more chunks than workers, so a worker that finishes
/// early claims more.  One constant for the backend and the planner's
/// distrib cost curve (planner/cpu_cost_model), so the model prices the grid
/// the backend actually builds.
inline constexpr int kChunksPerShard = 4;

struct ShardPlan {
  int shards = 1;
  /// shards * kChunksPerShard + 1 non-decreasing entries covering the
  /// database; chunk k spans [chunk_bounds[k], chunk_bounds[k+1]).
  std::vector<std::int64_t> chunk_bounds;

  [[nodiscard]] int chunk_count() const noexcept {
    return static_cast<int>(chunk_bounds.size()) - 1;
  }
  [[nodiscard]] int home_shard(int chunk) const noexcept { return chunk / kChunksPerShard; }
};

/// Build the drain-weighted chunk grid for counting `episodes` over
/// `database` on `shards` workers: cuts equalize estimated drain work per
/// chunk.
[[nodiscard]] ShardPlan make_shard_plan(std::span<const core::Symbol> database,
                                        std::span<const core::Episode> episodes, int shards);

}  // namespace gm::distrib
