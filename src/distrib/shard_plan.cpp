#include "distrib/shard_plan.hpp"

#include <array>

#include "common/error.hpp"

namespace gm::distrib {
namespace {

/// Estimated drain work of one stream position carrying symbol `s`: the base
/// scan charge plus one unit per candidate occurrence of the symbol (every
/// automaton parked on `s` advances when it arrives).
std::array<double, 256> symbol_weights(std::span<const core::Episode> episodes) {
  std::array<double, 256> weight;
  weight.fill(1.0);
  for (const auto& e : episodes) {
    for (const core::Symbol s : e.symbols()) weight[s] += 1.0;
  }
  return weight;
}

}  // namespace

ShardPlan make_shard_plan(std::span<const core::Symbol> database,
                          std::span<const core::Episode> episodes, int shards) {
  gm::expects(shards >= 1, "need at least one shard");

  ShardPlan plan;
  plan.shards = shards;
  const int chunks = shards * kChunksPerShard;
  const auto size = static_cast<std::int64_t>(database.size());
  const auto weight = symbol_weights(episodes);

  double total = 0.0;
  for (const core::Symbol s : database) total += weight[s];
  plan.chunk_bounds.reserve(static_cast<std::size_t>(chunks) + 1);
  plan.chunk_bounds.push_back(0);
  double running = 0.0;
  int cut = 1;
  for (std::int64_t i = 0; i < size; ++i) {
    running += weight[database[static_cast<std::size_t>(i)]];
    // A single heavy position can pass several targets at once; the extra
    // cuts land here too, leaving empty chunks a worker finishes at once.
    while (cut < chunks &&
           running >= total * static_cast<double>(cut) / static_cast<double>(chunks)) {
      plan.chunk_bounds.push_back(i + 1);
      ++cut;
    }
  }
  while (static_cast<int>(plan.chunk_bounds.size()) < chunks + 1) {
    plan.chunk_bounds.push_back(size);
  }
  plan.chunk_bounds.back() = size;
  gm::ensure(plan.chunk_bounds.size() == static_cast<std::size_t>(chunks) + 1,
             "shard plan must cover the database");
  return plan;
}

}  // namespace gm::distrib
