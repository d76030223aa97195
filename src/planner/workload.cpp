#include "planner/workload.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/episode_trie.hpp"
#include "kernels/workload_model.hpp"

namespace gm::planner {

Workload workload_of(const core::CountRequest& request, int alphabet_size_hint) {
  gm::expects(!request.database.empty(), "workload needs a non-empty database");
  gm::expects(!request.episodes.empty(), "workload needs at least one episode");
  Workload w;
  w.db_size = static_cast<std::int64_t>(request.database.size());
  w.episode_count = static_cast<std::int64_t>(request.episodes.size());
  w.level = std::ranges::max_element(request.episodes, {}, &core::Episode::level)->level();
  const auto max_symbol =
      *std::max_element(request.database.begin(), request.database.end());
  w.alphabet_size = std::max(static_cast<int>(max_symbol) + 1, alphabet_size_hint);
  w.symbol_freq = kernels::measured_symbol_freq(request.database, w.alphabet_size);
  w.prefix_compression = core::prefix_compression(request.episodes);
  w.semantics = request.semantics;
  w.expiry = request.expiry;
  return w;
}

}  // namespace gm::planner
