#include "core/miner.hpp"

#include <string>

#include "common/error.hpp"

namespace gm::core {

void validate_miner_config(const MinerConfig& config) {
  if (!(config.support_threshold >= 0.0 && config.support_threshold <= 1.0)) {
    gm::raise_precondition(
        "support_threshold must lie in [0, 1] (an episode is frequent when count/|DB| exceeds "
        "it), got " +
            std::to_string(config.support_threshold),
        ErrorCode::kInvalidConfig);
  }
  if (config.max_level < 0) {
    gm::raise_precondition(
        "max_level must be >= 0 (0 runs until the candidate set is empty), got " +
            std::to_string(config.max_level),
        ErrorCode::kInvalidConfig);
  }
  if (config.expiry.window < 0) {
    gm::raise_precondition("expiry window must be >= 0 (0 disables expiry), got " +
                               std::to_string(config.expiry.window),
                           ErrorCode::kInvalidConfig);
  }
}

MiningResult mine_frequent_episodes(std::span<const Symbol> database, const Alphabet& alphabet,
                                    CountingBackend& backend, const MinerConfig& config,
                                    LevelObserver* observer) {
  gm::expects(!database.empty(), "database must be non-empty");
  validate_miner_config(config);
  for (const Symbol s : database) {
    gm::expects(alphabet.contains(s), "database symbol outside alphabet");
  }

  MiningResult result;
  const auto n = static_cast<std::int64_t>(database.size());

  std::vector<Episode> candidates = level1_candidates(alphabet);
  int level = 1;
  while (!candidates.empty()) {
    // Surface a capped backend (e.g. the GPU kernels' kMaxLevel episode
    // staging bound) as a reportable error before issuing the request,
    // instead of an abort deep inside the kernel layer.
    if (const int cap = backend.max_level(); cap > 0 && level > cap) {
      gm::raise_precondition(
          "backend '" + backend.name() + "' counts episodes only up to level " +
              std::to_string(cap) + ", but mining reached level " + std::to_string(level) +
              " — lower the level cap (--max-level) or switch to a CPU backend",
          ErrorCode::kCapability);
    }

    CountRequest request;
    request.database = database;
    request.episodes = candidates;  // view, not a per-level deep copy
    request.semantics = config.semantics;
    request.expiry = config.expiry;

    if (observer != nullptr && !observer->on_level_start(level, request)) {
      result.truncated = true;
      break;
    }

    const CountResult counted = backend.count(request);
    gm::ensure(counted.counts.size() == candidates.size(),
               "backend returned wrong number of counts");

    // One support decision feeds both the mining report and the next level,
    // so the two can never disagree on what survived.
    const std::vector<std::size_t> keep =
        eliminate_infrequent(candidates, counted.counts, n, config.support_threshold);

    LevelReport report;
    report.level = level;
    report.candidates = static_cast<std::int64_t>(candidates.size());
    report.frequent = static_cast<std::int64_t>(keep.size());
    report.count_host_ms = counted.host_ms;
    report.simulated_kernel_ms = counted.simulated_kernel_ms;
    result.levels.push_back(report);

    std::vector<Episode> frequent_here;
    frequent_here.reserve(keep.size());
    for (const std::size_t i : keep) {
      const double support =
          static_cast<double>(counted.counts[i]) / static_cast<double>(n);
      result.frequent.push_back({candidates[i], counted.counts[i], support});
      frequent_here.push_back(candidates[i]);
    }

    if (observer != nullptr) observer->on_level_done(report);

    // The last allowed level never needs its successors: generating them
    // anyway is a full join of this level's survivors (16.6M level-3
    // episodes after an alphabet-255, support-0 level 2) thrown away here.
    if (config.max_level != 0 && level == config.max_level) break;
    candidates = generate_candidates(frequent_here, config.apriori_prune);
    ++level;
  }
  return result;
}

}  // namespace gm::core
