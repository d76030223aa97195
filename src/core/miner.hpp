// Frequent episode mining driver — the paper's Algorithm 1.
//
// Level by level: generate candidate episodes, count them with the supplied
// backend (the expensive, parallelizable step), eliminate infrequent ones,
// and expand the survivors into the next level's candidates until no
// candidate survives or `max_level` is reached.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidate_gen.hpp"
#include "core/counting.hpp"

namespace gm::core {

struct MinerConfig {
  /// Support threshold alpha: an episode is frequent when count/n > alpha.
  double support_threshold = 0.0;
  /// Stop after this level (0 = run until the candidate set is empty).
  /// The paper's future work (section 6) discusses L >> 3; the default keeps
  /// runs bounded the same way the paper's evaluation does.
  int max_level = 3;
  Semantics semantics = Semantics::kNonOverlappedSubsequence;
  ExpiryPolicy expiry = {};
  /// Apply Apriori sub-episode pruning during candidate generation.
  bool apriori_prune = true;
};

struct FrequentEpisode {
  Episode episode;
  std::int64_t count = 0;
  double support = 0.0;
};

struct LevelReport {
  int level = 0;
  std::int64_t candidates = 0;
  std::int64_t frequent = 0;
  double count_host_ms = 0.0;
  double simulated_kernel_ms = 0.0;
};

struct MiningResult {
  std::vector<FrequentEpisode> frequent;  ///< all levels, discovery order
  std::vector<LevelReport> levels;
  /// True when a LevelObserver stopped the run before the candidate set was
  /// exhausted (e.g. the service layer's latency-budget enforcement): the
  /// levels counted so far are complete and exact, later ones never ran.
  bool truncated = false;

  [[nodiscard]] std::int64_t total_frequent() const noexcept {
    return static_cast<std::int64_t>(frequent.size());
  }
};

/// Per-level hook into the mining loop.  The service layer uses it to price
/// each level before counting (admission/budget enforcement) and to collect
/// per-level plan notes; passing no observer reproduces the classic one-shot
/// behaviour bit for bit.
class LevelObserver {
 public:
  virtual ~LevelObserver() = default;
  /// Called with each level's counting request before count() receives the
  /// same object (so planner::AutoBackend::plan here plans what runs).
  /// Return false to stop the run: the level is not counted and the result
  /// is marked truncated.
  virtual bool on_level_start(int level, const CountRequest& request) = 0;
  /// Called after each counted level's elimination step.
  virtual void on_level_done(const LevelReport& report) = 0;
};

/// Validate a MinerConfig, throwing gm::PreconditionError tagged
/// ErrorCode::kInvalidConfig with an actionable message when a field is
/// outside its domain (support_threshold outside [0,1], negative max_level).
/// mine_frequent_episodes and the service layer's request admission both
/// apply it, so a bad config is rejected before any counting work runs.
void validate_miner_config(const MinerConfig& config);

/// Run Algorithm 1 over `database` using `backend` for the counting step.
/// The optional observer sees every level; the two-argument-shorter classic
/// signature is unchanged.
[[nodiscard]] MiningResult mine_frequent_episodes(std::span<const Symbol> database,
                                                  const Alphabet& alphabet,
                                                  CountingBackend& backend,
                                                  const MinerConfig& config,
                                                  LevelObserver* observer = nullptr);

}  // namespace gm::core
