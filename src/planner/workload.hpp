// The workload shape the formulation planner scores: everything that moves
// the predicted cost of a counting level — stream length, candidate count,
// episode level, alphabet size, measured symbol skew, counting semantics and
// expiry — and nothing tied to a particular backend.  One Workload describes
// one mining level; the miner's candidate set shrinks level by level, which
// is exactly why the winning formulation flips and the planner re-plans.
#pragma once

#include <cstdint>
#include <vector>

#include "core/counting.hpp"

namespace gm::planner {

struct Workload {
  std::int64_t db_size = 0;
  std::int64_t episode_count = 0;
  int level = 1;
  int alphabet_size = 26;
  /// Measured stream symbol distribution (`alphabet_size` entries summing to
  /// 1), feeding the bucketed formulations' skew-aware occupancy term.  Empty
  /// means assume uniform.
  std::vector<double> symbol_freq;
  /// Distinct-prefix mass of the candidate set (distinct nonempty prefixes
  /// over total episode symbols, in (0, 1]), measured from the actual
  /// episodes via core::prefix_compression.  Drives the drain terms of the
  /// shared-prefix trie kernel (gpusim-algo5-trie): 1.0 (the default, and any
  /// level-1 set) means no sharing, apriori level-L sets sit near 1/L plus the
  /// last-symbol fringe.
  double prefix_compression = 1.0;
  core::Semantics semantics = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry = {};
};

/// Derive the workload of one counting request, measuring the alphabet size
/// (max symbol + 1, at least `alphabet_size_hint`) and the smoothed symbol
/// distribution from the database.  Costs one O(|DB|) pass — noise next to
/// the counting work the resulting plan steers, so per-request recomputation
/// is the norm (AutoBackend does exactly that).
[[nodiscard]] Workload workload_of(const core::CountRequest& request,
                                   int alphabet_size_hint = 0);

}  // namespace gm::planner
