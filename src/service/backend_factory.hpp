// Public counting-backend factory: everything needed to name a backend on a
// command line (or in a service session config) and construct it.
//
// Promoted out of bench_support/paper_setup so real clients — gminer_cli, the
// examples, MiningSession — pick backends without linking the benchmark
// harness.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/counting.hpp"
#include "kernels/mining_kernels.hpp"
#include "planner/planner.hpp"

namespace gm::service {

/// Everything needed to name a counting backend on a command line.
struct BackendSpec {
  /// "cpu-serial" | "cpu-parallel" | "cpu-single-scan" | "cpu-lane-scan" |
  /// "distrib-gpu" | "gpusim" | "auto" (unprefixed cpu aliases accepted).
  /// "cpu-parallel" is the one host-parallel formulation (`threads` stream
  /// chunk workers); "distrib-gpu" counts through the same host map and
  /// charges `shards` simulated cards.  "auto" plans the formulation per counting level
  /// (planner::AutoBackend): `card` names the device its GPU candidates are
  /// scored for and `threads` its CPU worker budget; `launch` is ignored
  /// (the planner sweeps algorithms and threads-per-block itself).
  std::string name = "gpusim";
  int threads = 0;  ///< cpu-parallel and "auto": 0 = hardware concurrency
  std::string card = "gtx280";
  /// gpusim and distrib-gpu: algorithm and threads_per_block (gpusim also
  /// trie_buckets); other fields keep the kernel defaults.
  kernels::MiningLaunchParams launch = {};
  /// Path of a fitted calibration profile (see calib/ and
  /// `backend_shootout --fit-calibration`) whose constants replace the
  /// shipped cost-model defaults the planner scores with.  Empty = shipped.
  std::string calibration = {};
  /// "distrib-gpu": card count (0 = 2 cards, the GX2).  "auto": shards > 0
  /// opens the planner's card axis, scoring distrib-gpu candidates at every
  /// count in 1..shards.  Other backends ignore it.
  int shards = 0;
};

/// The formulation a fixed (non-"auto") spec names, with thread and shard
/// counts resolved: the one spec-to-candidate mapping, so one config both
/// builds and prices a fixed backend.  Throws gm::PreconditionError for
/// "auto" and for an unknown name, listing the valid ones.
[[nodiscard]] planner::CandidateConfig candidate_for(const BackendSpec& spec);

/// Construct the backend a spec names: "auto" as a planner::AutoBackend,
/// any other as make_planned_backend(candidate_for(spec), planner_options_for(spec)).
[[nodiscard]] std::unique_ptr<core::CountingBackend> make_backend(const BackendSpec& spec);

/// The names make_backend accepts (for --help text and shootout sweeps).
[[nodiscard]] std::vector<std::string_view> backend_names();

/// The planner options a spec implies: the device its card names, its CPU
/// thread budget, and (when set) its calibration profile applied on top of
/// the shipped cost constants.  "auto" constructs AutoBackend with them; a
/// fixed spec is built with them and MiningSession prices it with them.
[[nodiscard]] planner::PlannerOptions planner_options_for(const BackendSpec& spec);

}  // namespace gm::service
