// The formulation planner: the paper's conclusion — "a MapReduce-based
// implementation must dynamically adapt the type and level of parallelism" —
// turned into a subsystem.  Given one level's workload shape and a device,
// enumerate every counting formulation the repo implements (four CPU
// backends x five simulated-GPU algorithms x a threads-per-block sweep,
// plus a shared-prefix trie variant of the block-bucketed kernel and, when
// the caller names a device count, the multi-card distrib-gpu axis),
// score each analytically (kernels::predict_mining_time for the device,
// planner/cpu_cost_model for the host), and return a Plan: the winner, the
// full scored decision table, and the reason every loser lost.
//
// The planner is deterministic (same workload + options => same plan), never
// picks a candidate whose capability gate fails (e.g. a backend whose
// max_level is below the requested level), and records a human-readable
// rejection reason for every infeasible candidate — backend_shootout
// --validate-planner keeps its predictions honest by measuring the whole
// candidate table and reporting the planner's regret.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/counting.hpp"
#include "kernels/mining_kernels.hpp"
#include "kernels/workload_model.hpp"
#include "planner/cpu_cost_model.hpp"
#include "planner/workload.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"

namespace gm::planner {

enum class BackendKind {
  kCpuSerial,
  kCpuParallel,
  kCpuSingleScan,
  /// Episode-lane SIMD engine (core::LaneCpuBackend).
  kCpuLaneScan,
  kGpuSim,
  /// The stream split over N simulated cards (distrib::DistribBackend):
  /// cpu-parallel's host map for the counts, the cards for the time.
  kDistrib,
};

/// The make_cpu_backend / BackendSpec name of a kind ("cpu-serial", ...,
/// "gpusim", "distrib-gpu").
[[nodiscard]] std::string_view backend_kind_name(BackendKind kind);

/// One point of the candidate space: enough to both predict and construct
/// the backend it names.
struct CandidateConfig {
  BackendKind kind = BackendKind::kCpuSerial;
  /// CPU backends: resolved worker count.  kDistrib: the card count.
  int threads = 1;
  /// gpusim and kDistrib (the launch each card runs).
  kernels::Algorithm algorithm = kernels::Algorithm::kThreadTexture;
  int threads_per_block = 0;
  /// gpusim + algo5 only: bucket shared-prefix trie tokens instead of flat
  /// per-episode automata (MiningLaunchParams::trie_buckets).
  bool trie_buckets = false;

  /// Stable display / cache key, e.g. "cpu-parallel-x8", "gpusim-algo5/t128",
  /// "gpusim-algo5-trie/t128", or "distrib-gpu-x2".
  [[nodiscard]] std::string label() const;
  /// Priced and measured on the simulated clock (CountResult's
  /// simulated_kernel_ms): gpusim and distrib-gpu.  Every other candidate is
  /// priced and measured in host wall time.
  [[nodiscard]] bool simulated() const {
    return kind == BackendKind::kGpuSim || kind == BackendKind::kDistrib;
  }
};

struct ScoredCandidate {
  CandidateConfig config;
  bool feasible = false;
  double predicted_ms = 0.0;
  /// Feasible: the dominant-cost note ("bound by issue", "stream-chunk
  /// map").  Infeasible: why the candidate was rejected (never empty).
  std::string reason;
  /// gpusim candidates: the full mechanism breakdown behind predicted_ms.
  gpusim::TimeBreakdown breakdown;
};

struct Plan {
  Workload workload;
  /// All candidates: feasible ones first, sorted by ascending predicted time
  /// (ties broken by label so plans are deterministic), then the rejected
  /// ones in enumeration order.
  std::vector<ScoredCandidate> table;
  /// Why the winner won (margin over the runner-up, rejection tally).
  std::string explanation;

  [[nodiscard]] const ScoredCandidate& winner() const { return table.front(); }
  [[nodiscard]] std::size_t feasible_count() const noexcept {
    std::size_t n = 0;
    for (const auto& c : table) n += c.feasible ? 1 : 0;
    return n;
  }
};

struct PlannerOptions {
  /// Card the gpusim candidates are scored (and constructed) for.
  gpusim::DeviceSpec device;
  /// CPU worker request; 0 resolves to the hardware concurrency.
  int cpu_threads = 0;
  /// threads-per-block sweep for the gpusim candidates.
  std::vector<int> tpb_sweep = {32, 64, 128, 256, 512};
  /// Card counts to score distrib candidates at: with enable_gpu, each
  /// entry N adds "distrib-gpu-xN" (the stream split over N simulated
  /// cards) to the table, priced at what its cards bill
  /// (distrib::card_time_ms, simulated time only), so the plan answers
  /// "when does 2x card beat 1x card at this level".  Host workers are
  /// cpu_threads' business (the one cpu-parallel candidate).  Empty (the
  /// default) keeps the single-device candidate space — the planner must not
  /// assume extra hardware exists unless the caller says so.
  std::vector<int> device_sweep = {};
  /// Candidate-space gates (a shootout validating only host backends turns
  /// the GPU off; both off is a precondition error in plan_level).
  bool enable_cpu = true;
  bool enable_gpu = true;
  gpusim::CostParams cost_params = {};
  CpuCostConstants cpu_constants = {};
  /// Per-loop instruction charges of the GPU workload models.  Defaults to
  /// the shipped cost_constants.hpp values; a fitted CalibrationProfile
  /// (calib/) replaces both this and cpu_constants.
  kernels::KernelCostProfile kernel_costs = {};
  /// Online-feedback multipliers applied to predicted_ms after scoring,
  /// keyed by candidate label (e.g. "cpu-parallel-x8") with the backend kind
  /// name ("cpu-parallel") as fallback.  AutoBackend maintains these from
  /// measured-vs-predicted count() ratios so long mining runs self-correct;
  /// empty (the default) leaves predictions untouched.
  std::map<std::string, double> measured_bias;

  PlannerOptions();  ///< defaults the device to the paper's GTX 280
};

/// The measured_bias multiplier plan_level applies to a candidate: its
/// label's entry, else its kind name's, else 1 (no feedback recorded).
[[nodiscard]] double bias_for(const PlannerOptions& options, const CandidateConfig& config);

/// Score the full candidate space for one level's workload.  Throws
/// gm::PreconditionError when the workload is degenerate (empty database or
/// episode set) or every candidate is infeasible.
[[nodiscard]] Plan plan_level(const Workload& workload, const PlannerOptions& options);

/// Price one candidate on `workload` with `options`' device, cost parameters
/// and constants: its predicted ms and dominant-cost note, with no capability
/// gate and no measured bias.  The one pricing rule: plan_level scores every
/// candidate with it (the distrib-gpu launch sweep keeps the cheapest
/// algorithm x tpb), and the calibration fitter re-prices measured samples
/// with it under trial constants.  Throws gm::Error when the model cannot
/// price the candidate, e.g. a launch the device cannot host.
[[nodiscard]] ScoredCandidate price_candidate(const Workload& workload,
                                              const CandidateConfig& config,
                                              const PlannerOptions& options);

/// Construct the backend a candidate names (the planner's pick, typically).
[[nodiscard]] std::unique_ptr<core::CountingBackend> make_planned_backend(
    const CandidateConfig& config, const PlannerOptions& options);

/// The kernel-model spec a gpusim candidate is scored with.
/// `trie_buckets` carries the workload's measured prefix_compression into the
/// spec alongside the launch flag (Algorithm 5 only).
[[nodiscard]] kernels::WorkloadSpec gpu_workload_spec(const Workload& workload,
                                                      kernels::Algorithm algorithm, int tpb,
                                                      bool trie_buckets = false);

/// Render a plan as the human-readable decision table planner_explain prints.
[[nodiscard]] std::string format_plan(const Plan& plan);

}  // namespace gm::planner
