// `--backend auto`: a CountingBackend that re-plans at every counting level.
//
// Each count() call is one mining level, and the candidate set shrinks (or
// explodes) level by level — exactly the axis along which the paper observes
// the winning formulation flipping.  AutoBackend measures the workload shape
// of the incoming request, asks the planner for this level's winner, lazily
// constructs that backend, and delegates.  The recent per-level decisions
// stay queryable so the CLI can report what was picked and why.
//
// A caller that prices a level before counting it (service admission) calls
// plan(request): the following count() of that request runs the kept plan.
//
// Online feedback: after every delegated count() the backend compares the
// measured time (wall-clock for CPU formulations, engine-measured kernel
// time for gpusim) against the plan's prediction and folds the ratio into
// its in-memory profile as a recency-weighted bias multiplier
// (PlannerOptions::measured_bias, keyed by candidate label).  A formulation
// that keeps under-delivering gets progressively discounted, so long mining
// runs self-correct mid-session; load a fitted CalibrationProfile (calib/)
// into the options to start from host-measured constants instead of the
// shipped ones.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "planner/planner.hpp"

namespace gm::planner {

class AutoBackend final : public core::CountingBackend {
 public:
  explicit AutoBackend(PlannerOptions options = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] core::CountResult count(const core::CountRequest& request) override;
  /// Unbounded when the CPU family is enabled (the planner falls back to a
  /// CPU formulation past the GPU kernels' level cap); otherwise the cap is
  /// the GPU kernels'.
  [[nodiscard]] int max_level() const override;

  /// The plan count(request) will run, kept until the next count(), which
  /// runs it for the same request (same spans, semantics and expiry; their
  /// storage must live until then) and plans afresh otherwise.  Throws like
  /// plan_level.
  const Plan& plan(const core::CountRequest& request);

  /// One plan per count() call, in call order, for the latest kPlanHistory
  /// calls: a backend that outlives many requests (a service worker's) keeps
  /// bounded memory.  An episode's level is at most 255, so every plan of
  /// one mine on a fresh backend is kept, plans()[i] being level i + 1's.
  [[nodiscard]] const std::vector<Plan>& plans() const noexcept { return plans_; }
  [[nodiscard]] const PlannerOptions& options() const noexcept { return options_; }

  /// The live measured-bias multipliers (candidate label -> measured /
  /// predicted EWMA) accumulated from delegated count() calls.
  [[nodiscard]] const std::map<std::string, double>& feedback() const noexcept {
    return options_.measured_bias;
  }

  /// Backends constructed so far: one per distinct picked label, however
  /// many levels picked it.
  [[nodiscard]] std::size_t constructed_backends() const noexcept { return backends_.size(); }

  /// count() calls whose plans plans() keeps.
  static constexpr std::size_t kPlanHistory = 255;
  /// EWMA weight of the newest measured/predicted observation.
  static constexpr double kFeedbackBlend = 0.4;
  /// Noise floor (ms) on both sides of the observed ratio, mirroring the
  /// shootout's regret floor: sub-floor levels cannot swing the bias.
  static constexpr double kFeedbackFloorMs = 0.05;

 private:
  PlannerOptions options_;
  std::vector<Plan> plans_;
  std::optional<Plan> kept_;  ///< plan()'s result, for the request kept_for_
  core::CountRequest kept_for_;
  /// Constructed backends by candidate label: a formulation that wins several
  /// levels is built once (SimGpuBackend construction stages an engine).
  std::map<std::string, std::unique_ptr<core::CountingBackend>> backends_;
};

}  // namespace gm::planner
