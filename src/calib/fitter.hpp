// The calibration fitter: per-term, non-negative least-squares (in log
// space) of the CalibrationProfile constants against measured
// (candidate-features, time) samples.
//
// Samples come from two places: `backend_shootout --validate-planner` /
// `--fit-calibration` measurement loops (CPU backends by wall-clock, gpusim
// candidates by engine-measured kernel time, weight 1) and the
// calibration_table paper-figure probes (weight ~0.1, anchoring the kernel
// terms when a fit run has few or no GPU samples).  The loss is the weighted
// sum of squared log-ratios between predicted and measured time, each side
// floored by `floor_ms` — the same noise floor the shootout's regret ratio
// uses, so sub-floor samples cannot dominate the fit.
//
// The optimizer is coordinate descent: one bounded 1-D minimization per
// registry parameter per sweep (coarse grid + golden-section refinement,
// robust to the cost model's piecewise max structure), clamped to
// [0, shipped * max_scale].  Every prediction is linear in the CPU constants
// and piecewise-monotone in the kernel charges, so a handful of sweeps
// converges; parameters no sample exercises keep their shipped values.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "calib/calibration.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"

namespace gm::calib {

/// One measured data point: the candidate that ran, the workload shape it
/// ran on, and what it cost.
struct FitSample {
  planner::Workload workload;
  planner::CandidateConfig config;
  /// Simulated-card candidates only (gpusim, distrib-gpu): the card and
  /// timing-model parameters the measurement used (ignored for host ones).
  gpusim::DeviceSpec device;
  gpusim::CostParams cost_params = {};
  double measured_ms = 0.0;
  double weight = 1.0;
};

/// What the profile predicts for a sample's candidate on its workload:
/// planner::price_candidate, the function plan_level scores with, under the
/// profile's constants and the sample's card and cost parameters, with no
/// measured bias.
[[nodiscard]] double predict_sample_ms(const CalibrationProfile& profile,
                                       const FitSample& sample);

struct FitOptions {
  /// Coordinate-descent sweeps over the parameter registry.
  int max_sweeps = 6;
  /// Per-term search bound: [0, shipped_value * max_scale].
  double max_scale = 16.0;
  /// Noise floor added to both sides of the log-ratio loss (ms).
  double floor_ms = 0.05;
  /// Stop sweeping once a full sweep improves the loss by less than this
  /// relative fraction.
  double rel_tolerance = 1e-4;
};

struct FitReport {
  int sweeps = 0;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  /// Registry names of the parameters the fit moved (>0.1% relative).
  std::vector<std::string> adjusted;
};

/// Weighted squared-log-ratio loss of a profile over the samples.
[[nodiscard]] double fit_loss(const CalibrationProfile& profile,
                              std::span<const FitSample> samples, double floor_ms);

/// Fit `profile` in place (starting from its current values) and stamp its
/// provenance fields.  Throws gm::PreconditionError on an empty sample set
/// or non-positive measurements/weights.
FitReport fit_profile(CalibrationProfile& profile, std::span<const FitSample> samples,
                      const FitOptions& options = {});

}  // namespace gm::calib
