#include "calib/fitter.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gm::calib {
namespace {

/// Minimize `f` over [lo, hi]: coarse grid to locate the basin (the cost
/// model's max() structure can make the slice non-unimodal), then
/// golden-section refinement inside the bracketing cell.
template <typename F>
double minimize_1d(F&& f, double lo, double hi) {
  constexpr int kGridPoints = 13;
  constexpr int kGoldenIters = 24;
  constexpr double kInvPhi = 0.6180339887498949;

  double best_x = lo;
  double best_f = f(lo);
  for (int i = 1; i < kGridPoints; ++i) {
    const double x = lo + (hi - lo) * i / (kGridPoints - 1);
    const double fx = f(x);
    if (fx < best_f) {
      best_f = fx;
      best_x = x;
    }
  }
  const double cell = (hi - lo) / (kGridPoints - 1);
  double a = std::max(lo, best_x - cell);
  double b = std::min(hi, best_x + cell);

  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int i = 0; i < kGoldenIters; ++i) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  const double mid = 0.5 * (a + b);
  const double fmid = f(mid);
  return fmid < best_f ? mid : best_x;
}

}  // namespace

double predict_sample_ms(const CalibrationProfile& profile, const FitSample& sample) {
  planner::PlannerOptions options;
  apply_profile(profile, options);
  options.device = sample.device;
  options.cost_params = sample.cost_params;
  return planner::price_candidate(sample.workload, sample.config, options).predicted_ms;
}

double fit_loss(const CalibrationProfile& profile, std::span<const FitSample> samples,
                double floor_ms) {
  double loss = 0.0;
  for (const FitSample& sample : samples) {
    const double predicted = predict_sample_ms(profile, sample);
    const double r =
        std::log((predicted + floor_ms) / (sample.measured_ms + floor_ms));
    loss += sample.weight * r * r;
  }
  return loss;
}

FitReport fit_profile(CalibrationProfile& profile, std::span<const FitSample> samples,
                      const FitOptions& options) {
  gm::expects(!samples.empty(), "calibration fit needs at least one sample");
  gm::expects(options.max_sweeps >= 1, "calibration fit needs at least one sweep");
  for (const FitSample& sample : samples) {
    gm::expects(sample.measured_ms >= 0.0, "calibration samples need non-negative times");
    gm::expects(sample.weight > 0.0, "calibration samples need positive weights");
  }

  // Search bounds come from the *shipped* values, not the current ones, so
  // restarting a fit from a previous fit cannot walk the bounds outward.
  const CalibrationProfile shipped;

  std::vector<double> entry_values;
  entry_values.reserve(calibration_params().size());
  for (const ParamRef& param : calibration_params()) {
    entry_values.push_back(get_param(profile, param.name));
  }

  // Per-sample prediction cache.  Paper-scale GPU predictions cost real
  // time, and most parameters touch only a few samples (bucket terms never
  // move a dense-kernel sample), so each 1-D search recomputes only the
  // samples the parameter actually affects and keeps the rest's loss
  // contribution as a precomputed base.
  const auto term = [&](double predicted, const FitSample& sample) {
    const double r =
        std::log((predicted + options.floor_ms) / (sample.measured_ms + options.floor_ms));
    return sample.weight * r * r;
  };
  std::vector<double> pred(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    pred[i] = predict_sample_ms(profile, samples[i]);
  }
  const auto total_loss = [&] {
    double loss = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) loss += term(pred[i], samples[i]);
    return loss;
  };

  FitReport report;
  report.initial_loss = total_loss();
  double loss = report.initial_loss;

  std::vector<std::size_t> affected;
  std::vector<double> scratch;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const double sweep_start_loss = loss;
    ++report.sweeps;
    for (const ParamRef& param : calibration_params()) {
      double& value = param.ref(profile);
      const double before = value;
      const double hi = get_param(shipped, param.name) * options.max_scale;

      // Which samples does this parameter move?  Probe both ends of the
      // search interval; a sample inert at 0, hi and the incumbent value
      // stays inert everywhere (every charge enters the models
      // monotonically).
      affected.clear();
      for (std::size_t i = 0; i < samples.size(); ++i) {
        value = 0.0;
        const double at_zero = predict_sample_ms(profile, samples[i]);
        value = hi;
        const double at_hi = predict_sample_ms(profile, samples[i]);
        value = before;
        if (at_zero != at_hi || at_zero != pred[i]) affected.push_back(i);
      }
      if (affected.empty()) continue;

      double base = loss;
      for (const std::size_t i : affected) base -= term(pred[i], samples[i]);

      scratch.resize(affected.size());
      const auto slice_loss = [&](double x) {
        value = x;
        double partial = base;
        for (std::size_t j = 0; j < affected.size(); ++j) {
          scratch[j] = predict_sample_ms(profile, samples[affected[j]]);
          partial += term(scratch[j], samples[affected[j]]);
        }
        return partial;
      };

      const double best = minimize_1d(slice_loss, 0.0, hi);
      const double candidate_loss = slice_loss(best);  // refreshes scratch
      if (candidate_loss <= loss) {
        value = best;
        loss = candidate_loss;
        for (std::size_t j = 0; j < affected.size(); ++j) pred[affected[j]] = scratch[j];
      } else {
        value = before;  // golden section landed worse than the incumbent
      }
    }
    if (sweep_start_loss - loss <= options.rel_tolerance * std::max(sweep_start_loss, 1e-12)) {
      break;
    }
  }

  report.final_loss = loss;
  for (std::size_t i = 0; i < calibration_params().size(); ++i) {
    const ParamRef& param = calibration_params()[i];
    const double fitted = get_param(profile, param.name);
    const double denom = std::max(std::abs(entry_values[i]), 1e-12);
    if (std::abs(fitted - entry_values[i]) / denom > 1e-3) {
      report.adjusted.emplace_back(param.name);
    }
  }
  profile.source = "fitted";
  profile.sample_count = static_cast<int>(samples.size());
  return report;
}

}  // namespace gm::calib
