// CalibrationProfile: every runtime-fittable cost constant of the analytic
// models — the kernel workload models' per-loop instruction charges
// (kernels::KernelCostProfile) and the CPU cost curves' per-operation
// nanosecond costs (planner::CpuCostConstants) — as one value type with a
// name->field registry, JSON persistence, and an applicator into
// planner::PlannerOptions.
//
// A default-constructed profile is the *shipped* profile: it carries exactly
// the compile-time constants the models default to, so predictions through
// it are bit-identical to the constant-free call paths (pinned by
// tests/calib_test.cpp).  `backend_shootout --fit-calibration` produces a
// *fitted* profile from measured (candidate, time) samples (see fitter.hpp);
// `--calibration <file>` on the CLI surface loads one back.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "kernels/cost_constants.hpp"
#include "planner/cpu_cost_model.hpp"

namespace gm::planner {
struct PlannerOptions;
}

namespace gm::calib {

/// The JSON `schema` tag this build writes and accepts.
inline constexpr std::string_view kProfileSchema = "gm-calibration/2";

struct CalibrationProfile {
  kernels::KernelCostProfile kernel;
  planner::CpuCostConstants cpu;

  /// Provenance: "shipped" for the built-in defaults, "fitted" for the
  /// output of fit_profile.  Free-form beyond those two.
  std::string source = "shipped";
  /// Where the fit ran (free-form; the shootout records its workload shape
  /// and seed here so a profile is traceable to the run that produced it).
  std::string host;
  /// Measured samples behind a fitted profile (0 for shipped).
  int sample_count = 0;
};

/// One fittable scalar: its serialized name ("kernel.bucket_probe_instr",
/// "cpu.serial_step_ns") and an accessor into the profile.
struct ParamRef {
  std::string_view name;
  double& (*ref)(CalibrationProfile&);
};

/// Every fittable parameter, in serialization order.  JSON I/O and the
/// fitter both iterate this registry, so adding a field to either constants
/// struct means adding exactly one row here (enforced by a size check in
/// calib_test).
[[nodiscard]] const std::vector<ParamRef>& calibration_params();

/// Registry-based access by serialized name; unknown names throw
/// gm::PreconditionError listing the valid ones, and set_param rejects
/// negative values (every constant is a non-negative cost).
[[nodiscard]] double get_param(const CalibrationProfile& profile, std::string_view name);
void set_param(CalibrationProfile& profile, std::string_view name, double value);

/// Install the profile's constants into a planner-options block (the single
/// integration point: AutoBackend, the shootout, and planner_explain all
/// consume profiles this way).
void apply_profile(const CalibrationProfile& profile, planner::PlannerOptions& options);

/// JSON persistence.  Writing uses the shortest-round-trip double format, so
/// save -> load is lossless (pinned by test).  Reading rejects a wrong
/// schema tag, unknown parameter names, and negative values.
[[nodiscard]] std::string to_json(const CalibrationProfile& profile);
[[nodiscard]] CalibrationProfile profile_from_json(std::string_view text);
[[nodiscard]] CalibrationProfile load_profile(const std::string& path);
void save_profile(const CalibrationProfile& profile, const std::string& path);

}  // namespace gm::calib
