// The CalibrationProfile subsystem's contract: the default profile is the
// shipped constants and predicts bit-identically to the constant-free call
// paths; the registry covers every fittable field; JSON persistence
// round-trips losslessly; and the fitter recovers perturbed constants from
// synthetic measurements without ever going negative.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "calib/calibration.hpp"
#include "calib/fitter.hpp"
#include "common/error.hpp"
#include "core/candidate_gen.hpp"
#include "data/generators.hpp"
#include "kernels/workload_model.hpp"
#include "planner/cpu_cost_model.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "sim/device_spec.hpp"

namespace gm::calib {
namespace {

planner::Workload cpu_workload() {
  planner::Workload w;
  w.db_size = 1'000'000;
  w.episode_count = 120;
  w.level = 3;
  w.alphabet_size = 64;
  return w;
}

/// Perturb every parameter deterministically (and keep it positive).
CalibrationProfile perturbed_profile() {
  CalibrationProfile profile;
  int i = 0;
  for (const ParamRef& param : calibration_params()) {
    const double shipped = get_param(profile, param.name);
    set_param(profile, param.name, shipped * (1.0 + 0.0137 * ++i) + 1.0 / 3.0);
  }
  profile.source = "fitted";
  profile.host = "unit-test \"host\"\n(escaped)";
  profile.sample_count = 42;
  return profile;
}

TEST(CalibrationProfile, RegistryCoversEveryConstant) {
  // 13 kernel instruction charges + 11 CPU cost constants.  If this fails
  // after adding a field to either struct, add the matching registry row
  // (and nothing else: JSON I/O and the fitter pick it up from there).
  EXPECT_EQ(calibration_params().size(), 24u);
  std::set<std::string_view> names;
  for (const ParamRef& param : calibration_params()) {
    EXPECT_TRUE(names.insert(param.name).second) << "duplicate: " << param.name;
    EXPECT_TRUE(param.name.starts_with("kernel.") || param.name.starts_with("cpu."))
        << param.name;
  }
}

TEST(CalibrationProfile, DefaultIsTheShippedConstants) {
  const CalibrationProfile profile;
  EXPECT_EQ(profile.source, "shipped");
  EXPECT_EQ(profile.sample_count, 0);
  EXPECT_DOUBLE_EQ(profile.kernel.unbuffered_scan_instr, kernels::kUnbufferedScanInstr);
  EXPECT_DOUBLE_EQ(profile.kernel.expiry_heap_instr, kernels::kExpiryHeapInstr);
  EXPECT_DOUBLE_EQ(profile.cpu.serial_step_ns, planner::CpuCostConstants{}.serial_step_ns);
  EXPECT_DOUBLE_EQ(get_param(profile, "kernel.bucket_probe_instr"),
                   kernels::kBucketProbeInstr);
  EXPECT_THROW((void)get_param(profile, "kernel.no_such_param"), gm::PreconditionError);
}

TEST(CalibrationProfile, DefaultProfilePredictsBitIdentically) {
  // The tentpole pin: threading the profile through the models must not
  // move a single bit when the defaults are used.
  const auto device = gpusim::geforce_gtx_280();
  for (const kernels::Algorithm algorithm : kernels::all_algorithms()) {
    kernels::WorkloadSpec spec;
    spec.db_size = 40'007;
    spec.episode_count = 650;
    spec.level = 2;
    spec.alphabet_size = 26;
    spec.params.algorithm = algorithm;
    spec.params.threads_per_block = 96;

    const auto implicit_profile = aggregate(kernels::model_profile(device, spec));
    const auto explicit_profile =
        aggregate(kernels::model_profile(device, spec, kernels::KernelCostProfile{}));
    EXPECT_EQ(implicit_profile.warp_instructions, explicit_profile.warp_instructions);
    EXPECT_EQ(implicit_profile.lane_instructions, explicit_profile.lane_instructions);
    EXPECT_EQ(implicit_profile.tex_requests, explicit_profile.tex_requests);
    EXPECT_EQ(implicit_profile.shared_requests, explicit_profile.shared_requests);
    EXPECT_EQ(implicit_profile.global_requests, explicit_profile.global_requests);

    const gpusim::CostModel model;
    EXPECT_EQ(kernels::predict_mining_time(device, spec, model).total_ms,
              kernels::predict_mining_time(device, spec, model, {}).total_ms);
  }

  const planner::Workload w = cpu_workload();
  EXPECT_EQ(planner::predict_cpu_serial_ms(w),
            planner::predict_cpu_serial_ms(w, planner::CpuCostConstants{}));
  // And the curve itself stays the shipped closed form: steps * step_ns.
  EXPECT_DOUBLE_EQ(planner::predict_cpu_serial_ms(w),
                   static_cast<double>(w.db_size) * static_cast<double>(w.episode_count) *
                       1.1 * 1e-6);
}

TEST(CalibrationProfile, KernelChargesActuallyFlowThroughTheModel) {
  const auto device = gpusim::geforce_gtx_280();
  kernels::WorkloadSpec spec;
  spec.db_size = 10'000;
  spec.episode_count = 512;
  spec.level = 2;
  spec.alphabet_size = 32;
  spec.params.algorithm = kernels::Algorithm::kBlockBucketed;
  spec.params.threads_per_block = 64;

  kernels::KernelCostProfile doubled;
  doubled.bucket_probe_instr *= 2.0;
  const auto shipped = aggregate(kernels::model_profile(device, spec));
  const auto scaled = aggregate(kernels::model_profile(device, spec, doubled));
  // One extra charge per scanned position per owning thread, nothing else.
  EXPECT_GT(scaled.lane_instructions, shipped.lane_instructions);
  EXPECT_EQ(scaled.tex_requests, shipped.tex_requests);
  EXPECT_EQ(scaled.global_requests, shipped.global_requests);
}

TEST(CalibrationProfile, JsonRoundTripIsLossless) {
  const CalibrationProfile original = perturbed_profile();
  const std::string text = to_json(original);
  const CalibrationProfile loaded = profile_from_json(text);
  for (const ParamRef& param : calibration_params()) {
    EXPECT_EQ(get_param(loaded, param.name), get_param(original, param.name))
        << param.name;  // bitwise: the writer emits shortest-round-trip doubles
  }
  EXPECT_EQ(loaded.source, original.source);
  EXPECT_EQ(loaded.host, original.host);
  EXPECT_EQ(loaded.sample_count, original.sample_count);
  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(to_json(loaded), text);
}

TEST(CalibrationProfile, JsonRejectsWrongSchemaUnknownParamsAndNegatives) {
  EXPECT_THROW((void)profile_from_json(R"({"params":{}})"), gm::PreconditionError);
  EXPECT_THROW((void)profile_from_json(R"({"schema":"gm-calibration/999","params":{}})"),
               gm::PreconditionError);
  // Profiles written before the CPU registry shrank carry the previous tag;
  // the refusal names both tags, so the cause (refit needed) is visible.
  try {
    (void)profile_from_json(R"({"schema":"gm-calibration/1","params":{}})");
    ADD_FAILURE() << "a gm-calibration/1 profile should be refused";
  } catch (const gm::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gm-calibration/1"), std::string::npos) << what;
    EXPECT_NE(what.find("gm-calibration/2"), std::string::npos) << what;
  }
  EXPECT_THROW(
      (void)profile_from_json(
          R"({"schema":"gm-calibration/2","params":{"kernel.typo_instr":3}})"),
      gm::PreconditionError);
  EXPECT_THROW(
      (void)profile_from_json(
          R"({"schema":"gm-calibration/2","params":{"cpu.serial_step_ns":-1}})"),
      gm::PreconditionError);
  // A sample count is a non-negative int: neither a negative one nor one
  // that an int cast would wrap to -1,294,967,296 loads.
  EXPECT_THROW(
      (void)profile_from_json(R"({"schema":"gm-calibration/2","samples":-5,"params":{}})"),
      gm::PreconditionError);
  EXPECT_THROW((void)profile_from_json(
                   R"({"schema":"gm-calibration/2","samples":3000000000,"params":{}})"),
               gm::PreconditionError);
  // Missing params keep their shipped defaults (forward compatibility).
  const CalibrationProfile partial = profile_from_json(
      R"({"schema":"gm-calibration/2","params":{"cpu.serial_step_ns":2.5}})");
  EXPECT_DOUBLE_EQ(partial.cpu.serial_step_ns, 2.5);
  EXPECT_DOUBLE_EQ(partial.cpu.scan_drain_ns, planner::CpuCostConstants{}.scan_drain_ns);
}

TEST(CalibrationProfile, ApplyInstallsBothConstantBlocks) {
  const CalibrationProfile profile = perturbed_profile();
  planner::PlannerOptions options;
  apply_profile(profile, options);
  EXPECT_DOUBLE_EQ(options.cpu_constants.scan_drain_ns, profile.cpu.scan_drain_ns);
  EXPECT_DOUBLE_EQ(options.kernel_costs.bucket_probe_instr,
                   profile.kernel.bucket_probe_instr);

  // And the planner's scored table moves with the applied constants.
  planner::PlannerOptions shipped;
  shipped.cpu_threads = 4;
  shipped.enable_gpu = false;
  planner::PlannerOptions fitted = shipped;
  apply_profile(profile, fitted);
  const planner::Workload w = cpu_workload();
  const auto find_serial = [](const planner::Plan& plan) {
    for (const auto& c : plan.table) {
      if (c.config.kind == planner::BackendKind::kCpuSerial) return c.predicted_ms;
    }
    return -1.0;
  };
  const double shipped_ms = find_serial(plan_level(w, shipped));
  const double fitted_ms = find_serial(plan_level(w, fitted));
  EXPECT_DOUBLE_EQ(fitted_ms / shipped_ms, profile.cpu.serial_step_ns / 1.1);
}

TEST(CalibrationProfile, MeasuredBiasReordersThePlan) {
  // The AutoBackend feedback path: a large measured bias on the would-be
  // winner must flip the pick, and the note must say the prediction is
  // biased.
  planner::PlannerOptions options;
  options.cpu_threads = 4;
  options.enable_gpu = false;
  const planner::Workload w = cpu_workload();
  const std::string winner = plan_level(w, options).winner().config.label();

  options.measured_bias[winner] = 1000.0;
  const planner::Plan biased = plan_level(w, options);
  EXPECT_NE(biased.winner().config.label(), winner);
  for (const auto& c : biased.table) {
    if (c.config.label() == winner) {
      EXPECT_NE(c.reason.find("measured bias"), std::string::npos) << c.reason;
    }
  }
}

// ---------------------------------------------------------------------------
// Fitter
// ---------------------------------------------------------------------------

std::vector<FitSample> synthetic_cpu_samples(const CalibrationProfile& truth) {
  std::vector<FitSample> samples;
  // Shapes chosen so each constant is identifiable: serial samples pin
  // serial_step_ns, single-scan samples split probe/drain via different
  // alphabet sizes, dense samples pin scan_dense_step_ns.
  for (const std::int64_t db : {400'000, 1'000'000, 2'500'000}) {
    for (const int alphabet : {32, 128}) {
      planner::Workload w;
      w.db_size = db;
      w.episode_count = 160;
      w.level = 3;
      w.alphabet_size = alphabet;

      FitSample serial;
      serial.workload = w;
      serial.config.kind = planner::BackendKind::kCpuSerial;
      samples.push_back(serial);

      FitSample scan;
      scan.workload = w;
      scan.config.kind = planner::BackendKind::kCpuSingleScan;
      samples.push_back(scan);

      FitSample dense;
      dense.workload = w;
      dense.workload.semantics = core::Semantics::kContiguousRestart;
      dense.config.kind = planner::BackendKind::kCpuSingleScan;
      samples.push_back(dense);
    }
  }
  for (FitSample& sample : samples) {
    sample.measured_ms = predict_sample_ms(truth, sample);
  }
  return samples;
}

TEST(CalibrationFitter, RecoversPerturbedCpuConstantsFromSyntheticSamples) {
  CalibrationProfile truth;
  truth.cpu.serial_step_ns = 3.3;       // 3x the shipped 1.1
  truth.cpu.scan_drain_ns = 30.0;       // just under 2x the shipped 16.0
  truth.cpu.scan_dense_step_ns = 0.75;  // well under the shipped 1.2
  const std::vector<FitSample> samples = synthetic_cpu_samples(truth);

  CalibrationProfile fitted;
  const FitReport report = fit_profile(fitted, samples);
  EXPECT_GT(report.initial_loss, 0.0);
  EXPECT_LT(report.final_loss, report.initial_loss * 0.01);
  EXPECT_EQ(fitted.source, "fitted");
  EXPECT_EQ(fitted.sample_count, static_cast<int>(samples.size()));
  EXPECT_FALSE(report.adjusted.empty());

  EXPECT_NEAR(fitted.cpu.serial_step_ns, 3.3, 0.1);
  EXPECT_NEAR(fitted.cpu.scan_dense_step_ns, 0.75, 0.05);
  // Untouched-by-any-sample constants keep their shipped values.
  EXPECT_DOUBLE_EQ(fitted.cpu.thread_spawn_us,
                   planner::CpuCostConstants{}.thread_spawn_us);
  // A refit on the same samples is stable (no drift on re-entry).
  CalibrationProfile refitted = fitted;
  const FitReport again = fit_profile(refitted, samples);
  EXPECT_LE(again.final_loss, report.final_loss * 1.01 + 1e-12);
}

TEST(CalibrationFitter, LowersLossOnGpuKernelSamples) {
  CalibrationProfile truth;
  truth.kernel.bucket_probe_instr = 6.0;  // 2x shipped
  truth.kernel.bucket_drain_instr = 9.0;  // 3x shipped

  std::vector<FitSample> samples;
  for (const int tpb : {32, 64}) {
    for (const int alphabet : {16, 64}) {
      FitSample sample;
      sample.workload.db_size = 30'000;
      sample.workload.episode_count = 640;
      sample.workload.level = 2;
      sample.workload.alphabet_size = alphabet;
      sample.config.kind = planner::BackendKind::kGpuSim;
      sample.config.algorithm = kernels::Algorithm::kBlockBucketed;
      sample.config.threads_per_block = tpb;
      sample.device = gpusim::geforce_gtx_280();
      sample.measured_ms = predict_sample_ms(truth, sample);
      samples.push_back(std::move(sample));
    }
  }

  CalibrationProfile fitted;
  const FitReport report = fit_profile(fitted, samples);
  EXPECT_LT(report.final_loss, report.initial_loss * 0.25);
  // The charge terms are collinear (several raise per-symbol work the same
  // way), so individual constants are not identifiable — but the fitted
  // *predictions* must land on the measurements.
  for (const FitSample& sample : samples) {
    EXPECT_NEAR(predict_sample_ms(fitted, sample) / sample.measured_ms, 1.0, 0.03);
  }
}

TEST(CalibrationFitter, PricesEveryFeasibleRowAsThePlannerRanksIt) {
  // The fitter must fit constants to the curve the planner ranks with.  The
  // card axis is in the table: distrib-gpu also pays the host fold's
  // boundary rescans, which the fitter once left out.
  const core::Alphabet alphabet(26);
  const core::Sequence db = data::uniform_database(alphabet, 20'000, 1);
  const std::vector<core::Episode> episodes = core::all_distinct_episodes(alphabet, 2);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  const planner::Workload w = planner::workload_of(request);

  planner::PlannerOptions options;
  options.cpu_threads = 4;
  options.device_sweep = {1, 2, 4};
  const planner::Plan plan = plan_level(w, options);
  int distrib_gpu_rows = 0;
  for (const planner::ScoredCandidate& row : plan.table) {
    if (!row.feasible) continue;
    FitSample sample;
    sample.workload = w;
    sample.config = row.config;
    sample.device = options.device;
    sample.cost_params = options.cost_params;
    EXPECT_EQ(predict_sample_ms(CalibrationProfile{}, sample), row.predicted_ms)
        << row.config.label();
    distrib_gpu_rows += row.config.kind == planner::BackendKind::kDistrib ? 1 : 0;
  }
  EXPECT_EQ(distrib_gpu_rows, 3);
}

TEST(CalibrationFitter, StaysNonNegativeOnZeroMeasurements) {
  // Measured times of zero pull every exercised constant toward the lower
  // bound; the bound is 0, never below.
  std::vector<FitSample> samples;
  FitSample sample;
  sample.workload = cpu_workload();
  sample.config.kind = planner::BackendKind::kCpuSerial;
  sample.measured_ms = 0.0;
  samples.push_back(sample);

  CalibrationProfile fitted;
  (void)fit_profile(fitted, samples);
  for (const ParamRef& param : calibration_params()) {
    EXPECT_GE(get_param(fitted, param.name), 0.0) << param.name;
  }
  EXPECT_LT(fitted.cpu.serial_step_ns, 1.1);
}

TEST(CalibrationFitter, RejectsDegenerateInputs) {
  CalibrationProfile profile;
  EXPECT_THROW((void)fit_profile(profile, {}), gm::PreconditionError);

  FitSample bad;
  bad.workload = cpu_workload();
  bad.config.kind = planner::BackendKind::kCpuSerial;
  bad.measured_ms = -1.0;
  std::vector<FitSample> samples = {bad};
  EXPECT_THROW((void)fit_profile(profile, samples), gm::PreconditionError);

  samples[0].measured_ms = 1.0;
  samples[0].weight = 0.0;
  EXPECT_THROW((void)fit_profile(profile, samples), gm::PreconditionError);
}

}  // namespace
}  // namespace gm::calib
