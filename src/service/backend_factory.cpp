#include "service/backend_factory.hpp"

#include "calib/calibration.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "planner/auto_backend.hpp"
#include "sim/device_spec.hpp"

namespace gm::service {

std::vector<std::string_view> backend_names() {
  return {"cpu-serial", "cpu-parallel", "cpu-single-scan", "cpu-lane-scan", "distrib",
          "distrib-gpu", "gpusim", "auto"};
}

planner::PlannerOptions planner_options_for(const BackendSpec& spec) {
  planner::PlannerOptions options;
  options.device = gpusim::device_by_name(spec.card);
  options.cpu_threads = spec.threads;
  if (spec.shards > 0) {
    // Open the device-count axis: the caller declared shards-many devices
    // exist, so "auto" scores every count up to that budget.
    options.device_sweep.resize(static_cast<std::size_t>(spec.shards));
    for (int n = 1; n <= spec.shards; ++n) {
      options.device_sweep[static_cast<std::size_t>(n - 1)] = n;
    }
  }
  if (!spec.calibration.empty()) {
    calib::apply_profile(calib::load_profile(spec.calibration), options);
  }
  return options;
}

planner::CandidateConfig candidate_for(const BackendSpec& spec) {
  using planner::BackendKind;
  const std::string_view name = spec.name;
  const auto cpu = [name](std::string_view canonical) {
    return name == canonical || name == canonical.substr(4);  // "cpu-" optional
  };
  const kernels::MiningLaunchParams& launch = spec.launch;
  if (cpu("cpu-serial")) return {.kind = BackendKind::kCpuSerial};
  if (cpu("cpu-single-scan")) return {.kind = BackendKind::kCpuSingleScan};
  if (cpu("cpu-lane-scan")) return {.kind = BackendKind::kCpuLaneScan};
  if (cpu("cpu-parallel")) {
    return {.kind = BackendKind::kCpuParallel,
            .threads = gm::resolved_thread_count(spec.threads)};
  }
  if (name == "gpusim") {
    return {.kind = BackendKind::kGpuSim,
            .algorithm = launch.algorithm,
            .threads_per_block = launch.threads_per_block,
            .trie_buckets = launch.trie_buckets};
  }
  if (name == "distrib" || name == "distrib-gpu") {
    // Host flavor defaults to one shard per hardware thread; the card flavor
    // to the paper's dual-die 9800 GX2 deployment.
    const bool gpu = name == "distrib-gpu";
    return {.kind = BackendKind::kDistrib,
            .threads = spec.shards > 0 ? spec.shards : gpu ? 2 : gm::resolved_thread_count(0),
            .algorithm = launch.algorithm,
            .threads_per_block = launch.threads_per_block,
            .distrib_gpu = gpu};
  }
  gm::expects(name != "auto", "'auto' plans a formulation per level, not one candidate");
  std::string known;
  for (const auto valid : backend_names()) {
    if (!known.empty()) known += ", ";
    known += valid;
  }
  gm::raise_precondition("unknown backend '" + spec.name + "' (expected one of: " + known +
                         ")");
}

std::unique_ptr<core::CountingBackend> make_backend(const BackendSpec& spec) {
  if (spec.name == "auto") {
    return std::make_unique<planner::AutoBackend>(planner_options_for(spec));
  }
  return planner::make_planned_backend(candidate_for(spec), planner_options_for(spec));
}

}  // namespace gm::service
