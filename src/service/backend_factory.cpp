#include "service/backend_factory.hpp"

#include <utility>

#include "calib/calibration.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/cpu_backend.hpp"
#include "distrib/distrib_backend.hpp"
#include "kernels/gpu_backend.hpp"
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

std::unique_ptr<core::CountingBackend> make_backend(const BackendSpec& spec) {
  if (auto cpu = core::make_cpu_backend(spec.name, spec.threads)) return cpu;
  if (spec.name == "distrib" || spec.name == "distrib-gpu") {
    distrib::DistribOptions options;
    const bool gpu = spec.name == "distrib-gpu";
    // Host flavor defaults to one shard per hardware thread; the card flavor
    // to the paper's dual-die 9800 GX2 deployment.
    options.shards = spec.shards > 0 ? spec.shards
                     : gpu           ? 2
                                     : gm::resolved_thread_count(0);
    options.worker = gpu ? distrib::WorkerKind::kGpuSim : distrib::WorkerKind::kSingleScan;
    options.device = gpusim::device_by_name(spec.card);
    options.launch = spec.launch;
    return std::make_unique<distrib::DistribBackend>(options);
  }
  if (spec.name == "gpusim") {
    return std::make_unique<kernels::SimGpuBackend>(gpusim::device_by_name(spec.card),
                                                    spec.launch);
  }
  if (spec.name == "auto") {
    return std::make_unique<planner::AutoBackend>(planner_options_for(spec));
  }
  std::string known;
  for (const auto name : backend_names()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  gm::raise_precondition("unknown backend '" + spec.name + "' (expected one of: " + known +
                         ")");
}

}  // namespace gm::service
