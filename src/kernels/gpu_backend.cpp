#include "kernels/gpu_backend.hpp"

#include <chrono>

#include "common/error.hpp"

namespace gm::kernels {

SimGpuBackend::SimGpuBackend(gpusim::DeviceSpec device, MiningLaunchParams params,
                             gpusim::CostParams cost_params)
    : engine_(std::move(device)),
      params_(params),
      cost_model_(cost_params) {}

std::string sim_gpu_name(const gpusim::DeviceSpec& device, const MiningLaunchParams& params) {
  return "gpusim/" + to_string(params.algorithm) + (params.trie_buckets ? "-trie" : "") + "/t" +
         std::to_string(params.threads_per_block) + "/" + device.name;
}

std::string SimGpuBackend::name() const { return sim_gpu_name(engine_.spec(), params_); }

core::CountResult SimGpuBackend::count(const core::CountRequest& request) {
  const auto start = std::chrono::steady_clock::now();

  MiningLaunchParams params = params_;
  params.semantics = request.semantics;
  params.expiry = request.expiry;

  // Reject unsupportable requests (level > kMaxLevel, bad geometry) with an
  // actionable gm::Error before any device staging happens.
  gm::expects(!request.episodes.empty(), "count request carries no episodes");
  validate_launch_params(params, request.episodes.front().level());

  core::Sequence database(request.database.begin(), request.database.end());
  DeviceProblem problem(database, request.episodes, params);
  const gpusim::KernelFn kernel = problem.kernel();
  const gpusim::LaunchResult launch = engine_.launch(problem.launch_config(), kernel);

  core::CountResult result;
  result.counts = problem.extract_counts();
  result.simulated_kernel_ms =
      cost_model_.predict(engine_.spec(), problem.launch_config(), launch.profile).total_ms;
  result.host_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace gm::kernels
