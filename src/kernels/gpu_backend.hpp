// Counting backend that runs the episode-counting step on the simulated GPU:
// functional execution for exact counts plus a cost-model prediction of the
// kernel time on the configured card.  Plugs into core::mine_frequent_episodes
// so the full miner (paper Algorithm 1) can run "on" any of the three cards
// with any of the four algorithms.  Every mining kernel declares its texture
// pattern, from which CostModel prices the texture traffic.
#pragma once

#include <string>

#include "core/counting.hpp"
#include "kernels/mining_kernels.hpp"
#include "sim/cost_model.hpp"

namespace gm::kernels {

/// The name of a simulated launch of `params` on `device`, as backends spell
/// it: "gpusim/<algorithm>[-trie]/t<threads per block>/<card>".
[[nodiscard]] std::string sim_gpu_name(const gpusim::DeviceSpec& device,
                                       const MiningLaunchParams& params);

class SimGpuBackend final : public core::CountingBackend {
 public:
  SimGpuBackend(gpusim::DeviceSpec device, MiningLaunchParams params,
                gpusim::CostParams cost_params = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] core::CountResult count(const core::CountRequest& request) override;
  /// The kernels stage episodes into a fixed frame-register array, capping
  /// the level at kernels::kMaxLevel.
  [[nodiscard]] int max_level() const override { return kMaxLevel; }

  [[nodiscard]] const gpusim::DeviceSpec& device() const noexcept { return engine_.spec(); }
  [[nodiscard]] const MiningLaunchParams& params() const noexcept { return params_; }

 private:
  gpusim::Engine engine_;
  MiningLaunchParams params_;
  gpusim::CostModel cost_model_;
};

}  // namespace gm::kernels
