// Functional SIMT execution engine.
//
// Executes a kernel (one coroutine per simulated thread) block by block,
// modelling warp-lockstep issue for the hardware counters: between barriers,
// each warp's cost is the max over its lanes, matching SIMT semantics where
// divergent lanes serialize within the warp.  Blocks are independent (as in
// CUDA) and run as tasks of the host worker pool (common/parallel.hpp).
//
// The engine produces *counters*, not time — `CostModel` (sim/cost_model.hpp)
// turns a `KernelProfile` into predicted execution time for a given card.
// Texture fetches are counted, not cached: the cost model prices their
// traffic from the `TexturePattern` each fetching block declares.
#pragma once

#include <cstdint>

#include "sim/device_spec.hpp"
#include "sim/launch.hpp"
#include "sim/occupancy.hpp"
#include "sim/profile.hpp"
#include "sim/thread_ctx.hpp"

namespace gpusim {

struct EngineOptions {
  /// Host threads used to execute independent blocks; 0 = hardware default
  /// (gm::resolved_thread_count).
  int host_threads = 0;
};

struct LaunchResult {
  KernelProfile profile;
  ProfileTotals totals;
  Occupancy occupancy;
};

class Engine {
 public:
  explicit Engine(DeviceSpec spec, EngineOptions options = {});

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }

  /// Execute `kernel` under `config`.  Throws gm::DeviceError for launches the
  /// device cannot host and propagates any exception thrown by the kernel
  /// body (including divergent-barrier detection).
  [[nodiscard]] LaunchResult launch(const LaunchConfig& config, const KernelFn& kernel) const;

 private:
  DeviceSpec spec_;
  EngineOptions options_;
};

}  // namespace gpusim
