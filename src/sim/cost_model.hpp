// Analytic timing model: (DeviceSpec, LaunchConfig, KernelProfile) -> time.
//
// The model reproduces the first-order mechanisms the paper's eight
// characterizations invoke:
//
//  * issue throughput — an SM retires one warp instruction per
//    `cycles_per_warp_instruction` (4) cycles; total issue demand grows with
//    resident warps (paper C1/C7: clock-bound thread-level kernels).
//  * dependent-chain latency — the mining kernels advance one database symbol
//    per fetch, so a warp cannot run faster than its serial memory chain; a
//    wave cannot finish before its slowest warp (explains why 2 warps and 12
//    warps can take the same time: latency is only hidden once enough warps
//    supply issue work — paper Fig 6(a) vs 6(b)).
//  * texture-cache behaviour — priced from each block's declared
//    TexturePattern: per-SM working set = concurrent streams x line size;
//    overflowing the 8 KB cache multiplies traffic (paper C5/C8).
//  * bandwidth contention — device bytes/cycle shared by busy SMs (C8).
//  * occupancy waves + per-block dispatch and per-barrier costs (C2/C3/C6).
//
// Blocks are dealt to SMs in launch order, `Occupancy::active_blocks_per_sm`
// at a time; a wave's time is the max over busy SMs of
//   max(issue, slowest-warp latency path, bandwidth) + sync + dispatch.
#pragma once

#include <string>

#include "sim/device_spec.hpp"
#include "sim/launch.hpp"
#include "sim/occupancy.hpp"
#include "sim/profile.hpp"

namespace gpusim {

/// Calibration constants of the timing model.  Defaults are first-principles
/// estimates for CC 1.x parts, refined against the paper's published curves
/// (see tests/sim/cost_model_calibration_test.cpp and EXPERIMENTS.md).
struct CostParams {
  /// Host-side launch + driver overhead added to every kernel (the paper
  /// measures invocation-to-return, which includes it).
  double kernel_launch_overhead_us = 20.0;
  /// SM-side cost of scheduling one block (fetch parameters, init barriers).
  double block_dispatch_cycles = 1500.0;
  /// Cost of one __syncthreads barrier for one block (drain + resync).
  double barrier_cycles = 120.0;
  /// Outstanding memory requests per warp.  1.0 models fully dependent
  /// chains (the FSM scan); larger values model unrolled/prefetched code.
  double mem_level_parallelism = 1.0;
  /// Concurrent per-lane strided streams per SM beyond which effective DRAM
  /// bandwidth degrades (row-buffer thrashing).
  double bandwidth_stream_knee = 2048.0;
};

/// Predicted execution time with its mechanism decomposition.
struct TimeBreakdown {
  double total_ms = 0.0;
  double launch_ms = 0.0;     ///< fixed launch overhead
  double issue_ms = 0.0;      ///< waves bound by warp-instruction issue
  double latency_ms = 0.0;    ///< waves bound by the slowest warp's chain
  double bandwidth_ms = 0.0;  ///< waves bound by device-memory bandwidth
  double sync_ms = 0.0;       ///< barrier costs
  double dispatch_ms = 0.0;   ///< block scheduling costs
  int waves = 0;
  std::string bound_by;       ///< dominant mechanism over the whole kernel

  [[nodiscard]] double milliseconds() const noexcept { return total_ms; }
};

class CostModel {
 public:
  explicit CostModel(CostParams params = {}) : params_(params) {}

  [[nodiscard]] const CostParams& params() const noexcept { return params_; }

  /// Predict the kernel's execution time on `device`.
  [[nodiscard]] TimeBreakdown predict(const DeviceSpec& device, const LaunchConfig& launch,
                                      const KernelProfile& profile) const;

 private:
  CostParams params_;
};

}  // namespace gpusim
