// Multi-device scaling model: when do N cards beat one?
//
// Subsumes the seed-era kernels/multi_gpu.* predictor.  Two splits are
// priced, each with the kernels workload model:
//
//  * card_time_ms — the stream split DistribBackend runs and bills: the
//    stream is cut into shards x core::kChunksPerShard equal chunks and
//    chunk c is charged to card c / kChunksPerShard.  DistribBackend::count
//    bills with it and the planner prices distrib-gpu-xN with it, so the
//    price is the bill.  It is simulated card time only: the host map and
//    fold that produce the counts run on the host clock and are not in it.
//  * predict_scaled_mining — the candidate set split across devices, each
//    running the same kernel over the whole stream (the 9800 GX2 dual-die
//    strategy the paper leaves on the table; counting is embarrassingly
//    parallel across episodes, so the reduce is concatenation).
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/workload_model.hpp"

namespace gm::distrib {

/// Simulated wall-clock of `spec` (a whole-stream workload) on `shards`
/// copies of `device` under DistribBackend's chunk map: the slowest card's
/// summed per-chunk kernel time.  Empty chunks bill nothing.  The equal cut
/// has at most two chunk sizes, so the workload model runs at most twice.
[[nodiscard]] double card_time_ms(const gpusim::DeviceSpec& device,
                                  const kernels::WorkloadSpec& spec, int shards,
                                  const gpusim::CostModel& model,
                                  const kernels::KernelCostProfile& costs);

struct ScalePrediction {
  double total_ms = 0.0;  ///< the slowest device's kernel time
  std::vector<std::int64_t> share_per_device;  ///< episodes per device
};

/// Predict kernel time when the candidate set is split across `devices`
/// copies of `device`.  devices == 1 degenerates to predict_mining_time.
[[nodiscard]] ScalePrediction predict_scaled_mining(
    const gpusim::DeviceSpec& device, int devices, const kernels::WorkloadSpec& spec,
    const gpusim::CostModel& model = gpusim::CostModel(),
    const kernels::KernelCostProfile& costs = {});

}  // namespace gm::distrib
