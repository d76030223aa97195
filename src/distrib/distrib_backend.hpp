// DistribBackend: the stream split across N simulated cards with an exact
// recombination — the distribution layer's CountingBackend, and the
// subsystem that retires the seed-era mapreduce/ module and
// kernels/multi_gpu.* predictor.
//
// This is the paper's block-level MapReduce granularity (section 3.3.1,
// Algorithms 3-4) spread over cards.  Counts come from cpu-parallel's host
// map (core::count_all_stream_chunks over N workers): N x
// core::kChunksPerShard equal chunks, each cold-scanned on the single-scan
// engine at its absolute offset, folded in chunk order by
// core::fold_cold_scans — the "intermediate step" of the paper's Figure 5,
// bit-exact against the serial reference for every semantics x expiry
// combination, including the position-dependent expiry case that defeats
// blind transfer composition.  On top of that map the backend keeps only the
// simulated-card charge, distrib::card_time_ms: chunk c is billed to card
// c / kChunksPerShard at the kernels workload model's time for the chunk,
// and simulated_kernel_ms is the slowest card's total, so N cards
// halve-and-again the simulated wall-clock the way the paper's dual-die GX2
// would.  The planner prices distrib-gpu-xN with the same function on the
// spec planner::workload_of measures, so a planned backend bills exactly its
// price; host map and fold time stay on the host clock (host_ms).
#pragma once

#include <cstdint>
#include <string>

#include "core/counting.hpp"
#include "kernels/mining_kernels.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"

namespace gm::distrib {

struct DistribOptions {
  int shards = 2;
  /// The card every shard simulates, its launch shape, and the cost
  /// constants the per-chunk charge is computed with.
  gpusim::DeviceSpec device;
  kernels::MiningLaunchParams launch = {};
  kernels::KernelCostProfile kernel_costs = {};
  gpusim::CostParams cost_params = {};

  DistribOptions();  ///< defaults the device to the paper's GTX 280
};

class DistribBackend final : public core::CountingBackend {
 public:
  explicit DistribBackend(DistribOptions options = {});

  /// The cards' launch and card are spelled as SimGpuBackend::name() spells
  /// them, so two cards running algorithm 2 at 32 threads per block are
  /// "distrib-x2[gpusim/algo2-thread-buffered/t32/<card>]".
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] core::CountResult count(const core::CountRequest& request) override;
  /// The cards run the staged kernels, so the backend inherits their
  /// frame-register level cap.
  [[nodiscard]] int max_level() const override;

  /// Telemetry of the most recent count().
  struct RunTelemetry {
    std::int64_t rescanned_symbols = 0;  ///< fold fix-up work (lockstep replay)
    int chunks = 0;  ///< the billed grid, shards x kChunksPerShard
  };
  [[nodiscard]] const RunTelemetry& last_run() const noexcept { return telemetry_; }
  [[nodiscard]] const DistribOptions& options() const noexcept { return options_; }

 private:
  DistribOptions options_;
  RunTelemetry telemetry_;
};

}  // namespace gm::distrib
