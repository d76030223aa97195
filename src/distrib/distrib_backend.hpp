// DistribBackend: database-partitioned counting over N workers with dynamic
// chunk claims and exact recombination — the distribution layer's
// CountingBackend, and the subsystem that retires the seed-era mapreduce/
// module and kernels/multi_gpu.* predictor.
//
// This is the paper's block-level MapReduce granularity (section 3.3.1,
// Algorithms 3-4; the thread level is cpu-parallel).  count() builds a
// drain-weighted ShardPlan (kChunksPerShard chunks per shard), and its map
// runs each chunk cold on the single-scan engine over the host worker pool
// (common/parallel.hpp, one worker per shard, chunks claimed in order): every
// worker keeps one core::MultiCounter, resets it per chunk and advances it
// over the chunk at the chunk's absolute offset, so its progress() is the
// chunk's cold EpisodeProgress record.  The reduce folds
// those records in chunk order with core::fold_cold_scans — the "intermediate
// step" of the paper's Figure 5, bit-exact against the serial reference for
// every semantics x expiry combination, including the position-dependent
// expiry case that defeats blind transfer composition.
//
// Workers model two deployment shapes: host workers (the default) and a
// simulated GPU card per shard (the same host cold scans for exact counts,
// the kernels workload model for the per-chunk device charge;
// simulated_kernel_ms is the slowest card's accumulated time, so N cards
// halve-and-again the simulated wall-clock the way the paper's dual-die GX2
// would).
#pragma once

#include <cstdint>
#include <string>

#include "core/counting.hpp"
#include "distrib/shard_plan.hpp"
#include "kernels/mining_kernels.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"

namespace gm::distrib {

/// Inner engine each worker runs on the chunks it claims.
enum class WorkerKind {
  kSingleScan,  ///< core single-scan engine: one pass per chunk, all episodes
  kGpuSim,      ///< simulated card per shard: host cold scans + analytic charge
};

[[nodiscard]] std::string to_string(WorkerKind kind);

struct DistribOptions {
  int shards = 2;
  WorkerKind worker = WorkerKind::kSingleScan;
  /// kGpuSim only: the card every shard simulates, its launch shape, and the
  /// cost constants the per-chunk charge is computed with.
  gpusim::DeviceSpec device;
  kernels::MiningLaunchParams launch = {};
  kernels::KernelCostProfile kernel_costs = {};
  gpusim::CostParams cost_params = {};

  DistribOptions();  ///< defaults the device to the paper's GTX 280
};

class DistribBackend final : public core::CountingBackend {
 public:
  explicit DistribBackend(DistribOptions options = {});

  /// "distrib-x4[cpu-single-scan]"; a gpusim worker's launch and card are
  /// spelled as SimGpuBackend::name() spells them, so two-shard cards
  /// running algorithm 2 at 32 threads per block are
  /// "distrib-x2[gpusim/algo2-thread-buffered/t32/<card>]".
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] core::CountResult count(const core::CountRequest& request) override;
  /// The gpusim worker models cards running the staged kernels, so it
  /// inherits their frame-register level cap; host workers are unbounded.
  [[nodiscard]] int max_level() const override;

  /// Telemetry of the most recent count().
  struct RunTelemetry {
    std::int64_t rescanned_symbols = 0;  ///< fold fix-up work (lockstep replay)
    int chunks = 0;
  };
  [[nodiscard]] const RunTelemetry& last_run() const noexcept { return telemetry_; }
  [[nodiscard]] const DistribOptions& options() const noexcept { return options_; }

 private:
  DistribOptions options_;
  RunTelemetry telemetry_;
};

}  // namespace gm::distrib
