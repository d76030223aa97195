#include "distrib/distrib_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/segment_counter.hpp"
#include "kernels/gpu_backend.hpp"
#include "kernels/workload_model.hpp"

namespace gm::distrib {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

DistribOptions::DistribOptions() : device(gpusim::geforce_gtx_280()) {}

DistribBackend::DistribBackend(DistribOptions options) : options_(std::move(options)) {
  gm::expects(options_.shards >= 1, "need at least one shard");
}

std::string DistribBackend::name() const {
  return "distrib-x" + std::to_string(options_.shards) + "[" +
         kernels::sim_gpu_name(options_.device, options_.launch) + "]";
}

int DistribBackend::max_level() const { return kernels::kMaxLevel; }

core::CountResult DistribBackend::count(const core::CountRequest& request) {
  const auto start = Clock::now();
  core::CountResult result;
  telemetry_ = {};

  int max_level_requested = 0;
  for (const auto& e : request.episodes) {
    max_level_requested = std::max(max_level_requested, e.level());
  }
  gm::expects(max_level_requested <= kernels::kMaxLevel,
              "distrib cards cap the level at kernels::kMaxLevel "
              "(frame-register episode staging)");
  result.counts =
      core::count_all_stream_chunks(request.episodes, request.database, request.semantics,
                                    request.expiry, options_.shards,
                                    &telemetry_.rescanned_symbols);
  if (request.episodes.empty() || request.database.empty()) {
    result.host_ms = elapsed_ms(start);
    return result;
  }
  const int chunks = options_.shards * core::kChunksPerShard;
  telemetry_.chunks = chunks;

  // Charge each chunk's analytic kernel time to the card that owns it, so
  // the device time stays deterministic whichever host worker scanned the
  // chunk.  Cards run concurrently: the backend's device time is the
  // slowest card's total.
  int alphabet = 1;
  for (const core::Symbol s : request.database) {
    alphabet = std::max(alphabet, static_cast<int>(s) + 1);
  }
  const gpusim::CostModel model(options_.cost_params);
  std::vector<double> card_ms(static_cast<std::size_t>(options_.shards), 0.0);
  for (int c = 0; c < chunks; ++c) {
    const core::ChunkRange range =
        core::chunk_range(static_cast<std::int64_t>(request.database.size()), chunks, c);
    if (range.size() == 0) continue;
    kernels::WorkloadSpec spec;
    spec.db_size = range.size();
    spec.episode_count = static_cast<std::int64_t>(request.episodes.size());
    spec.level = max_level_requested;
    spec.alphabet_size = alphabet;
    spec.params = options_.launch;
    spec.params.semantics = request.semantics;
    spec.params.expiry = request.expiry;
    card_ms[static_cast<std::size_t>(c / core::kChunksPerShard)] +=
        kernels::predict_mining_time(options_.device, spec, model, options_.kernel_costs)
            .total_ms;
  }
  result.simulated_kernel_ms = *std::max_element(card_ms.begin(), card_ms.end());
  result.host_ms = elapsed_ms(start);
  return result;
}

}  // namespace gm::distrib
