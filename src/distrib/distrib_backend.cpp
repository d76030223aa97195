#include "distrib/distrib_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/episode_trie.hpp"
#include "distrib/scale_model.hpp"
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

  // The cards' spec is measured the way planner::workload_of measures a
  // request, so the bill equals the planner's price for it.
  kernels::WorkloadSpec spec;
  for (const auto& e : request.episodes) spec.level = std::max(spec.level, e.level());
  gm::expects(spec.level <= kernels::kMaxLevel,
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
  telemetry_.chunks = options_.shards * core::kChunksPerShard;

  spec.db_size = static_cast<std::int64_t>(request.database.size());
  spec.episode_count = static_cast<std::int64_t>(request.episodes.size());
  spec.alphabet_size =
      static_cast<int>(*std::max_element(request.database.begin(), request.database.end())) + 1;
  spec.params = options_.launch;
  spec.params.semantics = request.semantics;
  spec.params.expiry = request.expiry;
  if (kernels::is_bucketed(spec.params.algorithm)) {
    spec.symbol_freq = kernels::measured_symbol_freq(request.database, spec.alphabet_size);
    spec.prefix_compression = core::prefix_compression(request.episodes);
  }
  result.simulated_kernel_ms =
      card_time_ms(options_.device, spec, options_.shards,
                   gpusim::CostModel(options_.cost_params), options_.kernel_costs);
  result.host_ms = elapsed_ms(start);
  return result;
}

}  // namespace gm::distrib
