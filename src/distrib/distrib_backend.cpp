#include "distrib/distrib_backend.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/multi_counter.hpp"
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

std::string to_string(WorkerKind kind) {
  switch (kind) {
    case WorkerKind::kSingleScan: return "cpu-single-scan";
    case WorkerKind::kGpuSim: return "gpusim";
  }
  return "?";
}

DistribOptions::DistribOptions() : device(gpusim::geforce_gtx_280()) {}

DistribBackend::DistribBackend(DistribOptions options) : options_(std::move(options)) {
  gm::expects(options_.shards >= 1, "need at least one shard");
}

std::string DistribBackend::name() const {
  const std::string worker = options_.worker == WorkerKind::kGpuSim
                                 ? kernels::sim_gpu_name(options_.device, options_.launch)
                                 : to_string(options_.worker);
  return "distrib-x" + std::to_string(options_.shards) + "[" + worker + "]";
}

int DistribBackend::max_level() const {
  return options_.worker == WorkerKind::kGpuSim ? kernels::kMaxLevel : 0;
}

core::CountResult DistribBackend::count(const core::CountRequest& request) {
  const auto start = Clock::now();
  core::CountResult result;
  result.counts.assign(request.episodes.size(), 0);
  telemetry_ = {};

  // Validate the whole request up front, so a bad one fails before any chunk
  // is scanned.
  int max_level_requested = 0;
  for (const auto& e : request.episodes) {
    gm::expects(!e.empty(), "cannot count an empty episode");
    max_level_requested = std::max(max_level_requested, e.level());
  }
  if (options_.worker == WorkerKind::kGpuSim) {
    gm::expects(max_level_requested <= kernels::kMaxLevel,
                "gpusim worker caps the level at kernels::kMaxLevel "
                "(frame-register episode staging)");
  }
  if (request.episodes.empty() || request.database.empty()) {
    result.host_ms = elapsed_ms(start);
    return result;
  }

  const ShardPlan plan = make_shard_plan(request.database, request.episodes, options_.shards);
  const int chunks = plan.chunk_count();
  telemetry_.chunks = chunks;
  const std::size_t episode_count = request.episodes.size();

  // Map phase: every chunk scanned cold at its absolute offset by whichever
  // worker claims it.  All writes are chunk-private slots read only after the
  // pool joins; each worker keeps one single-scan arena across every chunk it
  // claims (reset() re-files the automata but keeps all capacity), so the
  // engine's arena is allocated per worker, not per chunk.
  std::vector<std::vector<core::EpisodeProgress>> cold(static_cast<std::size_t>(chunks));
  std::vector<std::optional<core::MultiCounter>> arenas(
      static_cast<std::size_t>(options_.shards));
  gm::parallel_for(options_.shards, chunks, [&](int worker, std::int64_t chunk) {
    const std::int64_t begin = plan.chunk_bounds[static_cast<std::size_t>(chunk)];
    const std::int64_t end = plan.chunk_bounds[static_cast<std::size_t>(chunk) + 1];
    auto& arena = arenas[static_cast<std::size_t>(worker)];
    if (arena.has_value()) {
      arena->reset();
    } else {
      arena.emplace(request.episodes, request.semantics, request.expiry);
    }
    arena->advance_batch(request.database.subspan(static_cast<std::size_t>(begin),
                                                  static_cast<std::size_t>(end - begin)),
                         begin);
    cold[static_cast<std::size_t>(chunk)] = arena->progress();
  });

  // Reduce phase: exact fold of the cold records in chunk order.
  std::vector<core::EpisodeProgress> per_episode(static_cast<std::size_t>(chunks));
  for (std::size_t e = 0; e < episode_count; ++e) {
    for (int c = 0; c < chunks; ++c) {
      per_episode[static_cast<std::size_t>(c)] = cold[static_cast<std::size_t>(c)][e];
    }
    std::int64_t rescanned = 0;
    result.counts[e] = core::fold_cold_scans(
        request.episodes[e].symbols(), request.semantics, request.expiry, request.database,
        /*base=*/0, plan.chunk_bounds, per_episode, /*entry=*/{}, /*exit=*/nullptr,
        &rescanned);
    telemetry_.rescanned_symbols += rescanned;
  }

  // Simulated cards: charge each chunk's analytic kernel time to the card
  // that OWNS it — the modeled deployment pins chunks to cards, so the
  // device-time prediction stays deterministic whichever host worker scanned
  // the chunk.  Cards run concurrently, so the backend's device time is the
  // slowest card's accumulated total.
  if (options_.worker == WorkerKind::kGpuSim) {
    int alphabet = 1;
    for (const core::Symbol s : request.database) {
      alphabet = std::max(alphabet, static_cast<int>(s) + 1);
    }
    const gpusim::CostModel model(options_.cost_params);
    std::vector<double> card_ms(static_cast<std::size_t>(options_.shards), 0.0);
    for (int c = 0; c < chunks; ++c) {
      const std::int64_t size = plan.chunk_bounds[static_cast<std::size_t>(c) + 1] -
                                plan.chunk_bounds[static_cast<std::size_t>(c)];
      if (size == 0) continue;
      kernels::WorkloadSpec spec;
      spec.db_size = size;
      spec.episode_count = static_cast<std::int64_t>(episode_count);
      spec.level = max_level_requested;
      spec.alphabet_size = alphabet;
      spec.params = options_.launch;
      spec.params.semantics = request.semantics;
      spec.params.expiry = request.expiry;
      card_ms[static_cast<std::size_t>(plan.home_shard(c))] +=
          kernels::predict_mining_time(options_.device, spec, model, options_.kernel_costs)
              .total_ms;
    }
    result.simulated_kernel_ms = *std::max_element(card_ms.begin(), card_ms.end());
  }

  result.host_ms = elapsed_ms(start);
  return result;
}

}  // namespace gm::distrib
