#include "core/cpu_backend.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"

namespace gm::core {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

CountResult SerialCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all(request.episodes, request.database, request.semantics,
                            request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

std::vector<std::int64_t> count_all_stream_chunks(std::span<const Episode> episodes,
                                                  std::span<const Symbol> database,
                                                  Semantics semantics, ExpiryPolicy expiry,
                                                  int workers, std::int64_t* rescanned_symbols) {
  gm::expects(workers >= 1, "need at least one worker");
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  if (rescanned_symbols != nullptr) *rescanned_symbols = 0;
  std::vector<std::int64_t> counts(episodes.size(), 0);
  if (episodes.empty() || database.empty()) return counts;

  const int chunks = workers * kChunksPerShard;
  const auto bounds = chunk_boundaries(static_cast<std::int64_t>(database.size()), chunks);

  // Map: every chunk scanned cold at its absolute offset by whichever worker
  // claims it.  Each writes only its chunk's slot, read after the pool
  // joins; a worker keeps one arena across its chunks (reset() re-files the
  // automata but keeps all capacity).
  std::vector<std::vector<EpisodeProgress>> cold(static_cast<std::size_t>(chunks));
  std::vector<std::optional<MultiCounter>> arenas(static_cast<std::size_t>(workers));
  gm::parallel_for(workers, chunks, [&](int worker, std::int64_t chunk) {
    const auto c = static_cast<std::size_t>(chunk);
    auto& arena = arenas[static_cast<std::size_t>(worker)];
    if (arena.has_value()) {
      arena->reset();
    } else {
      arena.emplace(episodes, semantics, expiry);
    }
    arena->advance_batch(database.subspan(static_cast<std::size_t>(bounds[c]),
                                          static_cast<std::size_t>(bounds[c + 1] - bounds[c])),
                         bounds[c]);
    cold[c] = arena->progress();
  });

  // Reduce: each task folds a contiguous run of episodes, so workers write
  // disjoint runs of `counts` and keep their gather buffer and rescan tally
  // private.
  const int runs = static_cast<int>(
      std::min<std::int64_t>(chunks, static_cast<std::int64_t>(episodes.size())));
  std::vector<std::vector<EpisodeProgress>> gathered(static_cast<std::size_t>(workers));
  std::vector<std::int64_t> rescanned(static_cast<std::size_t>(workers), 0);
  gm::parallel_for(workers, runs, [&](int worker, std::int64_t run) {
    auto& records = gathered[static_cast<std::size_t>(worker)];
    records.resize(static_cast<std::size_t>(chunks));
    const ChunkRange range = chunk_range(static_cast<std::int64_t>(episodes.size()), runs,
                                         static_cast<int>(run));
    std::int64_t run_rescanned = 0;
    for (auto e = static_cast<std::size_t>(range.begin);
         e < static_cast<std::size_t>(range.end); ++e) {
      for (std::size_t c = 0; c < cold.size(); ++c) records[c] = cold[c][e];
      std::int64_t replayed = 0;
      counts[e] = fold_cold_scans(episodes[e].symbols(), semantics, expiry, database,
                                  /*base=*/0, bounds, records, /*entry=*/{}, /*exit=*/nullptr,
                                  &replayed);
      run_rescanned += replayed;
    }
    rescanned[static_cast<std::size_t>(worker)] += run_rescanned;
  });
  if (rescanned_symbols != nullptr) {
    for (const std::int64_t r : rescanned) *rescanned_symbols += r;
  }
  return counts;
}

ParallelCpuBackend::ParallelCpuBackend(int threads)
    : threads_(gm::resolved_thread_count(threads)) {}

std::string ParallelCpuBackend::name() const {
  return "cpu-parallel-x" + std::to_string(threads_);
}

CountResult ParallelCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all_stream_chunks(request.episodes, request.database, request.semantics,
                                          request.expiry, threads_);
  result.host_ms = elapsed_ms(start);
  return result;
}

CountResult SingleScanCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all_single_scan(request.episodes, request.database, request.semantics,
                                        request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

CountResult LaneCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts =
      count_all_lanes(request.episodes, request.database, request.semantics, request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

int LaneCpuBackend::max_level() const { return kLaneMaxLevel; }

std::unique_ptr<CountingBackend> make_cpu_backend(std::string_view name, int threads) {
  auto matches = [&](std::string_view canonical) {
    return name == canonical ||
           (canonical.starts_with("cpu-") && name == canonical.substr(4));
  };
  if (matches("cpu-serial")) return std::make_unique<SerialCpuBackend>();
  if (matches("cpu-parallel")) return std::make_unique<ParallelCpuBackend>(threads);
  if (matches("cpu-single-scan")) return std::make_unique<SingleScanCpuBackend>();
  if (matches("cpu-lane-scan")) return std::make_unique<LaneCpuBackend>();
  return nullptr;
}

}  // namespace gm::core
