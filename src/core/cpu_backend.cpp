#include "core/cpu_backend.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
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

ParallelCpuBackend::ParallelCpuBackend(int threads)
    : threads_(gm::resolved_thread_count(threads)) {}

std::string ParallelCpuBackend::name() const {
  return "cpu-parallel-x" + std::to_string(threads_);
}

CountResult ParallelCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  // Validate the whole request up front, so a bad one fails before any
  // episode is counted.
  for (const auto& e : request.episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  CountResult result;
  result.counts.assign(request.episodes.size(), 0);
  // One task per episode.  Workers accumulate (episode, count) pairs
  // privately, so no two threads ever write adjacent result slots (false
  // sharing); the merge runs after the join.
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> partials(
      static_cast<std::size_t>(threads_));
  gm::parallel_for(threads_, static_cast<std::int64_t>(request.episodes.size()),
                   [&](int worker, std::int64_t task) {
                     const auto i = static_cast<std::size_t>(task);
                     partials[static_cast<std::size_t>(worker)].emplace_back(
                         i, count_occurrences(request.episodes[i], request.database,
                                              request.semantics, request.expiry));
                   });
  for (const auto& local : partials) {
    for (const auto& [episode, occurrences] : local) result.counts[episode] = occurrences;
  }
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
