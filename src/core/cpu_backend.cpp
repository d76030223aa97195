#include "core/cpu_backend.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
#include "core/serial_counter.hpp"

namespace gm::core {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Run `work(worker_index)` on min(threads, tasks) threads (inline when one
/// suffices).
template <typename Fn>
void run_on_pool(int threads, std::size_t tasks, Fn&& work) {
  const std::size_t cap = std::max<std::size_t>(tasks, 1);
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads), cap));
  if (workers <= 1) {
    work(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back([&work, w] { work(w); });
  for (auto& t : pool) t.join();
}

}  // namespace

int resolved_thread_count(int threads) noexcept {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  return threads > 0 ? threads : 1;
}

CountResult SerialCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all(request.episodes, request.database, request.semantics,
                            request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

ParallelCpuBackend::ParallelCpuBackend(int threads) : threads_(resolved_thread_count(threads)) {}

std::string ParallelCpuBackend::name() const {
  return "cpu-parallel-x" + std::to_string(threads_);
}

CountResult ParallelCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  // Validate on the calling thread: a worker-thread throw would terminate.
  for (const auto& e : request.episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  CountResult result;
  const std::size_t episode_count = request.episodes.size();
  result.counts.assign(episode_count, 0);
  // Workers claim episode indices from a shared counter and accumulate
  // (episode, count) pairs privately, so no two threads ever write adjacent
  // result slots (false sharing); the merge runs after the join.
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> partials(
      static_cast<std::size_t>(threads_));
  run_on_pool(threads_, episode_count, [&](int worker) {
    auto& local = partials[static_cast<std::size_t>(worker)];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= episode_count) return;
      local.emplace_back(i, count_occurrences(request.episodes[i], request.database,
                                              request.semantics, request.expiry));
    }
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
