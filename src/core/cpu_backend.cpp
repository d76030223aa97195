#include "core/cpu_backend.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/episode_trie.hpp"
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

int resolved_thread_count(int threads) noexcept {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  return threads > 0 ? threads : 1;
}

namespace {

/// Run `work(worker_index)` on min(threads, tasks) threads (inline when one
/// suffices).  Shared by the parallel backends.
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

/// Claim episode indices from a shared counter, compute `count_one(i)` for
/// each, and write the results into `out` after the join.  Workers accumulate
/// (episode, count) pairs privately so no two threads ever write adjacent
/// `out` slots (false sharing).
template <typename CountFn>
void count_episodes_on_pool(int threads, std::vector<std::int64_t>& out,
                            CountFn&& count_one) {
  const std::size_t episode_count = out.size();
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> partials(
      static_cast<std::size_t>(threads));
  run_on_pool(threads, episode_count, [&](int worker) {
    auto& local = partials[static_cast<std::size_t>(worker)];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= episode_count) return;
      local.emplace_back(i, count_one(i));
    }
  });
  for (const auto& local : partials) {
    for (const auto& [episode, occurrences] : local) out[episode] = occurrences;
  }
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

ParallelCpuBackend::ParallelCpuBackend(int threads) : threads_(resolved_thread_count(threads)) {}

std::string ParallelCpuBackend::name() const {
  return "cpu-parallel-x" + std::to_string(threads_);
}

CountResult ParallelCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts.assign(request.episodes.size(), 0);
  count_episodes_on_pool(threads_, result.counts, [&](std::size_t i) {
    return count_occurrences(request.episodes[i], request.database, request.semantics,
                             request.expiry);
  });
  result.host_ms = elapsed_ms(start);
  return result;
}

ShardedCpuBackend::ShardedCpuBackend(int threads) : threads_(resolved_thread_count(threads)) {}

std::string ShardedCpuBackend::name() const {
  return "cpu-sharded-x" + std::to_string(threads_);
}

CountResult ShardedCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  const std::size_t episode_count = request.episodes.size();
  result.counts.assign(episode_count, 0);
  if (episode_count == 0 || request.database.empty()) {
    result.host_ms = elapsed_ms(start);
    return result;
  }

  if (!request.expiry.enabled()) {
    const int shards = threads_;
    const auto bounds =
        chunk_boundaries(static_cast<std::int64_t>(request.database.size()), shards);
    const auto shard_count = static_cast<std::size_t>(shards);
    // Map: every (episode, shard) task computes the shard's transfer function
    // independently.  Fold: compose exit states left to right — exactly the
    // serial count (see segment_counter.hpp, kStateComposition).
    std::vector<SegmentTransfer> transfers(episode_count * shard_count);
    std::atomic<std::size_t> next{0};
    run_on_pool(threads_, transfers.size(), [&](int) {
      for (;;) {
        const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
        if (task >= transfers.size()) return;
        const std::size_t episode = task / shard_count;
        const std::size_t shard = task % shard_count;
        transfers[task] = segment_transfer(request.episodes[episode].symbols(),
                                           request.semantics, request.expiry,
                                           request.database, bounds[shard], bounds[shard + 1]);
      }
    });
    for (std::size_t e = 0; e < episode_count; ++e) {
      std::int64_t occurrences = 0;
      int state = 0;
      for (std::size_t c = 0; c < shard_count; ++c) {
        const SegmentOutcome& outcome =
            transfers[e * shard_count + c].by_entry_state[static_cast<std::size_t>(state)];
        occurrences += outcome.count;
        state = outcome.exit_state;
      }
      result.counts[e] = occurrences;
    }
  } else {
    // Expiry makes the transfer function depend on absolute positions, so a
    // blind per-shard map is not well-defined; scan each episode serially
    // (chaining contiguous chunks from entry state 0 IS the serial scan) and
    // let the parallel axis degrade to episodes.
    count_episodes_on_pool(threads_, result.counts, [&](std::size_t e) {
      return count_occurrences(request.episodes[e], request.database, request.semantics,
                               request.expiry);
    });
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

CountResult TrieCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all_trie_scan(request.episodes, request.database, request.semantics,
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
  if (matches("cpu-sharded")) return std::make_unique<ShardedCpuBackend>(threads);
  if (matches("cpu-single-scan")) return std::make_unique<SingleScanCpuBackend>();
  if (matches("cpu-trie-scan")) return std::make_unique<TrieCpuBackend>();
  if (matches("cpu-lane-scan")) return std::make_unique<LaneCpuBackend>();
  return nullptr;
}

}  // namespace gm::core
