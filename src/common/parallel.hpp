// The host worker pool: one fork-join loop for every layer that spreads
// independent tasks over host threads.
//
// cpu-parallel runs one task per episode (the paper's thread-level mapping),
// DistribBackend one per chunk of its shard plan (the block-level mapping),
// and the functional GPU engine one per simulated block.  All three claim
// tasks the same way, resolve a request of 0 threads the same way, and see a
// worker's exception the same way: rethrown on the calling thread, never a
// terminated process.
#pragma once

#include <cstdint>
#include <functional>

namespace gm {

/// The thread count a request of `threads` means: 0 (or less) resolves to the
/// hardware concurrency, and the result is never below 1.  Exposed so a
/// planner predicting a backend's time applies the rule the backend runs by.
[[nodiscard]] int resolved_thread_count(int threads) noexcept;

/// Run `fn(worker, task)` exactly once for every task in [0, tasks) on
/// min(resolved_thread_count(workers), tasks) threads, or on the calling
/// thread alone when that count is 1.  Tasks are claimed in index order from
/// one shared atomic cursor, and `worker` is a stable index below the thread
/// count, so a caller can keep worker-private state in a vector of `workers`
/// slots.  The first exception a task throws stops further claims; it is
/// rethrown here after every thread has joined.
void parallel_for(int workers, std::int64_t tasks,
                  const std::function<void(int worker, std::int64_t task)>& fn);

}  // namespace gm
