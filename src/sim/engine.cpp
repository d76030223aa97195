#include "sim/engine.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace gpusim {
namespace {

struct Snapshot {
  std::uint64_t instructions = 0;
  std::uint64_t tex_ops = 0;
  std::uint64_t shared_ops = 0;
  std::uint64_t global_ops = 0;
  std::uint64_t atomic_ops = 0;
};

Snapshot snap(const ThreadCounters& c) {
  return {c.instructions, c.tex_ops, c.shared_ops, c.global_ops, c.atomic_ops};
}

/// Executes one block and returns its profile.
class BlockRunner {
 public:
  BlockRunner(const DeviceSpec& spec, const LaunchConfig& config, const KernelFn& kernel,
              int block_index)
      : spec_(spec), config_(config), kernel_(kernel), block_index_(block_index) {
    env_.shared_mem.assign(static_cast<std::size_t>(config.shared_mem_per_block), std::byte{0});
  }

  BlockProfile run() {
    const int threads = static_cast<int>(config_.threads_per_block());
    const int warp = spec_.warp_size;
    const int warps = (threads + warp - 1) / warp;

    contexts_.reserve(static_cast<std::size_t>(threads));
    tasks_.reserve(static_cast<std::size_t>(threads));
    snapshots_.assign(static_cast<std::size_t>(threads), Snapshot{});
    for (int t = 0; t < threads; ++t) {
      ThreadCoordinates coords;
      coords.block_index = block_index_;
      coords.thread_index = t;
      coords.block_dim = threads;
      coords.grid_dim = static_cast<int>(config_.total_blocks());
      contexts_.emplace_back(spec_, coords, env_);
    }
    for (int t = 0; t < threads; ++t) {
      tasks_.push_back(kernel_(contexts_[static_cast<std::size_t>(t)]));
    }

    BlockProfile profile;
    profile.warps = warps;

    for (;;) {
      for (auto& task : tasks_) {
        if (!task.done() && !task.at_barrier()) task.resume();
      }
      int done = 0;
      int at_barrier = 0;
      for (const auto& task : tasks_) {
        if (task.done()) {
          ++done;
        } else if (task.at_barrier()) {
          ++at_barrier;
        }
      }
      gm::ensure(done + at_barrier == threads,
                 "thread neither finished nor at barrier after resume");
      if (at_barrier == 0) break;  // all threads returned
      if (done != 0) {
        gm::raise_device("divergent __syncthreads: " + std::to_string(done) +
                         " thread(s) exited while " + std::to_string(at_barrier) +
                         " wait at the barrier (block " + std::to_string(block_index_) + ")");
      }
      close_segment(profile, warps, warp, threads);
      ++profile.syncs;
      for (auto& task : tasks_) task.clear_barrier();
    }
    close_segment(profile, warps, warp, threads);

    for (const auto& ctx : contexts_) {
      const auto& c = ctx.counters();
      profile.lane_instructions += static_cast<double>(c.instructions);
      profile.tex_requests += static_cast<double>(c.tex_ops);
      profile.shared_requests += static_cast<double>(c.shared_ops);
      profile.global_requests += static_cast<double>(c.global_ops);
      profile.global_bytes += static_cast<double>(c.global_bytes);
      profile.atomic_requests += static_cast<double>(c.atomic_ops);
    }
    profile.texture = env_.declared_pattern;
    return profile;
  }

 private:
  void close_segment(BlockProfile& profile, int warps, int warp, int threads) {
    Snapshot segment_max;  // max over warps: the segment's critical path
    for (int w = 0; w < warps; ++w) {
      Snapshot delta_max;
      const int lane_begin = w * warp;
      const int lane_end = std::min(threads, lane_begin + warp);
      for (int t = lane_begin; t < lane_end; ++t) {
        const auto& c = contexts_[static_cast<std::size_t>(t)].counters();
        const auto& s = snapshots_[static_cast<std::size_t>(t)];
        delta_max.instructions = std::max(delta_max.instructions, c.instructions - s.instructions);
        delta_max.tex_ops = std::max(delta_max.tex_ops, c.tex_ops - s.tex_ops);
        delta_max.shared_ops = std::max(delta_max.shared_ops, c.shared_ops - s.shared_ops);
        delta_max.global_ops = std::max(delta_max.global_ops, c.global_ops - s.global_ops);
        delta_max.atomic_ops = std::max(delta_max.atomic_ops, c.atomic_ops - s.atomic_ops);
      }
      profile.warp_instructions += static_cast<double>(delta_max.instructions);
      profile.warp_tex_ops += static_cast<double>(delta_max.tex_ops);
      profile.warp_shared_ops += static_cast<double>(delta_max.shared_ops);
      profile.warp_global_ops += static_cast<double>(delta_max.global_ops);
      profile.warp_atomic_ops += static_cast<double>(delta_max.atomic_ops);
      segment_max.instructions = std::max(segment_max.instructions, delta_max.instructions);
      segment_max.tex_ops = std::max(segment_max.tex_ops, delta_max.tex_ops);
      segment_max.shared_ops = std::max(segment_max.shared_ops, delta_max.shared_ops);
      segment_max.global_ops = std::max(segment_max.global_ops, delta_max.global_ops);
    }
    profile.path_instructions += static_cast<double>(segment_max.instructions);
    profile.path_tex_ops += static_cast<double>(segment_max.tex_ops);
    profile.path_shared_ops += static_cast<double>(segment_max.shared_ops);
    profile.path_global_ops += static_cast<double>(segment_max.global_ops);
    for (int t = 0; t < threads; ++t) {
      snapshots_[static_cast<std::size_t>(t)] =
          snap(contexts_[static_cast<std::size_t>(t)].counters());
    }
  }

  const DeviceSpec& spec_;
  const LaunchConfig& config_;
  const KernelFn& kernel_;
  int block_index_;
  BlockEnv env_;
  std::vector<ThreadCtx> contexts_;
  std::vector<KernelTask> tasks_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace

Engine::Engine(DeviceSpec spec, EngineOptions options)
    : spec_(std::move(spec)), options_(options) {
  spec_.validate();
}

LaunchResult Engine::launch(const LaunchConfig& config, const KernelFn& kernel) const {
  LaunchResult result;
  result.occupancy = compute_occupancy(spec_, config);  // validates the launch

  const std::int64_t blocks = config.total_blocks();
  std::vector<BlockProfile> per_block(static_cast<std::size_t>(blocks));
  gm::parallel_for(options_.host_threads, blocks, [&](int, std::int64_t b) {
    BlockRunner runner(spec_, config, kernel, static_cast<int>(b));
    per_block[static_cast<std::size_t>(b)] = runner.run();
  });

  for (const auto& bp : per_block) result.profile.add_block(bp);
  result.totals = aggregate(result.profile);
  return result;
}

}  // namespace gpusim
