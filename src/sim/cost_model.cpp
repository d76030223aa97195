#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/error.hpp"

namespace gpusim {
namespace {

struct BlockPath {
  double pre_tex_cycles = 0.0;  ///< per-warp path excluding texture stalls
  double path_tex_ops = 0.0;
  TexAccessKind kind = TexAccessKind::kNone;
};

/// Work accumulated on one SM during one wave.
struct SmWave {
  double warp_instructions = 0.0;
  double global_bytes = 0.0;
  int syncs = 0;
  int blocks = 0;

  // Texture bookkeeping, split by access kind.
  double strided_traffic = 0.0;      ///< per-lane strided: one line per fetch
  double strided_streams = 0.0;      ///< lanes issuing strided streams
  double friendly_requests = 0.0;    ///< broadcast/coalesced lane requests
  double friendly_private_bytes = 0.0;
  std::map<int, double> friendly_shared_bytes;  ///< sharing_key -> footprint

  std::vector<BlockPath> paths;
};

/// One wave's cost: its slowest SM's cycles and their mechanism split.
struct WaveCost {
  double cycles = 0.0;
  double issue = 0.0;
  double latency = 0.0;
  double bandwidth = 0.0;
  double sync = 0.0;
  double dispatch = 0.0;
};

}  // namespace

TimeBreakdown CostModel::predict(const DeviceSpec& device, const LaunchConfig& launch,
                                 const KernelProfile& profile) const {
  gm::expects(!profile.groups.empty(), "cannot time an empty kernel profile");
  gm::expects(profile.total_blocks() == launch.total_blocks(),
              "profile block count disagrees with launch grid");

  const Occupancy occ = compute_occupancy(device, launch);
  const double cpw = device.cycles_per_warp_instruction;
  const double mlp = std::max(1.0, params_.mem_level_parallelism);
  const double device_bytes_per_cycle = device.bytes_per_cycle();
  const double tpb = static_cast<double>(launch.threads_per_block());

  // Cursor over (group, index-in-group).
  std::size_t group_idx = 0;
  std::int64_t in_group = 0;
  std::int64_t remaining = profile.total_blocks();

  const std::int64_t concurrent =
      static_cast<std::int64_t>(occ.active_blocks_per_sm) * device.multiprocessors;

  TimeBreakdown out;
  double total_cycles = 0.0;
  double issue_bound_cycles = 0.0;
  double latency_bound_cycles = 0.0;
  double bandwidth_bound_cycles = 0.0;
  double sync_cycles_total = 0.0;
  double dispatch_cycles_total = 0.0;

  // Deal one wave's blocks from the cursor to the SMs and cost its slowest
  // SM: the wave's cycles and their split by mechanism.
  const auto walk_wave = [&](std::int64_t wave_blocks) {
    const int busy_sms =
        static_cast<int>(std::min<std::int64_t>(device.multiprocessors, wave_blocks));
    std::vector<SmWave> sms(static_cast<std::size_t>(busy_sms));

    for (std::int64_t b = 0; b < wave_blocks; ++b) {
      const BlockProfile& block = profile.groups[group_idx].block;
      SmWave& sm = sms[static_cast<std::size_t>(b % busy_sms)];

      sm.warp_instructions += block.warp_instructions;
      sm.global_bytes += block.global_bytes;
      sm.syncs += block.syncs;
      sm.blocks += 1;

      BlockPath path;
      path.pre_tex_cycles =
          block.path_instructions * cpw +
          (block.path_shared_ops * device.shared_mem_latency +
           block.path_global_ops * device.global_mem_latency) /
              mlp;
      path.path_tex_ops = block.path_tex_ops;
      path.kind = block.texture.kind;
      sm.paths.push_back(path);

      switch (block.texture.kind) {
        case TexAccessKind::kStridedPerLane:
          sm.strided_traffic += block.tex_requests * device.tex_cache_line_bytes;
          sm.strided_streams += tpb;
          break;
        case TexAccessKind::kBroadcast:
        case TexAccessKind::kCoalescedStream:
          sm.friendly_requests += block.tex_requests;
          if (block.texture.sharing_key != 0) {
            auto [it, inserted] =
                sm.friendly_shared_bytes.try_emplace(block.texture.sharing_key, 0.0);
            it->second = std::max(it->second, block.texture.footprint_bytes);
          } else {
            sm.friendly_private_bytes += block.texture.footprint_bytes;
          }
          break;
        case TexAccessKind::kNone:
          gm::expects(block.tex_requests == 0,
                      "a block that fetches texture must declare its TexturePattern");
          break;
      }

      if (++in_group == profile.groups[group_idx].count) {
        in_group = 0;
        ++group_idx;
      }
    }

    WaveCost wave;
    for (const SmWave& sm : sms) {
      // --- texture traffic and effective latencies -------------------------
      double friendly_bytes = sm.friendly_private_bytes;
      for (const auto& [key, bytes] : sm.friendly_shared_bytes) friendly_bytes += bytes;
      const double friendly_miss_rate =
          sm.friendly_requests > 0
              ? std::min(1.0, (friendly_bytes / device.tex_cache_line_bytes) /
                                  sm.friendly_requests)
              : 0.0;
      const double eff_friendly_latency =
          friendly_miss_rate * device.tex_cache_miss_latency +
          (1.0 - friendly_miss_rate) * device.tex_cache_hit_latency;

      const double traffic = friendly_bytes + sm.strided_traffic;

      // DRAM efficiency degrades as strided streams multiply (row-buffer
      // thrashing); the knee is a calibration constant.
      const double bw_efficiency =
          1.0 / (1.0 + sm.strided_streams / params_.bandwidth_stream_knee);
      const double bw_share = device_bytes_per_cycle * bw_efficiency / busy_sms;

      const double issue = sm.warp_instructions * cpw;
      double latency = 0.0;
      for (const BlockPath& p : sm.paths) {
        const double tex_lat = p.kind == TexAccessKind::kStridedPerLane
                                   ? device.tex_cache_miss_latency
                                   : eff_friendly_latency;
        latency = std::max(latency, p.pre_tex_cycles + p.path_tex_ops * tex_lat / mlp);
      }
      const double bandwidth = (traffic + sm.global_bytes) / bw_share;

      const double bound = std::max({issue, latency, bandwidth});
      const double sync = sm.syncs * params_.barrier_cycles;
      const double dispatch = sm.blocks * params_.block_dispatch_cycles;
      const double sm_cycles = bound + sync + dispatch;

      if (sm_cycles > wave.cycles) {
        wave = {sm_cycles, issue, latency, bandwidth, sync, dispatch};
      }
    }
    return wave;
  };

  // A wave whose blocks all come from one group deals identical blocks to
  // the same SMs, so it costs exactly what the last wave of that group and
  // size cost: reuse it instead of re-walking thousands of blocks.  Waves
  // are still accumulated one by one, so the sums stay bit-identical.
  std::size_t reuse_group = profile.groups.size();
  std::int64_t reuse_blocks = 0;
  WaveCost reuse;

  while (remaining > 0) {
    const std::int64_t wave_blocks = std::min<std::int64_t>(concurrent, remaining);
    const std::size_t wave_group = group_idx;
    const bool one_group = profile.groups[group_idx].count - in_group >= wave_blocks;
    WaveCost wave;
    if (one_group && wave_group == reuse_group && wave_blocks == reuse_blocks) {
      wave = reuse;
      in_group += wave_blocks;
      if (in_group == profile.groups[group_idx].count) {
        in_group = 0;
        ++group_idx;
      }
    } else {
      wave = walk_wave(wave_blocks);
      if (one_group) {
        reuse_group = wave_group;
        reuse_blocks = wave_blocks;
        reuse = wave;
      }
    }
    remaining -= wave_blocks;

    total_cycles += wave.cycles;
    sync_cycles_total += wave.sync;
    dispatch_cycles_total += wave.dispatch;
    const double bound = std::max({wave.issue, wave.latency, wave.bandwidth});
    if (bound == wave.issue) {
      issue_bound_cycles += bound;
    } else if (bound == wave.latency) {
      latency_bound_cycles += bound;
    } else {
      bandwidth_bound_cycles += bound;
    }
    ++out.waves;
  }

  const double cycles_to_ms = 1.0 / (device.clock_hz() / 1000.0);
  out.launch_ms = params_.kernel_launch_overhead_us / 1000.0;
  out.issue_ms = issue_bound_cycles * cycles_to_ms;
  out.latency_ms = latency_bound_cycles * cycles_to_ms;
  out.bandwidth_ms = bandwidth_bound_cycles * cycles_to_ms;
  out.sync_ms = sync_cycles_total * cycles_to_ms;
  out.dispatch_ms = dispatch_cycles_total * cycles_to_ms;
  out.total_ms = total_cycles * cycles_to_ms + out.launch_ms;

  const double m = std::max({out.issue_ms, out.latency_ms, out.bandwidth_ms});
  out.bound_by = (m == out.issue_ms)     ? "issue"
                 : (m == out.latency_ms) ? "latency"
                                         : "bandwidth";
  return out;
}

}  // namespace gpusim
