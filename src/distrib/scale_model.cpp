#include "distrib/scale_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/segment_counter.hpp"

namespace gm::distrib {

ScalePrediction predict_scaled_mining(const gpusim::DeviceSpec& device, int devices,
                                      const kernels::WorkloadSpec& spec, ShardAxis axis,
                                      const gpusim::CostModel& model,
                                      const kernels::KernelCostProfile& costs,
                                      double merge_ns_per_entry) {
  gm::expects(devices >= 1, "need at least one device");
  gm::expects(spec.episode_count >= 1, "need at least one episode");

  ScalePrediction out;
  const bool by_episode = axis == ShardAxis::kEpisodes;
  const std::int64_t total = by_episode ? spec.episode_count : spec.db_size;
  for (int d = 0; d < devices; ++d) {
    const std::int64_t share = core::chunk_range(total, devices, d).size();
    out.share_per_device.push_back(share);
    if (share == 0) {
      out.per_device_ms.push_back(0.0);
      continue;
    }
    kernels::WorkloadSpec device_spec = spec;
    if (by_episode) {
      device_spec.episode_count = share;
    } else {
      device_spec.db_size = share;
    }
    out.per_device_ms.push_back(
        kernels::predict_mining_time(device, device_spec, model, costs).total_ms);
  }
  if (!by_episode) {
    // Every device contributes one cold outcome per episode to the host fold.
    out.merge_ms = static_cast<double>(spec.episode_count) * devices * merge_ns_per_entry *
                   1e-6;
  }

  const double max_ms = *std::max_element(out.per_device_ms.begin(), out.per_device_ms.end());
  double sum = 0.0;
  for (const double ms : out.per_device_ms) sum += ms;
  const double mean = sum / devices;
  out.imbalance = mean > 0.0 ? max_ms / mean : 1.0;
  out.total_ms = max_ms + out.merge_ms;
  return out;
}

}  // namespace gm::distrib
