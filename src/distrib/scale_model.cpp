#include "distrib/scale_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/segment_counter.hpp"

namespace gm::distrib {

double card_time_ms(const gpusim::DeviceSpec& device, const kernels::WorkloadSpec& spec,
                    int shards, const gpusim::CostModel& model,
                    const kernels::KernelCostProfile& costs) {
  gm::expects(shards >= 1, "need at least one card");
  const int chunks = shards * core::kChunksPerShard;
  std::vector<double> card_ms(static_cast<std::size_t>(shards), 0.0);
  // The equal cut's chunk sizes never grow along the stream and take at most
  // two values, so pricing each new size runs the model at most twice.
  kernels::WorkloadSpec chunk = spec;
  chunk.db_size = -1;
  double chunk_ms = 0.0;
  for (int c = 0; c < chunks; ++c) {
    const std::int64_t size = core::chunk_range(spec.db_size, chunks, c).size();
    if (size == 0) break;  // every later chunk is empty too
    if (size != chunk.db_size) {
      chunk.db_size = size;
      chunk_ms = kernels::predict_mining_time(device, chunk, model, costs).total_ms;
    }
    card_ms[static_cast<std::size_t>(c / core::kChunksPerShard)] += chunk_ms;
  }
  return *std::max_element(card_ms.begin(), card_ms.end());
}

ScalePrediction predict_scaled_mining(const gpusim::DeviceSpec& device, int devices,
                                      const kernels::WorkloadSpec& spec,
                                      const gpusim::CostModel& model,
                                      const kernels::KernelCostProfile& costs) {
  gm::expects(devices >= 1, "need at least one device");
  gm::expects(spec.episode_count >= 1, "need at least one episode");

  ScalePrediction out;
  for (int d = 0; d < devices; ++d) {
    const std::int64_t share = core::chunk_range(spec.episode_count, devices, d).size();
    out.share_per_device.push_back(share);
    if (share == 0) continue;
    kernels::WorkloadSpec device_spec = spec;
    device_spec.episode_count = share;
    out.total_ms = std::max(
        out.total_ms, kernels::predict_mining_time(device, device_spec, model, costs).total_ms);
  }
  return out;
}

}  // namespace gm::distrib
