#include "sim/device_spec.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace gpusim {

void DeviceSpec::validate() const {
  gm::expects(multiprocessors > 0, "device must have at least one SM");
  gm::expects(cores_per_sm > 0, "SM must have at least one core");
  gm::expects(core_clock_mhz > 0, "clock must be positive");
  gm::expects(mem_bandwidth_gbps > 0, "bandwidth must be positive");
  gm::expects(warp_size > 0 && (warp_size & (warp_size - 1)) == 0,
              "warp size must be a positive power of two");
  gm::expects(max_threads_per_block > 0 && max_threads_per_sm >= max_threads_per_block,
              "thread limits inconsistent");
  gm::expects(max_blocks_per_sm > 0, "must allow at least one active block");
  gm::expects(max_warps_per_sm * warp_size >= max_threads_per_sm,
              "warp limit below thread limit");
  gm::expects(shared_mem_per_block <= shared_mem_per_sm,
              "per-block shared memory exceeds per-SM shared memory");
  gm::expects(tex_cache_line_bytes > 0, "texture cache line size must be positive");
}

DeviceSpec geforce_8800_gts_512() {
  DeviceSpec d;
  d.name = "GeForce 8800 GTS 512 (G92)";
  d.multiprocessors = 16;
  d.cores_per_sm = 8;
  d.core_clock_mhz = 1625.0;
  d.mem_bandwidth_gbps = 57.6;
  d.device_mem_mb = 512;
  d.compute_capability = {1, 1};
  d.registers_per_sm = 8192;
  d.max_threads_per_block = 512;
  d.max_threads_per_sm = 768;
  d.max_blocks_per_sm = 8;
  d.max_warps_per_sm = 24;
  return d;
}

DeviceSpec geforce_9800_gx2() {
  DeviceSpec d = geforce_8800_gts_512();
  d.name = "GeForce 9800 GX2 (1x G92 die)";
  d.core_clock_mhz = 1500.0;
  d.mem_bandwidth_gbps = 64.0;  // per die
  d.device_mem_mb = 512;        // per die
  return d;
}

DeviceSpec geforce_gtx_280() {
  DeviceSpec d;
  d.name = "GeForce GTX 280 (GT200)";
  d.multiprocessors = 30;
  d.cores_per_sm = 8;
  d.core_clock_mhz = 1296.0;
  d.mem_bandwidth_gbps = 141.7;
  d.device_mem_mb = 1024;
  d.compute_capability = {1, 3};
  d.registers_per_sm = 16384;
  d.max_threads_per_block = 512;
  d.max_threads_per_sm = 1024;
  d.max_blocks_per_sm = 8;
  d.max_warps_per_sm = 32;
  return d;
}

std::vector<DeviceSpec> paper_testbed() {
  return {geforce_8800_gts_512(), geforce_9800_gx2(), geforce_gtx_280()};
}

namespace {
std::string lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}
}  // namespace

DeviceSpec device_by_name(const std::string& name) {
  const std::string n = lowered(name);
  if (n.find("8800") != std::string::npos || n.find("gts") != std::string::npos) {
    return geforce_8800_gts_512();
  }
  if (n.find("9800") != std::string::npos || n.find("gx2") != std::string::npos) {
    return geforce_9800_gx2();
  }
  if (n.find("280") != std::string::npos || n.find("gt200") != std::string::npos) {
    return geforce_gtx_280();
  }
  gm::raise_precondition("unknown device name: " + name);
}

}  // namespace gpusim
