// Architectural description of a simulated CUDA-class GPU.
//
// The fields mirror Table 2 of Archuleta et al. (IPPS 2009) plus the handful
// of micro-architectural constants the paper's analysis invokes (warp issue
// rate, texture-cache line size, memory latencies).  Everything the cost
// model and functional engine need about a card lives here; the three cards
// evaluated in the paper are provided as named presets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gpusim {

/// CUDA compute capability ("generation"), e.g. 1.1 for G92, 1.3 for GT200.
struct ComputeCapability {
  int major = 1;
  int minor = 0;

  friend bool operator==(ComputeCapability, ComputeCapability) = default;
  /// True when this capability is at least `other` (feature gating).
  [[nodiscard]] bool at_least(ComputeCapability other) const noexcept {
    return major > other.major || (major == other.major && minor >= other.minor);
  }
};

/// Full architectural parameter set for one GPU die.
///
/// Latencies are expressed in *shader-clock cycles* so they scale naturally
/// with `core_clock_mhz` in the cost model.
struct DeviceSpec {
  std::string name;

  // --- Table 2 fields -------------------------------------------------------
  int multiprocessors = 16;        ///< number of SMs
  int cores_per_sm = 8;            ///< scalar processors per SM
  double core_clock_mhz = 1500.0;  ///< shader (processor) clock
  double mem_bandwidth_gbps = 64.0;
  int device_mem_mb = 512;
  ComputeCapability compute_capability{1, 1};
  int registers_per_sm = 8192;
  int max_threads_per_block = 512;
  int max_threads_per_sm = 768;
  int max_blocks_per_sm = 8;
  int max_warps_per_sm = 24;

  // --- micro-architectural constants (CUDA 1.x programming guide / paper) ---
  int warp_size = 32;
  int shared_mem_per_sm = 16 * 1024;    ///< bytes
  int shared_mem_per_block = 16 * 1024; ///< bytes available to one block
  int tex_cache_line_bytes = 32;
  int register_alloc_unit = 256;        ///< register file allocation granularity

  /// Cycles for one warp instruction to complete on an SM (8 cores x 4 =
  /// 32 lanes => 4 cycles per warp instruction).  Paper section 2.1.1.
  double cycles_per_warp_instruction = 4.0;

  // Memory latencies in shader cycles.
  double tex_cache_hit_latency = 96.0;
  double tex_cache_miss_latency = 420.0;
  double shared_mem_latency = 38.0;
  double global_mem_latency = 360.0;

  /// True if 32-bit atomic operations are supported (compute >= 1.1, paper
  /// section 4.2.1).
  [[nodiscard]] bool supports_atomics() const noexcept {
    return compute_capability.at_least({1, 1});
  }
  /// True if double-precision floating point is supported (compute >= 1.3).
  [[nodiscard]] bool supports_double_precision() const noexcept {
    return compute_capability.at_least({1, 3});
  }

  [[nodiscard]] int total_cores() const noexcept { return multiprocessors * cores_per_sm; }
  [[nodiscard]] double clock_hz() const noexcept { return core_clock_mhz * 1e6; }
  /// Device-memory bandwidth in bytes per shader cycle (whole device).
  [[nodiscard]] double bytes_per_cycle() const noexcept {
    return mem_bandwidth_gbps * 1e9 / clock_hz();
  }

  /// Throws gm::PreconditionError if any field is out of range.
  void validate() const;
};

/// The three cards of the paper's testbed (Table 2).
///
/// The GeForce 9800 GX2 carries two G92 dies; the paper drives a single die,
/// so `geforce_9800_gx2()` describes one die at its 1500 MHz clock and
/// 64 GB/s per-die bandwidth.  Use `MultiDevice` (sim/multi_device.hpp) to
/// model both dies.
[[nodiscard]] DeviceSpec geforce_8800_gts_512();
[[nodiscard]] DeviceSpec geforce_9800_gx2();
[[nodiscard]] DeviceSpec geforce_gtx_280();

/// All paper testbed cards in paper order.
[[nodiscard]] std::vector<DeviceSpec> paper_testbed();

/// Look up a preset by (case-insensitive) name fragment, e.g. "gtx280",
/// "8800", "gx2".  Throws gm::PreconditionError for unknown names.
[[nodiscard]] DeviceSpec device_by_name(const std::string& name);

}  // namespace gpusim
