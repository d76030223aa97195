// Shared vocabulary of the repository benchmark: run options, the metric
// tables every workload reports into, and small timing/statistics helpers.
//
// Every workload fills one Outcome.  An untraced run reports the end-to-end
// table, a traced run the per-layer table; a metric a workload does not
// exercise keeps its zero so both tables always carry every name.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the benchmark's own tests; the figures mean nothing.
  bool tiny = false;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
};

/// `<out_dir>/<workload>-s<seed><suffix>`: where a run writes its files.
[[nodiscard]] inline std::string output_path(const Options& options, std::string_view suffix) {
  return options.out_dir + "/" + options.workload + "-s" + std::to_string(options.seed) +
         std::string(suffix);
}

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Reported by untraced runs (BENCHMARK.json "end_to_end").
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ref_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Reported by traced runs (BENCHMARK.json "per_layer").
inline constexpr MetricDef kPerLayer[] = {
    {"core.candgen_ms", "ms"},
    {"core.miner_tail_ms", "ms"},
    {"core.count_ms", "ms"},
    {"core.count_ms.l1", "ms"},
    {"core.count_ms.l2", "ms"},
    {"core.count_ms.l3", "ms"},
    {"core.count_rate", "1/s"},
    {"core.eliminate_ms", "ms"},
    {"core.candidates.l1", "count"},
    {"core.candidates.l2", "count"},
    {"core.candidates.l3", "count"},
    {"planner.plan_ms", "ms"},
    {"planner.pred_ratio.l3", "ratio"},
    {"sim.host_ms", "ms"},
    {"sim.host_per_sim_ms", "ratio"},
    {"kernels.sim_kernel_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.session_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.batched_ratio", "ratio"},
    {"service.queue_depth_max", "count"},
    {"stream.monitor_ms", "ms"},
    {"stream.upkeep_ms", "ms"},
    {"stream.alerts", "count"},
    {"stream.new_occurrences", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_ms", "ms"},
};

/// What one workload run produced.
struct Outcome {
  std::int64_t attempted = 0;
  /// Rejections + exceptions + oracle mismatches.
  std::int64_t failed = 0;
  /// Oracle mismatches alone: any one makes the run incorrect.
  std::int64_t mismatches = 0;
  std::map<std::string, double, std::less<>> metrics;
  /// Free-form context for the result file (picks, sample counts).
  std::map<std::string, std::string, std::less<>> notes;

  void set(std::string_view name, double value) { metrics[std::string(name)] = value; }
};

/// Interpolated quantile (q in [0, 1]) of `values`; 0 for an empty list.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A uniform sample of at most `capacity` values from a stream of any length
/// (reservoir sampling).  Its memory is allocated and touched up front, so a
/// latency log weighs the same in peak_rss_mb however many operations a run
/// completes.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : kept_(capacity, 0.0), rng_(seed) {}

  void add(double value) {
    ++seen_;
    if (size_ < kept_.size()) {
      kept_[size_++] = value;
    } else if (const std::uint64_t slot = rng_.below(seen_); slot < kept_.size()) {
      kept_[slot] = value;
    }
  }

  [[nodiscard]] std::vector<double> values() const {
    return {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(size_)};
  }

 private:
  std::vector<double> kept_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  gm::Rng rng_;
};

/// Latencies one Reservoir keeps: enough for a p99 with 160 samples beyond
/// it, 128 KiB of memory.
inline constexpr std::size_t kLatencySamples = 16'384;

/// A fixed count in the benchmark's own code, timed next to the operations
/// to read the host's current speed for counting work.  It files the 17,576
/// level-3 automata of a 26-symbol alphabet in per-symbol waiting lists and
/// feeds them a fixed stream: the memory access pattern of the library's
/// single scan.  No library change moves its time; the shared host's swings
/// in speed move it as they move the operations (README.md, "Noise").
class ReferenceScan {
 public:
  ReferenceScan();

  /// Wall time of one scan, in ms.
  [[nodiscard]] double run_ms();

 private:
  std::vector<std::uint8_t> stream_;
  std::vector<std::uint8_t> symbols_;  ///< three per automaton
  std::vector<std::uint32_t> state_;
  std::vector<std::uint32_t> count_;
  std::vector<std::vector<std::uint32_t>> waiting_;  ///< by awaited symbol
  std::vector<std::uint32_t> due_;
};

/// The reference scan's time on the host the benchmark was defined on
/// (4-vCPU Xeon, GCC 12.2, Release) when that host ran at full speed.
inline constexpr double kReferenceScanMs = 14.0;

/// `latency_ms` as it would read if the reference scan, timed next to it in
/// `scan_ms`, had taken kReferenceScanMs: one latency_ref_ms sample.
[[nodiscard]] inline double at_reference_speed(double latency_ms, double scan_ms) {
  return latency_ms * kReferenceScanMs / scan_ms;
}

/// Set latency_ref_ms to the median of `ref_ms` (at_reference_speed
/// samples).  A note records the measured latencies for the result file:
/// their count, p10, median and tail (the highest percentile, at most p99,
/// with at least ten samples beyond it, never below the median), and the
/// median of `scan_ms`.
void report_latency(Outcome& outcome, const std::vector<double>& ref_ms,
                    const std::vector<double>& scan_ms, const std::vector<double>& latency_ms,
                    std::string_view operation);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// The build and host this run measured on, as a JSON object: compiler,
/// build type and flags, git sha, nproc, and effective cores from a short
/// calibrated burn probe run now.
[[nodiscard]] std::string environment_json(const Options& options);

Outcome run_paper(const Options& options, bool simulated);
Outcome run_service_mix(const Options& options);
Outcome run_stream_append(const Options& options);

}  // namespace pb
