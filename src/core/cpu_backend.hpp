// CPU counting backends: the serial single-core reference (the GMiner-class
// baseline the paper motivates against) and the parallel/indexed/vector
// formulations of the counting step:
//
//   backend            parallel axis     per-level cost (t threads)
//   cpu-serial         —                 O(|DB| * |eps|)
//   cpu-parallel       episodes          O(|DB| * |eps| / t)
//   cpu-single-scan    — (indexed)       O(|DB| * (1 + |eps|/|alphabet|))
//   cpu-lane-scan      episodes (SIMD)   O(|DB| * ceil(|eps| / W)), W = 64 or 128
//
// cpu-parallel scales with the candidate count over real cores (it wins with
// few episodes over a long stream), cpu-single-scan replaces brute-force
// rescans with one pass driving all automata through a waiting-symbol bucket
// index, and cpu-lane-scan runs one episode per SIMD lane, 64 lanes per step
// in 16-byte vectors or 128 with AVX2, picked at run time
// (core/lane_counter.hpp): its cost ignores the alphabet, so it wins on small
// alphabets where the bucket index drains |eps|/|alphabet| automata per
// event.  The database axis belongs to distrib/ (chunked shards with an exact
// fold).  cpu-parallel's episodes and distrib's chunks both run on the one
// host worker pool, common/parallel.hpp.
#pragma once

#include <memory>
#include <string_view>

#include "core/counting.hpp"

namespace gm::core {

/// One automaton pass per episode on the calling thread.
class SerialCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-serial"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// Episodes partitioned across `threads` host threads (thread-level
/// parallelism in the paper's taxonomy: one worker = one episode at a time,
/// identity reduce).  Workers accumulate privately and merge at the end, so
/// no two threads ever write adjacent result slots (no false sharing).
class ParallelCpuBackend final : public CountingBackend {
 public:
  /// `threads` = 0 picks the hardware concurrency (gm::resolved_thread_count).
  explicit ParallelCpuBackend(int threads = 0);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] CountResult count(const CountRequest& request) override;

  [[nodiscard]] int threads() const noexcept { return threads_; }

 private:
  int threads_;
};

/// Single-threaded single-scan engine: one database pass drives all episode
/// automata via the waiting-symbol bucket index (core/multi_counter.hpp).
class SingleScanCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-single-scan"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// Single-threaded episode-lane engine: one database pass steps 64 episode
/// automata per event in uint8 SIMD lanes, 128 on AVX2 CPUs
/// (core/lane_counter.hpp).  Levels
/// 1..kLaneMaxLevel, no expiry: both are refused with ErrorCode::kCapability.
class LaneCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-lane-scan"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
  [[nodiscard]] int max_level() const override;
};

/// Construct a CPU backend by name: "cpu-serial", "cpu-parallel",
/// "cpu-single-scan", or "cpu-lane-scan" (unprefixed aliases accepted).
/// Returns nullptr for unknown names so callers can layer their own backends
/// (e.g. the simulated GPU) on top of the selection.
[[nodiscard]] std::unique_ptr<CountingBackend> make_cpu_backend(std::string_view name,
                                                                int threads = 0);

}  // namespace gm::core
