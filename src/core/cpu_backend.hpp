// CPU counting backends: the serial single-core reference (the GMiner-class
// baseline the paper motivates against) and the parallel/indexed/vector
// formulations of the counting step:
//
//   backend            parallel axis     per-level cost (t threads)
//   cpu-serial         —                 O(|DB| * |eps|)
//   cpu-parallel       stream chunks     O(|DB| * (1 + |eps|/|alphabet|) / t) + fold
//   cpu-single-scan    — (indexed)       O(|DB| * (1 + |eps|/|alphabet|))
//   cpu-lane-scan      episodes (SIMD)   O(|DB| * ceil(|eps| / W)), W = 64 or 128
//
// cpu-parallel is the one host-parallel formulation, the paper's block-level
// mapping (Patnaik et al.'s MapConcatenate): it cuts the stream into equal
// chunks, cold-scans each on the single-scan engine over the host worker
// pool (common/parallel.hpp) and folds the chunk records exactly
// (core::fold_cold_scans), so it scales with the stream length whatever the
// candidate count.  cpu-single-scan replaces brute-force rescans with one
// pass driving all automata through a waiting-symbol bucket index, and
// cpu-lane-scan runs one episode per SIMD lane, 64 lanes per step in 16-byte
// vectors or 128 with AVX2, picked at run time (core/lane_counter.hpp): its
// cost ignores the alphabet, so it wins on small alphabets where the bucket
// index drains |eps|/|alphabet| automata per event.  distrib-gpu
// (distrib/distrib_backend.hpp) counts through cpu-parallel's map and adds
// only the simulated cards' charge.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/counting.hpp"

namespace gm::core {

/// One automaton pass per episode on the calling thread.
class SerialCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-serial"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// Stream chunks per worker in the host-parallel map: more chunks than
/// workers, so a worker that finishes early claims more.  The one rule
/// ParallelCpuBackend, DistribBackend's card charge (chunk c bills card
/// c / kChunksPerShard) and the planner's cpu-parallel price share.
inline constexpr int kChunksPerShard = 4;

/// The host-parallel map: cut `database` into workers x kChunksPerShard
/// equal chunks (chunk_boundaries; one per event, on as many workers, when
/// the stream is shorter than that), cold-scan each chunk at its absolute
/// offset on a per-worker MultiCounter arena (reset per chunk) over
/// gm::parallel_for, then fold every episode's chunk records in chunk order
/// with fold_cold_scans, the fold split across the same pool by episode.
/// Equals count_all element for element for every semantics x expiry.
/// `rescanned_symbols`, when non-null, receives the symbols the fold
/// replayed at chunk boundaries.  Every episode is validated on the calling
/// thread before any chunk is scanned.
[[nodiscard]] std::vector<std::int64_t> count_all_stream_chunks(
    std::span<const Episode> episodes, std::span<const Symbol> database, Semantics semantics,
    ExpiryPolicy expiry, int workers, std::int64_t* rescanned_symbols = nullptr);

/// count_all_stream_chunks on `threads` host workers.
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
