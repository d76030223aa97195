// The paper's four GPU algorithms (section 3.3) plus the bucket-indexed
// fifth formulation, written against the gpusim kernel API:
//
//   Algorithm 1  thread-level, texture     one thread : one episode
//   Algorithm 2  thread-level, buffered    one thread : one episode, DB staged
//                                          through shared memory
//   Algorithm 3  block-level,  texture     one block : one episode, threads
//                                          split the DB, spanning fix + sum
//   Algorithm 4  block-level,  buffered    one block : one episode, threads
//                                          split each staged buffer
//   Algorithm 5  block-bucketed,           one block : a contiguous
//                single-scan, buffered     first-symbol range of episodes;
//                                          threads drain waiting-automata
//                                          buckets per scanned symbol
//
// Thread-level kernels pad the episode list so every thread owns a slot
// (Mars-style record padding; padded threads scan with a sentinel episode,
// reproducing the paper's "nothing but contention" observation).  Block-level
// kernels recover boundary-spanning occurrences (paper Figure 5) exactly:
// without expiry via automaton transfer-function composition, with expiry via
// boundary-window rescans (exact because expiry bounds the occurrence span).
//
// Algorithm 5 is the device-side port of the host single-scan engine
// (core/multi_counter): episodes are sorted by first symbol so each block
// owns a contiguous symbol range's waiting-automata buckets, threads own
// interleaved slices of the block's episodes, and every automaton is filed
// under the symbol it currently awaits, so per-symbol device work scales with
// bucket occupancy (|episodes|/|alphabet| in expectation) instead of
// |episodes|.  It never chunks the database, so it is bit-exact against the
// serial oracle for both semantics and every expiry window (expiry uses the
// host engine's lazy deadlines + generation-tagged re-bucketing; contiguous
// restart falls back to a dense per-thread scan, still one database pass).
//
// On the host, the thread-level buffered scans (Algorithm 2, and Algorithm
// 5's contiguous-restart fallback) count on one core::LaneCounter per block,
// a lane per episode: the first thread past each barrier advances it over
// the staged buffer and each thread reads its own lane's count.  Charges are
// made per thread as before, so every simulated counter is unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"
#include "core/episode_trie.hpp"
#include "core/lane_counter.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"

#include "kernels/cost_constants.hpp"

namespace gm::kernels {

enum class Algorithm {
  kThreadTexture = 1,
  kThreadBuffered = 2,
  kBlockTexture = 3,
  kBlockBuffered = 4,
  kBlockBucketed = 5,
};

[[nodiscard]] std::string to_string(Algorithm algorithm);
[[nodiscard]] int algorithm_number(Algorithm algorithm);
/// One block per episode with threads splitting the database (Algorithms 3/4).
[[nodiscard]] bool is_block_level(Algorithm algorithm);
/// Stages the database through shared memory (Algorithms 2/4/5).
[[nodiscard]] bool is_buffered(Algorithm algorithm);
/// Bucket-indexed single-scan formulation (Algorithm 5).
[[nodiscard]] bool is_bucketed(Algorithm algorithm);
/// Every implemented formulation, in algorithm-number order.
[[nodiscard]] const std::vector<Algorithm>& all_algorithms();
/// The paper's original four formulations (figure/conclusion reproductions).
[[nodiscard]] const std::vector<Algorithm>& paper_algorithms();

/// Maximum episode level the kernels support (frame-register episode copy).
inline constexpr int kMaxLevel = 8;

struct MiningLaunchParams {
  Algorithm algorithm = Algorithm::kThreadTexture;
  int threads_per_block = 128;
  core::Semantics semantics = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry = {};
  int buffer_bytes = kDefaultBufferBytes;  ///< buffered algorithms only
  /// Algorithm 5 only: bucket shared-prefix trie tokens instead of
  /// per-episode automata.  Staging sorts the candidates lexicographically,
  /// each thread owns a *contiguous* slot range, and one waiting token
  /// advances every owned episode sharing that prefix — per-symbol drain work
  /// scales with |distinct prefixes| instead of |episodes|.  On the host, 8
  /// threads share one core::TrieCounter, a group each, and each is charged
  /// from its own group's work counters (core/episode_trie.hpp).
  /// Contiguous-restart semantics keep the dense per-thread fallback, charged
  /// identically to the flat formulation.
  bool trie_buckets = false;
};

/// Validate a launch configuration against an episode level *before* any
/// device staging happens.  Throws gm::PreconditionError with an actionable
/// message (naming the offending value and the kMaxLevel cap) instead of
/// letting the request trip an invariant deep inside the kernel layer.  Every
/// kernel-layer entry point (DeviceProblem, run_mining_kernel, the workload
/// models, SimGpuBackend) funnels through this check.
void validate_launch_params(const MiningLaunchParams& params, int level);

/// A counting problem staged into simulated device memory, ready to launch.
///
/// Owns the device buffers; `kernel()` returns a kernel closure over views
/// into them, so the problem must outlive the launch, and runs one launch at
/// a time.
class DeviceProblem {
 public:
  /// A host counter threads of one block share, built by the first of them
  /// to scan a staged buffer and touched only by that block's worker.  Trie
  /// mode: 8 threads share a TrieCounter, one group each.  Buffered
  /// thread-level scans: the whole block shares a LaneCounter, one lane per
  /// real episode.
  struct CounterSlot {
    std::unique_ptr<core::TrieCounter> trie;
    std::unique_ptr<core::LaneCounter> lanes;
    std::int64_t scanned = 0;  ///< stream positions the counter has advanced over
    int readers = 0;  ///< threads yet to read their counts; the last frees the counter
  };

  DeviceProblem(const core::Sequence& database, std::span<const core::Episode> episodes,
                const MiningLaunchParams& params);

  [[nodiscard]] const gpusim::LaunchConfig& launch_config() const noexcept { return config_; }
  [[nodiscard]] gpusim::KernelFn kernel();
  [[nodiscard]] const core::PackedEpisodes& packed() const noexcept { return packed_; }
  [[nodiscard]] const MiningLaunchParams& params() const noexcept { return params_; }

  /// Per-episode counts (real episodes only, in the caller's original
  /// episode order) after the kernel ran.
  [[nodiscard]] std::vector<std::int64_t> extract_counts() const;

 private:
  /// Validates, then packs the episode list for the device.  The bucketed
  /// formulation packs in first-symbol-sorted order (so each block owns a
  /// contiguous symbol range of initial waiting buckets) and records the
  /// permutation in `order` (sorted slot -> original index); the other
  /// formulations leave `order` empty (identity).
  static core::PackedEpisodes stage_episodes(std::span<const core::Episode> episodes,
                                             const MiningLaunchParams& params,
                                             std::vector<std::int64_t>& order);

  MiningLaunchParams params_;
  std::vector<std::int64_t> order_;  ///< bucketed: sorted slot -> caller index
  core::PackedEpisodes packed_;
  gpusim::DeviceBuffer<core::Symbol> db_;
  gpusim::DeviceBuffer<core::Symbol> episodes_;
  gpusim::DeviceBuffer<std::uint32_t> counts_;
  gpusim::DeviceBuffer<std::uint32_t> scratch_;  ///< block-level transfer tables
  std::vector<CounterSlot> slots_;  ///< block-major: one per trie group, else per block
  gpusim::LaunchConfig config_;
  std::int64_t db_size_ = 0;
};

/// Functional run: stage, launch on `engine`, unpack counts + profile.
struct MiningRun {
  std::vector<std::int64_t> counts;
  gpusim::LaunchResult launch;
};

[[nodiscard]] MiningRun run_mining_kernel(const gpusim::Engine& engine,
                                          const core::Sequence& database,
                                          std::span<const core::Episode> episodes,
                                          const MiningLaunchParams& params);

/// The launch geometry a given problem size produces (shared by the kernels
/// and the analytic workload models).
///
/// Bucketed (Algorithm 5): each block owns up to
/// threads_per_block * kBucketEpisodesPerThread episode slots, so the grid
/// scales with |episodes| / capacity rather than |episodes|; no padding.
struct LaunchGeometry {
  std::int64_t blocks = 0;
  std::int64_t padded_episodes = 0;  ///< thread-level: episodes incl. padding
  int shared_mem_per_block = 0;
};

[[nodiscard]] LaunchGeometry launch_geometry(Algorithm algorithm, std::int64_t episode_count,
                                             int level, int threads_per_block,
                                             int buffer_bytes);

}  // namespace gm::kernels
