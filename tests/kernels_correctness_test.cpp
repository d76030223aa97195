// End-to-end functional correctness of the four GPU algorithms: every
// algorithm must reproduce the serial oracle (thread-level and block-level
// composition) or the matching chunked CPU reference (block-level + expiry),
// across semantics, levels, thread counts and data distributions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "kernels/mining_kernels.hpp"

namespace gm::kernels {
namespace {

using core::Alphabet;
using core::Episode;
using core::Semantics;
using core::Sequence;

gpusim::Engine small_engine() {
  gpusim::EngineOptions opts;
  opts.host_threads = 2;
  return gpusim::Engine(gpusim::geforce_8800_gts_512(), opts);
}

struct Case {
  Algorithm algorithm;
  Semantics semantics;
  int level;
  int threads_per_block;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << to_string(c.algorithm) << "/" << core::to_string(c.semantics) << "/L"
              << c.level << "/t" << c.threads_per_block;
  }
};

class KernelCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(KernelCorrectness, MatchesSerialOracle) {
  const Case c = GetParam();
  const Alphabet alphabet(5);
  const gpusim::Engine engine = small_engine();

  gm::Rng rng(0xABCD ^ static_cast<unsigned>(c.level * 1337 + c.threads_per_block));
  for (int trial = 0; trial < 3; ++trial) {
    // Prime-ish sizes exercise remainder handling in the chunk geometry.
    const auto size = static_cast<std::int64_t>(731 + rng.below(800));
    const Sequence db = data::uniform_database(alphabet, size, rng());
    const auto episodes = core::all_distinct_episodes(alphabet, c.level);

    MiningLaunchParams params;
    params.algorithm = c.algorithm;
    params.threads_per_block = c.threads_per_block;
    params.semantics = c.semantics;
    params.buffer_bytes = 256;  // many buffer iterations at these sizes

    const MiningRun run = run_mining_kernel(engine, db, episodes, params);
    const auto expected = core::count_all(episodes, db, c.semantics);
    ASSERT_EQ(run.counts.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(run.counts[i], expected[i])
          << c << " episode " << episodes[i].to_string(alphabet) << " size " << size;
    }
  }
}

std::vector<Case> correctness_cases() {
  std::vector<Case> cases;
  for (const Algorithm a : all_algorithms()) {
    for (const Semantics s :
         {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
      for (const int level : {1, 2, 3}) {
        for (const int tpb : {16, 33, 128}) {
          cases.push_back({a, s, level, tpb});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelCorrectness, ::testing::ValuesIn(correctness_cases()));

// ---------------------------------------------------------------------------
// Expiry mode.
// ---------------------------------------------------------------------------

class KernelExpiry : public ::testing::TestWithParam<std::tuple<Algorithm, int /*window*/>> {};

TEST_P(KernelExpiry, ThreadLevelMatchesOracleBlockLevelMatchesChunkedReference) {
  const auto [algorithm, window] = GetParam();
  const Alphabet alphabet(4);
  const gpusim::Engine engine = small_engine();
  const core::ExpiryPolicy expiry{window};
  const int tpb = 32;
  const int buffer_bytes = 128;

  gm::Rng rng(0x5EED ^ static_cast<unsigned>(window));
  for (int trial = 0; trial < 3; ++trial) {
    const auto size = static_cast<std::int64_t>(500 + rng.below(500));
    const Sequence db = data::uniform_database(alphabet, size, rng());
    const auto episodes = core::all_distinct_episodes(alphabet, 2);

    MiningLaunchParams params;
    params.algorithm = algorithm;
    params.threads_per_block = tpb;
    params.expiry = expiry;
    params.buffer_bytes = buffer_bytes;

    const MiningRun run = run_mining_kernel(engine, db, episodes, params);

    for (std::size_t i = 0; i < episodes.size(); ++i) {
      std::int64_t expected = 0;
      if (!is_block_level(algorithm)) {
        expected = core::count_occurrences(episodes[i], db,
                                           Semantics::kNonOverlappedSubsequence, expiry);
      } else {
        // The kernel's contract in expiry mode: identical to the chunked CPU
        // reference with the same boundary geometry and overlap-rescan fix
        // (a documented approximation of the oracle whose accuracy is pinned
        // in core_segment_counter_test).
        const auto bounds =
            algorithm == Algorithm::kBlockTexture
                ? core::chunk_boundaries(size, tpb)
                : core::buffered_slice_boundaries(size, buffer_bytes, tpb);
        expected = core::count_with_boundaries(episodes[i], db, bounds,
                                               Semantics::kNonOverlappedSubsequence, expiry,
                                               core::SpanningFix::kOverlapRescan);
      }
      ASSERT_EQ(run.counts[i], expected)
          << to_string(algorithm) << " window " << window << " episode "
          << episodes[i].to_string(alphabet);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelExpiry,
                         ::testing::Combine(::testing::ValuesIn(all_algorithms()),
                                            ::testing::Values(3, 8, 40)));

// ---------------------------------------------------------------------------
// Targeted cases.
// ---------------------------------------------------------------------------

TEST(Kernels, PaperAlphabetSmokeRun) {
  // Full 26-letter alphabet, level 2 (650 episodes) on a small database.
  const Alphabet alphabet = Alphabet::english_uppercase();
  const gpusim::Engine engine = small_engine();
  const Sequence db = data::uniform_database(alphabet, 2000, 42);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  for (const Algorithm a : all_algorithms()) {
    MiningLaunchParams params;
    params.algorithm = a;
    params.threads_per_block = 64;
    params.buffer_bytes = 512;
    const MiningRun run = run_mining_kernel(engine, db, episodes, params);
    const auto expected =
        core::count_all(episodes, db, Semantics::kNonOverlappedSubsequence);
    ASSERT_EQ(run.counts, expected) << to_string(a);
  }
}

TEST(Kernels, PlantedEpisodesAreFound) {
  const Alphabet alphabet(10);
  const std::vector<Episode> planted = {
      Episode(std::vector<core::Symbol>{0, 3, 7}),
      Episode(std::vector<core::Symbol>{5, 1, 2}),
  };
  data::SpikeTrainConfig config;
  config.size = 3000;
  config.noise_rate = 0.7;
  config.seed = 9;
  const auto train = data::spike_train(alphabet, planted, config);

  const gpusim::Engine engine = small_engine();
  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockTexture;
  params.threads_per_block = 32;
  const MiningRun run = run_mining_kernel(engine, train.events, planted, params);
  for (std::size_t i = 0; i < planted.size(); ++i) {
    EXPECT_GE(run.counts[i], train.planted_copies[i]);
    EXPECT_GT(run.counts[i], 0);
  }
}

TEST(Kernels, ThreadPaddingProducesSentinelWork) {
  // 5 episodes, 16 threads/block: 11 padded threads must not disturb counts.
  const Alphabet alphabet(5);
  const Sequence db = data::uniform_database(alphabet, 997, 7);
  const auto episodes = core::all_distinct_episodes(alphabet, 1);
  const gpusim::Engine engine = small_engine();

  MiningLaunchParams params;
  params.algorithm = Algorithm::kThreadTexture;
  params.threads_per_block = 16;
  const MiningRun run = run_mining_kernel(engine, db, episodes, params);
  EXPECT_EQ(run.counts, core::count_all(episodes, db, Semantics::kNonOverlappedSubsequence));
  EXPECT_EQ(run.launch.totals.blocks, 1);
}

TEST(Kernels, BlockLevelRejectsMoreThreadsThanSymbols) {
  const Alphabet alphabet(5);
  const Sequence db = data::uniform_database(alphabet, 30, 7);
  const auto episodes = core::all_distinct_episodes(alphabet, 1);
  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockTexture;
  params.threads_per_block = 64;
  EXPECT_THROW(DeviceProblem(db, episodes, params), gm::PreconditionError);
}

TEST(Kernels, GeometryMatchesPaperConfigurations) {
  // Level 2, 650 episodes, 64 threads: 11 blocks thread-level, 650 block-level.
  auto thread_geo = launch_geometry(Algorithm::kThreadTexture, 650, 2, 64, 8192);
  EXPECT_EQ(thread_geo.blocks, 11);
  EXPECT_EQ(thread_geo.padded_episodes, 704);
  auto block_geo = launch_geometry(Algorithm::kBlockTexture, 650, 2, 64, 8192);
  EXPECT_EQ(block_geo.blocks, 650);
  auto buffered_geo = launch_geometry(Algorithm::kBlockBuffered, 650, 2, 64, 8192);
  EXPECT_EQ(buffered_geo.shared_mem_per_block, 8192);
}

}  // namespace
}  // namespace gm::kernels
