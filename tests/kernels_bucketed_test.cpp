// Algorithm 5 (block-bucketed single-scan) correctness and hardening:
//
//  * randomized bit-exact equivalence against the serial oracle across both
//    semantics x expiry windows x block sizes (the kernel never chunks the
//    database, so unlike the block-level formulations it owes the oracle
//    exact counts even under expiry);
//  * a paper-Figure-5 regression: occurrences crafted to span the chunk /
//    staging-buffer boundaries of the other formulations, on which all five
//    algorithms must agree with the serial reference;
//  * the level-cap error path: a request beyond kMaxLevel must surface a
//    reportable gm::PreconditionError from every entry point (geometry,
//    kernel launch, backend, miner) instead of an invariant failure deep in
//    the kernel layer;
//  * bucketed launch geometry and the first-symbol staging permutation;
//  * a functional-profile pin: algorithms 2, 4 and 5 (flat and trie) on a
//    multi-block, multi-buffer launch must keep every simulated counter.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/miner.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "kernels/gpu_backend.hpp"
#include "kernels/mining_kernels.hpp"
#include "kernels/workload_model.hpp"

namespace gm::kernels {
namespace {

using core::Alphabet;
using core::Episode;
using core::Semantics;
using core::Sequence;
using core::Symbol;

gpusim::Engine small_engine() {
  gpusim::EngineOptions opts;
  opts.host_threads = 2;
  return gpusim::Engine(gpusim::geforce_8800_gts_512(), opts);
}

/// Uniform-level random episodes; repeated symbols allowed on purpose (they
/// exercise the swapped-out-bucket re-file path).
std::vector<Episode> random_level_episodes(Rng& rng, int alphabet_size, int count, int level) {
  std::vector<Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(count));
  for (int e = 0; e < count; ++e) {
    std::vector<Symbol> symbols;
    symbols.reserve(static_cast<std::size_t>(level));
    for (int i = 0; i < level; ++i) {
      symbols.push_back(
          static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(alphabet_size))));
    }
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

// ---------------------------------------------------------------------------
// Randomized bit-exact equivalence vs the serial oracle.
// ---------------------------------------------------------------------------

struct EquivCase {
  Semantics semantics;
  int window;  // 0 = no expiry
  int threads_per_block;
  bool trie_buckets = false;  // shared-prefix token buckets (trie mode)

  friend std::ostream& operator<<(std::ostream& os, const EquivCase& c) {
    return os << core::to_string(c.semantics) << "/W" << c.window << "/t"
              << c.threads_per_block << (c.trie_buckets ? "/trie" : "/flat");
  }
};

class BucketedEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(BucketedEquivalence, MatchesSerialOracleBitExact) {
  const EquivCase c = GetParam();
  const gpusim::Engine engine = small_engine();
  const core::ExpiryPolicy expiry{c.window};

  gm::Rng rng(0xB0C4E7 ^ static_cast<unsigned>(c.window * 31 + c.threads_per_block));
  for (int trial = 0; trial < 4; ++trial) {
    const int alphabet_size = static_cast<int>(rng.between(3, 26));
    const Alphabet alphabet(alphabet_size);
    const auto size = static_cast<std::int64_t>(600 + rng.below(1000));
    const Sequence db = data::uniform_database(alphabet, size, rng());
    const int level = static_cast<int>(rng.between(1, std::min(alphabet_size, 4)));
    const int count = static_cast<int>(rng.between(1, 90));
    const auto episodes = random_level_episodes(rng, alphabet_size, count, level);

    MiningLaunchParams params;
    params.algorithm = Algorithm::kBlockBucketed;
    params.threads_per_block = c.threads_per_block;
    params.semantics = c.semantics;
    params.expiry = expiry;
    params.trie_buckets = c.trie_buckets;
    params.buffer_bytes = 192;  // several staging iterations at these sizes

    const MiningRun run = run_mining_kernel(engine, db, episodes, params);
    const auto expected = core::count_all(episodes, db, c.semantics, expiry);
    ASSERT_EQ(run.counts.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(run.counts[i], expected[i])
          << c << " trial " << trial << " alphabet " << alphabet_size << " episode "
          << episodes[i].to_string(alphabet) << " db size " << size;
    }
  }
}

std::vector<EquivCase> equivalence_cases() {
  std::vector<EquivCase> cases;
  for (const Semantics s :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const int window : {0, 3, 17, 64}) {
      for (const int tpb : {16, 33, 128}) {
        cases.push_back({s, window, tpb, /*trie_buckets=*/false});
        cases.push_back({s, window, tpb, /*trie_buckets=*/true});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketedEquivalence,
                         ::testing::ValuesIn(equivalence_cases()));

// ---------------------------------------------------------------------------
// Figure 5 regression: boundary-spanning occurrences, all five formulations.
// ---------------------------------------------------------------------------

TEST(BucketedFigure5, AllFiveFormulationsAgreeOnBoundarySpanningOccurrences) {
  // Every occurrence of <0,1,2> is stretched across many chunk boundaries:
  // its symbols sit ~97 positions apart in a noise stream, so with 32-128
  // threads splitting ~1000 symbols each occurrence crosses several
  // thread-chunk and staging-buffer edges (the paper's Figure 5 hazard).
  // One level per launch (the kernels pack uniform-level lists): all level 3.
  const Alphabet alphabet(5);
  const std::vector<Episode> episodes = {
      Episode(std::vector<Symbol>{0, 1, 2}), Episode(std::vector<Symbol>{2, 0, 1}),
      Episode(std::vector<Symbol>{1, 2, 0}), Episode(std::vector<Symbol>{3, 3, 3})};

  Sequence db(1021, Symbol{4});  // noise symbol 4, prime length
  for (std::size_t i = 0, k = 0; i < db.size(); i += 97, ++k) {
    db[i] = static_cast<Symbol>(k % 3);  // 0, 1, 2, 0, 1, 2, ... far apart
  }
  const gpusim::Engine engine = small_engine();
  const auto expected =
      core::count_all(episodes, db, Semantics::kNonOverlappedSubsequence);
  ASSERT_GT(expected[0], 0);  // the spanning occurrences exist

  for (const Algorithm algorithm : all_algorithms()) {
    for (const int tpb : {32, 128}) {
      MiningLaunchParams params;
      params.algorithm = algorithm;
      params.threads_per_block = tpb;
      params.buffer_bytes = 128;  // several buffers per occurrence span
      const MiningRun run = run_mining_kernel(engine, db, episodes, params);
      ASSERT_EQ(run.counts, expected) << to_string(algorithm) << " tpb " << tpb;
    }
  }
}

// ---------------------------------------------------------------------------
// Level-cap hardening: precondition errors, not invariant aborts.
// ---------------------------------------------------------------------------

std::vector<Episode> level9_episodes() {
  return {Episode(std::vector<Symbol>{0, 1, 2, 3, 4, 5, 6, 7, 8})};
}

TEST(LevelCap, LaunchGeometryNamesTheCap) {
  try {
    (void)launch_geometry(Algorithm::kBlockBucketed, 10, kMaxLevel + 1, 64, 1024);
    FAIL() << "expected PreconditionError";
  } catch (const gm::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("level"), std::string::npos) << e.what();
  }
}

TEST(LevelCap, RunMiningKernelRejectsBeforeStaging) {
  const Alphabet alphabet(10);
  const Sequence db = data::uniform_database(alphabet, 200, 3);
  const auto episodes = level9_episodes();
  const gpusim::Engine engine = small_engine();
  for (const Algorithm algorithm : all_algorithms()) {
    MiningLaunchParams params;
    params.algorithm = algorithm;
    params.threads_per_block = 32;
    try {
      (void)run_mining_kernel(engine, db, episodes, params);
      FAIL() << "expected PreconditionError for " << to_string(algorithm);
    } catch (const gm::PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("level 9"), std::string::npos) << what;
      EXPECT_NE(what.find("kMaxLevel"), std::string::npos) << what;
    }
  }
}

TEST(LevelCap, WorkloadModelRejectsWithTheSameError) {
  WorkloadSpec spec;
  spec.db_size = 1000;
  spec.episode_count = 10;
  spec.level = kMaxLevel + 1;
  spec.params.algorithm = Algorithm::kThreadTexture;
  EXPECT_THROW((void)model_profile(gpusim::geforce_gtx_280(), spec), gm::PreconditionError);
}

TEST(LevelCap, SimGpuBackendSurfacesReportableError) {
  const Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 300, 11);
  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockBucketed;
  params.threads_per_block = 32;
  SimGpuBackend gpu(gpusim::geforce_gtx_280(), params);
  EXPECT_EQ(gpu.max_level(), kMaxLevel);

  const auto episodes = level9_episodes();
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  try {
    (void)gpu.count(request);
    FAIL() << "expected PreconditionError";
  } catch (const gm::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the GPU kernel limit"), std::string::npos)
        << e.what();
  }
}

TEST(LevelCap, MinerChecksBackendCapBeforeCounting) {
  // A backend advertising a cap makes the miner raise a reportable error
  // naming the backend and the remedy *before* the over-cap request is
  // issued — this is the CLI's error path for gpusim --max-level > 8.
  class CappedBackend final : public core::CountingBackend {
   public:
    [[nodiscard]] std::string name() const override { return "capped-test-backend"; }
    [[nodiscard]] int max_level() const override { return 2; }
    [[nodiscard]] core::CountResult count(const core::CountRequest& request) override {
      core::CountResult result;
      result.counts = core::count_all(request.episodes, request.database, request.semantics,
                                      request.expiry);
      return result;
    }
  };

  const Alphabet alphabet(4);
  const auto db = data::uniform_database(alphabet, 400, 5);
  CappedBackend backend;

  core::MinerConfig config;
  config.support_threshold = 0.0;  // everything survives: level 3 is reached
  config.max_level = 3;
  try {
    (void)core::mine_frequent_episodes(db, alphabet, backend, config);
    FAIL() << "expected PreconditionError";
  } catch (const gm::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("capped-test-backend"), std::string::npos) << what;
    EXPECT_NE(what.find("level 3"), std::string::npos) << what;
  }

  // At or below the cap the same configuration mines normally.
  config.max_level = 2;
  const auto result = core::mine_frequent_episodes(db, alphabet, backend, config);
  EXPECT_EQ(static_cast<int>(result.levels.size()), 2);
}

// ---------------------------------------------------------------------------
// Geometry and staging permutation.
// ---------------------------------------------------------------------------

TEST(BucketedGeometry, BlocksScaleWithEpisodesOverCapacity) {
  // capacity = tpb * kBucketEpisodesPerThread.
  const auto geo = launch_geometry(Algorithm::kBlockBucketed, 2600, 3, 64, 1024);
  EXPECT_EQ(geo.blocks, (2600 + 511) / 512);  // 6 blocks
  EXPECT_EQ(geo.padded_episodes, 2600);       // no Mars-style padding
  EXPECT_EQ(geo.shared_mem_per_block, 1024);  // DB staging buffer

  // Fewer episodes than one block's capacity: a single block.
  EXPECT_EQ(launch_geometry(Algorithm::kBlockBucketed, 26, 1, 64, 2048).blocks, 1);
}

TEST(BucketedStaging, CountsReturnInCallerOrderDespiteFirstSymbolSort) {
  // Episodes handed over in descending-first-symbol order with distinct
  // planted counts: the staging sort must not leak into the result order.
  const Alphabet alphabet(4);
  Sequence db;
  for (int k = 0; k < 6; ++k) db.push_back(Symbol{0});
  for (int k = 0; k < 4; ++k) db.push_back(Symbol{1});
  for (int k = 0; k < 2; ++k) db.push_back(Symbol{2});
  const std::vector<Episode> episodes = {Episode(std::vector<Symbol>{2}),
                                         Episode(std::vector<Symbol>{1}),
                                         Episode(std::vector<Symbol>{0})};

  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockBucketed;
  params.threads_per_block = 16;
  params.buffer_bytes = 64;
  const MiningRun run = run_mining_kernel(small_engine(), db, episodes, params);
  EXPECT_EQ(run.counts, (std::vector<std::int64_t>{2, 4, 6}));
}

// ---------------------------------------------------------------------------
// Trie mode: lexicographic staging, count unpermutation, work reduction.
// ---------------------------------------------------------------------------

TEST(TrieBuckets, CountsReturnInCallerOrderDespiteLexicographicSort) {
  // Level-2 episodes handed over scrambled (descending lex order), with
  // distinct planted counts tied to the first symbol's run length.
  const Alphabet alphabet(4);
  Sequence db;
  for (int k = 0; k < 6; ++k) {
    db.push_back(Symbol{0});
    db.push_back(Symbol{3});
  }
  for (int k = 0; k < 4; ++k) {
    db.push_back(Symbol{1});
    db.push_back(Symbol{3});
  }
  for (int k = 0; k < 2; ++k) {
    db.push_back(Symbol{2});
    db.push_back(Symbol{3});
  }
  const std::vector<Episode> episodes = {Episode(std::vector<Symbol>{2, 3}),
                                         Episode(std::vector<Symbol>{1, 3}),
                                         Episode(std::vector<Symbol>{0, 3})};

  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockBucketed;
  params.threads_per_block = 16;
  params.trie_buckets = true;
  params.buffer_bytes = 64;
  const MiningRun run = run_mining_kernel(small_engine(), db, episodes, params);
  EXPECT_EQ(run.counts, (std::vector<std::int64_t>{2, 4, 6}));
}

TEST(TrieBuckets, SharedPrefixSetDrainsFewerInstructionsThanFlat) {
  // A candidate set with massive prefix sharing (apriori level-6 joins: four
  // hot length-4 prefixes, each extended by every (y, z) pair): the trie
  // formulation must agree with the oracle bit-for-bit AND charge measurably
  // fewer lane instructions than the flat formulation, since one token drain
  // advances every prefix-sharer and each thread's 8 contiguous slots all
  // ride the same length-4 prefix chain.
  const Alphabet alphabet(4);
  gm::Rng rng(0x5EEDF00D);
  const Sequence db = data::uniform_database(alphabet, 4000, rng());
  std::vector<Episode> episodes;
  const std::vector<std::vector<Symbol>> prefixes = {
      {0, 1, 2, 3}, {1, 2, 3, 0}, {2, 3, 0, 1}, {3, 0, 1, 2}};
  for (const auto& prefix : prefixes) {
    for (int y = 0; y < 4; ++y) {
      for (int z = 0; z < 4; ++z) {
        std::vector<Symbol> symbols = prefix;
        symbols.push_back(static_cast<Symbol>(y));
        symbols.push_back(static_cast<Symbol>(z));
        episodes.emplace_back(std::move(symbols));
      }
    }
  }

  const gpusim::Engine engine = small_engine();
  const auto expected =
      core::count_all(episodes, db, Semantics::kNonOverlappedSubsequence);

  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockBucketed;
  params.threads_per_block = 8;  // one block, each thread owns one prefix run
  params.buffer_bytes = 512;

  params.trie_buckets = false;
  const MiningRun flat = run_mining_kernel(engine, db, episodes, params);
  params.trie_buckets = true;
  const MiningRun trie = run_mining_kernel(engine, db, episodes, params);

  EXPECT_EQ(flat.counts, expected);
  EXPECT_EQ(trie.counts, expected);
  EXPECT_LT(trie.launch.totals.lane_instructions,
            0.75 * flat.launch.totals.lane_instructions)
      << "trie " << trie.launch.totals.lane_instructions << " vs flat "
      << flat.launch.totals.lane_instructions;
}

// ---------------------------------------------------------------------------
// Functional profile pin: every simulated counter of the data-dependent
// formulations, so a host-side rewrite of a kernel's scan loop must leave
// each BlockProfile field, group count and count alone.
// ---------------------------------------------------------------------------

struct PinCase {
  const char* name;
  Algorithm algorithm;
  bool trie_buckets;
  Semantics semantics;
  int window;
  int level;
  int threads_per_block;
  std::uint64_t digest;  ///< FNV-1a of profile_text(); a mismatch prints the text
};

/// Every group's count and BlockProfile field and the counts as text.  The
/// doubles hold integer sums, so the text is exact and the same under any
/// conforming toolchain.
std::string profile_text(const MiningRun& run) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& group : run.launch.profile.groups) {
    const gpusim::BlockProfile& b = group.block;
    out << "group " << group.count << '\n'
        << b.warps << ' ' << b.syncs << '\n'
        << b.warp_instructions << ' ' << b.warp_tex_ops << ' ' << b.warp_shared_ops << ' '
        << b.warp_global_ops << ' ' << b.warp_atomic_ops << '\n'
        << b.path_instructions << ' ' << b.path_tex_ops << ' ' << b.path_shared_ops << ' '
        << b.path_global_ops << '\n'
        << b.lane_instructions << ' ' << b.tex_requests << ' ' << b.shared_requests << ' '
        << b.global_requests << ' ' << b.global_bytes << ' ' << b.atomic_requests << '\n'
        << static_cast<int>(b.texture.kind) << ' ' << b.texture.footprint_bytes << ' '
        << b.texture.sharing_key << '\n';
  }
  out << "counts";
  for (const std::int64_t count : run.counts) out << ' ' << count;
  out << '\n';
  return out.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(ProfilePin, DataDependentFormulationsKeepEverySimulatedCounter) {
  // Every level-3 episode over six symbols (the paper's dense Apriori shape
  // in miniature, repeated-symbol episodes included) handed over in
  // scrambled order, and the six level-1 episodes.  The 1,200-symbol stream
  // goes through eight 160-byte staging buffers.
  constexpr int kAlphabet = 6;
  const Alphabet alphabet(kAlphabet);
  const Sequence db = data::uniform_database(alphabet, 1200, 0x9A9E5);
  std::vector<Episode> level3;
  for (int s = 0; s < kAlphabet * kAlphabet * kAlphabet; ++s) {
    const int scrambled = (s * 97) % (kAlphabet * kAlphabet * kAlphabet);
    level3.emplace_back(std::vector<Symbol>{static_cast<Symbol>(scrambled / 36),
                                            static_cast<Symbol>(scrambled / 6 % 6),
                                            static_cast<Symbol>(scrambled % 6)});
  }
  std::vector<Episode> level1;
  for (int s = kAlphabet - 1; s >= 0; --s) {
    level1.emplace_back(std::vector<Symbol>{static_cast<Symbol>(s)});
  }

  constexpr Semantics kSub = Semantics::kNonOverlappedSubsequence;
  constexpr Semantics kRestart = Semantics::kContiguousRestart;
  constexpr Algorithm k2 = Algorithm::kThreadBuffered;
  constexpr Algorithm k4 = Algorithm::kBlockBuffered;
  constexpr Algorithm k5 = Algorithm::kBlockBucketed;
  // algo5 at 8 threads: 64-slot blocks, so 216 episodes make a 4-block grid
  // with a short last block.  The trie rows at 20 threads make 2 blocks of
  // 108 slots, each split into 8-thread groups of 8, 8 and 4 threads.  algo2
  // pads 216 to 7 blocks of 32, and the six level-1 episodes to 2 blocks of 4
  // with two sentinel threads; algo4 runs one 16-thread block per episode.
  const std::vector<PinCase> cases = {
      {"algo5-flat/sub/W0", k5, false, kSub, 0, 3, 8, 0x24bf7426a77990a7},
      {"algo5-flat/sub/W7", k5, false, kSub, 7, 3, 8, 0xbb149203e0bcf5ed},
      {"algo5-flat/restart/W0", k5, false, kRestart, 0, 3, 8, 0x58b761ee9241b1a1},
      {"algo5-flat/restart/W7", k5, false, kRestart, 7, 3, 8, 0x58b761ee9241b1a1},
      {"algo5-trie/sub/W0", k5, true, kSub, 0, 3, 8, 0xb3d1cd7633009d6a},
      {"algo5-trie/sub/W7", k5, true, kSub, 7, 3, 8, 0x0cfe002803e979fb},
      {"algo5-trie/sub/W0/t20", k5, true, kSub, 0, 3, 20, 0x2cf02bea06a4a9f3},
      {"algo5-trie/sub/W7/t20", k5, true, kSub, 7, 3, 20, 0xd501af3976921304},
      {"algo5-trie/restart/W0", k5, true, kRestart, 0, 3, 8, 0x58b761ee9241b1a1},
      {"algo5-trie/restart/W7", k5, true, kRestart, 7, 3, 8, 0x58b761ee9241b1a1},
      {"algo2/sub/W0", k2, false, kSub, 0, 3, 32, 0xc2c461b555f0365d},
      {"algo2/sub/W7", k2, false, kSub, 7, 3, 32, 0x2668e2db993bc7ab},
      {"algo2/restart/W0", k2, false, kRestart, 0, 3, 32, 0x8c2b300c74474213},
      {"algo2/restart/W7", k2, false, kRestart, 7, 3, 32, 0x8c2b300c74474213},
      {"algo2-level1/sub/W0/t4", k2, false, kSub, 0, 1, 4, 0x6f545070008d9277},
      {"algo4/sub/W0", k4, false, kSub, 0, 3, 16, 0xa2e71d7e050704c3},
      {"algo4/sub/W7", k4, false, kSub, 7, 3, 16, 0xd6fe51819834cd4a},
      {"algo4/restart/W0", k4, false, kRestart, 0, 3, 16, 0xde9f419b1c08ce81},
      {"algo4/restart/W7", k4, false, kRestart, 7, 3, 16, 0x6edaa12d4adbbc84},
      {"algo4-level1/sub/W0", k4, false, kSub, 0, 1, 16, 0xb5c62a5aa7ced987},
  };

  gpusim::EngineOptions options;
  options.host_threads = 2;
  const gpusim::Engine engine(gpusim::geforce_8800_gts_512(), options);
  for (const PinCase& c : cases) {
    const std::vector<Episode>& episodes = c.level == 3 ? level3 : level1;
    MiningLaunchParams params;
    params.algorithm = c.algorithm;
    params.threads_per_block = c.threads_per_block;
    params.semantics = c.semantics;
    params.expiry = core::ExpiryPolicy{c.window};
    params.trie_buckets = c.trie_buckets;
    params.buffer_bytes = 160;
    const MiningRun run = run_mining_kernel(engine, db, episodes, params);

    ASSERT_GT(run.launch.profile.total_blocks(), 1) << c.name;
    if (c.algorithm != k4 || c.window == 0) {  // algo4's expiry rescans approximate
      EXPECT_EQ(run.counts, core::count_all(episodes, db, c.semantics, params.expiry))
          << c.name;
    }
    const std::string text = profile_text(run);
    EXPECT_EQ(fnv1a(text), c.digest)
        << c.name << ": digest 0x" << std::hex << fnv1a(text) << std::dec << " of\n"
        << text;
  }
}

TEST(TrieBuckets, RejectedOutsideAlgorithmFive) {
  MiningLaunchParams params;
  params.algorithm = Algorithm::kThreadBuffered;
  params.trie_buckets = true;
  try {
    validate_launch_params(params, 2);
    FAIL() << "expected PreconditionError";
  } catch (const gm::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("trie_buckets"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace gm::kernels
