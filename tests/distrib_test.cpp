// Distribution-layer tests: the exact cold-scan fold and the single-scan
// map's cold records it consumes, DistribBackend's bit-exact equivalence
// with the serial reference across semantics x expiry x shard counts (the
// block-level MapReduce granularity, exact under expiry where the seed-era
// overlap rescan was approximate), the one host stream-chunk map against
// the oracle at several widths, and the out-of-order stream fold.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/cpu_backend.hpp"
#include "core/multi_counter.hpp"
#include "core/scan_checkpoint.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "distrib/distrib_backend.hpp"
#include "distrib/scale_model.hpp"
#include "distrib/stream_fold.hpp"
#include "kernels/mining_kernels.hpp"

namespace gm::distrib {
namespace {

using core::Alphabet;
using core::Episode;
using core::ExpiryPolicy;
using core::kChunksPerShard;
using core::Semantics;

std::vector<Episode> random_episodes(Rng& rng, int count, int max_level, int alphabet) {
  std::vector<Episode> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto level = rng.between(1, max_level);
    std::vector<core::Symbol> symbols;
    for (std::int64_t k = 0; k < level; ++k) {
      symbols.push_back(static_cast<core::Symbol>(rng.below(static_cast<std::uint64_t>(alphabet))));
    }
    out.emplace_back(std::move(symbols));
  }
  return out;
}

// --- core primitive: exact cold-scan fold ----------------------------------

TEST(FoldColdScans, ExactOnAdversarialSmallInputs) {
  Rng rng(20090808);
  for (int trial = 0; trial < 300; ++trial) {
    const auto size = rng.between(1, 40);
    core::Sequence db;
    for (std::int64_t i = 0; i < size; ++i) {
      db.push_back(static_cast<core::Symbol>(rng.below(3)));
    }
    const auto episodes = random_episodes(rng, 1, 4, 3);
    const auto symbols = episodes[0].symbols();
    const Semantics semantics = rng.chance(0.5) ? Semantics::kNonOverlappedSubsequence
                                                : Semantics::kContiguousRestart;
    const ExpiryPolicy expiry{rng.between(0, 3) == 0 ? 0 : rng.between(1, size + 2)};
    const auto chunks = static_cast<int>(rng.between(1, 6));
    const auto bounds = core::chunk_boundaries(size, chunks);

    std::vector<core::EpisodeProgress> cold;
    for (int c = 0; c < chunks; ++c) {
      cold.push_back(core::scan_segment(symbols, semantics, expiry, db,
                                        bounds[static_cast<std::size_t>(c)],
                                        bounds[static_cast<std::size_t>(c) + 1], 0, 0));
    }
    const auto folded = core::fold_cold_scans(symbols, semantics, expiry, db, /*base=*/0, bounds,
                                              cold, /*entry=*/{}, /*exit=*/nullptr);
    const auto expected = core::count_occurrences(episodes[0], db, semantics, expiry);
    ASSERT_EQ(folded, expected)
        << "trial " << trial << " |DB|=" << size << " chunks=" << chunks
        << " window=" << expiry.window << " semantics=" << core::to_string(semantics);
  }
}

// The cold-scan map: a MultiCounter advanced over a span at a nonzero base
// must hold exactly the serial automaton's configuration afterwards — for
// idle episodes too, whose first_pos StreamAssembler checkpoints carry.
TEST(SingleScanExits, MatchTheSerialAutomatonConfiguration) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto size = rng.between(1, 120);
    core::Sequence db;
    for (std::int64_t i = 0; i < size; ++i) {
      db.push_back(static_cast<core::Symbol>(rng.below(4)));
    }
    const auto episodes = random_episodes(rng, 8, 3, 4);
    const Semantics semantics = rng.chance(0.5) ? Semantics::kNonOverlappedSubsequence
                                                : Semantics::kContiguousRestart;
    const ExpiryPolicy expiry{rng.chance(0.5) ? std::int64_t{0} : rng.between(1, 9)};
    const std::int64_t base = rng.between(1, 1000);

    core::MultiCounter counter(episodes, semantics, expiry);
    counter.advance_batch(db, base);
    const auto progress = counter.progress();
    ASSERT_EQ(progress.size(), episodes.size());
    for (std::size_t e = 0; e < episodes.size(); ++e) {
      core::EpisodeAutomaton automaton(episodes[e].symbols(), semantics, expiry);
      std::int64_t count = 0;
      for (std::size_t i = 0; i < db.size(); ++i) {
        if (automaton.step(db[i], base + static_cast<std::int64_t>(i))) ++count;
      }
      EXPECT_EQ(progress[e], (core::EpisodeProgress{count, automaton.first_match_pos(),
                                                    automaton.state()}))
          << "trial " << trial << " episode " << e << " base " << base;
    }
  }
}

// --- DistribBackend ---------------------------------------------------------

TEST(DistribBackendProperty, BitExactVsSerialAcrossShardsSemanticsExpiry) {
  Rng rng(20090525);
  const Alphabet alphabet(6);
  const auto uniform = data::uniform_database(alphabet, 4001, 11);
  const auto zipf = data::zipf_database(alphabet, 4001, 1.0, 13);

  for (const auto* db : {&uniform, &zipf}) {
    for (const Semantics semantics :
         {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
      for (const std::int64_t window : {std::int64_t{0}, std::int64_t{3}, std::int64_t{17},
                                        std::int64_t{4001}}) {
        for (const int shards : {1, 2, 3, 5, 16}) {
          const auto episodes = random_episodes(rng, 24, 4, 6);
          const ExpiryPolicy expiry{window};
          const auto expected = core::count_all(episodes, *db, semantics, expiry);

          DistribOptions options;
          options.shards = shards;
          DistribBackend backend(options);
          core::CountRequest request;
          request.database = *db;
          request.episodes = episodes;
          request.semantics = semantics;
          request.expiry = expiry;
          const auto result = backend.count(request);
          ASSERT_EQ(result.counts, expected)
              << "shards=" << shards << " window=" << window
              << " semantics=" << core::to_string(semantics);
          EXPECT_EQ(backend.last_run().chunks, shards * kChunksPerShard);
          // The fold's boundary fix-up replays at most the whole database per
          // episode (lockstep convergence usually stops far earlier).
          const std::int64_t rescanned = backend.last_run().rescanned_symbols;
          EXPECT_GE(rescanned, 0);
          EXPECT_LE(rescanned, static_cast<std::int64_t>(episodes.size()) *
                                   static_cast<std::int64_t>(db->size()));
        }
      }
    }
  }
}

TEST(DistribBackend, NameAndTelemetryDescribeTheRun) {
  DistribOptions options;
  options.shards = 4;
  DistribBackend backend(options);
  EXPECT_EQ(backend.name(),
            "distrib-x4[gpusim/algo1-thread-texture/t128/GeForce GTX 280 (GT200)]");

  const Alphabet alphabet(4);
  const auto db = data::uniform_database(alphabet, 800, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  (void)backend.count(request);
  EXPECT_EQ(backend.last_run().chunks, 4 * kChunksPerShard);
  // Every interior chunk boundary must be reconciled: with level-2 episodes
  // on a dense stream some automaton is always mid-match at a cut, so the
  // fold must replay a nonzero (but bounded) number of symbols.
  EXPECT_GT(backend.last_run().rescanned_symbols, 0);
  EXPECT_LE(backend.last_run().rescanned_symbols,
            static_cast<std::int64_t>(episodes.size()) *
                static_cast<std::int64_t>(db.size()));
}

TEST(DistribBackend, SimulatedCardsScaleAndStayExact) {
  const Alphabet alphabet(6);
  const auto db = data::uniform_database(alphabet, 20000, 17);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  const auto expected =
      core::count_all(episodes, db, Semantics::kNonOverlappedSubsequence);

  auto run_with = [&](int shards) {
    DistribOptions options;
    options.shards = shards;
    options.launch.threads_per_block = 128;
    DistribBackend backend(options);
    EXPECT_EQ(backend.max_level(), kernels::kMaxLevel);
    core::CountRequest request;
    request.database = db;
    request.episodes = episodes;
    const auto result = backend.count(request);
    EXPECT_EQ(result.counts, expected) << shards << " cards";
    return result.simulated_kernel_ms;
  };

  const double one_card = run_with(1);
  const double two_cards = run_with(2);
  EXPECT_GT(two_cards, 0.0);
  // Chunks are pinned to their owning card in the device-time model, so two
  // cards split the stream and the slowest card carries about half the work.
  EXPECT_GT(one_card / two_cards, 1.5);
  EXPECT_LE(one_card / two_cards, 2.1);
}

// --- scale model ------------------------------------------------------------

TEST(ScaleModel, DatabaseAxisChargesMergeAndSplitsTheStream) {
  kernels::WorkloadSpec spec;
  spec.db_size = 100000;
  spec.episode_count = 500;
  spec.level = 2;
  spec.params.algorithm = kernels::Algorithm::kThreadTexture;
  spec.params.threads_per_block = 128;

  const auto device = gpusim::geforce_gtx_280();
  const auto one = predict_scaled_mining(device, 1, spec, ShardAxis::kDatabase);
  const auto four = predict_scaled_mining(device, 4, spec, ShardAxis::kDatabase);
  ASSERT_EQ(four.share_per_device.size(), 4u);
  EXPECT_EQ(four.share_per_device[0] + four.share_per_device[1] +
                four.share_per_device[2] + four.share_per_device[3],
            100000);
  EXPECT_GT(four.merge_ms, one.merge_ms);
  EXPECT_GT(one.total_ms / four.total_ms, 1.0);
  EXPECT_NEAR(four.imbalance, 1.0, 0.05);
}

// --- the one host stream-chunk map -----------------------------------------

// cpu-parallel is the paper's block level on host workers: it cuts the
// stream into workers x kChunksPerShard equal chunks, cold-scans them on the
// pool and folds the chunk records exactly.  DistribBackend counts through
// the same map and only adds the simulated cards' charge.  At every width
// both must equal the oracle under both semantics, expiry included, and on
// streams shorter than the chunk grid, where most chunks are empty.
class DistribGranularityProperty : public ::testing::TestWithParam<int /*workers*/> {};

TEST_P(DistribGranularityProperty, BothGranularitiesMatchTheOracleIncludingExpiry) {
  const int workers = GetParam();
  const Alphabet alphabet(5);
  const auto db = data::uniform_database(alphabet, 3001, 77);

  core::ParallelCpuBackend host_map(workers);
  DistribOptions options;
  options.shards = workers;
  DistribBackend cards(options);
  const auto check = [&](const core::Sequence& stream, std::span<const Episode> episodes,
                         Semantics semantics, std::int64_t window) {
    core::CountRequest request;
    request.database = stream;
    request.episodes = episodes;
    request.semantics = semantics;
    request.expiry = ExpiryPolicy{window};
    const auto expected = core::count_all(episodes, stream, semantics, request.expiry);
    EXPECT_EQ(host_map.count(request).counts, expected) << "cpu-parallel";
    EXPECT_EQ(cards.count(request).counts, expected) << "distrib";
  };
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (int level = 1; level <= 3; ++level) {
      const auto episodes = core::all_distinct_episodes(alphabet, level);
      for (const std::int64_t window : {std::int64_t{0}, std::int64_t{5}, std::int64_t{29}}) {
        SCOPED_TRACE(testing::Message() << "L" << level << " workers " << workers << " window "
                                        << window << " " << core::to_string(semantics));
        check(db, episodes, semantics, window);
      }
    }
    // 0-20 events against workers x kChunksPerShard chunks (16 at 4
    // workers): most chunks are empty, and an occurrence can span several.
    const auto episodes = core::all_distinct_episodes(alphabet, 2);
    for (std::int64_t size = 0; size <= 20; ++size) {
      const core::Sequence stream(db.begin(), db.begin() + size);
      for (const std::int64_t window : {std::int64_t{0}, std::int64_t{3}}) {
        SCOPED_TRACE(testing::Message() << "|DB|=" << size << " workers " << workers
                                        << " window " << window << " "
                                        << core::to_string(semantics));
        check(stream, episodes, semantics, window);
      }
    }
  }
}

// Widths 1..16: one worker still cuts kChunksPerShard chunks, and 16 cut the
// 3001-symbol stream into 64.
INSTANTIATE_TEST_SUITE_P(Sweep, DistribGranularityProperty, ::testing::Values(1, 3, 4, 7, 16));

TEST(DistribBackend, BlockLevelExpiryBitExactRandomized) {
  // The seed-era block-level job was only approximate under expiry (overlap
  // rescan); the fold-based backend must match the serial reference exactly
  // on randomized (semantics x expiry x shards) draws.
  Rng rng(8);
  const Alphabet alphabet(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto size = rng.between(200, 2200);
    const auto db = data::uniform_database(alphabet, size, 100 + trial);
    const auto episodes = random_episodes(rng, 12, 3, 4);
    core::CountRequest request;
    request.database = db;
    request.episodes = episodes;
    request.semantics = rng.chance(0.5) ? Semantics::kNonOverlappedSubsequence
                                        : Semantics::kContiguousRestart;
    request.expiry = ExpiryPolicy{rng.between(1, 40)};
    DistribOptions options;
    options.shards = static_cast<int>(rng.between(1, 8));
    DistribBackend backend(options);
    const auto expected = core::count_all(episodes, db, request.semantics, request.expiry);
    ASSERT_EQ(backend.count(request).counts, expected)
        << "trial " << trial << " shards " << options.shards << " window "
        << request.expiry.window;
  }
}

TEST(DistribStreamFold, OutOfOrderDeliveryIsBitExactWithOneScan) {
  Rng rng(0x0DD0);
  const Semantics all_semantics[] = {Semantics::kNonOverlappedSubsequence,
                                     Semantics::kContiguousRestart};
  for (int trial = 0; trial < 10; ++trial) {
    const auto alphabet_size = static_cast<int>(rng.between(3, 10));
    const Alphabet alphabet(alphabet_size);
    const auto db = data::uniform_database(alphabet, 1200, 500 + trial);
    const auto episodes = random_episodes(rng, 10, 4, alphabet_size);
    const Semantics semantics = all_semantics[trial % 2];
    const ExpiryPolicy expiry{rng.between(0, 20)};
    const auto expected = core::count_all(episodes, db, semantics, expiry);

    // Slice the stream into uneven chunks, cold-scan each, shuffle delivery.
    std::vector<ChunkScan> chunks;
    std::int64_t begin = 0;
    while (begin < static_cast<std::int64_t>(db.size())) {
      const auto len = std::min<std::int64_t>(
          static_cast<std::int64_t>(rng.between(1, 300)),
          static_cast<std::int64_t>(db.size()) - begin);
      chunks.push_back(cold_scan_chunk(
          episodes, semantics, expiry,
          {db.begin() + begin, db.begin() + begin + len}, begin));
      begin += len;
    }
    for (std::size_t i = chunks.size(); i > 1; --i) {
      std::swap(chunks[i - 1], chunks[rng.below(i)]);
    }

    StreamAssembler assembler(episodes, semantics, expiry);
    for (ChunkScan& chunk : chunks) (void)assembler.deliver(std::move(chunk));
    EXPECT_EQ(assembler.pending(), 0u);
    EXPECT_EQ(assembler.high_water(), static_cast<std::int64_t>(db.size()));
    ASSERT_EQ(assembler.counts(), expected)
        << "trial " << trial << " window " << expiry.window << " chunks " << chunks.size();

    // The assembled prefix checkpoints like any scan: digest matches a
    // straight-line digest of the stream, and the checkpoint restores into
    // the incremental engine.
    const core::ScanCheckpoint checkpoint = assembler.checkpoint();
    EXPECT_EQ(checkpoint.prefix_digest,
              core::stream_digest_extend(core::stream_digest_seed(), db));
    EXPECT_EQ(core::StreamScan(checkpoint).counts(), expected);
  }
}

TEST(DistribStreamFold, GapsHoldCountsAtTheContiguousPrefix) {
  Rng rng(0x9A9);
  const Alphabet alphabet(5);
  const auto db = data::uniform_database(alphabet, 600, 11);
  const auto episodes = random_episodes(rng, 8, 3, 5);
  const Semantics semantics = Semantics::kNonOverlappedSubsequence;
  const ExpiryPolicy expiry{7};

  auto slice = [&](std::int64_t lo, std::int64_t hi) {
    return cold_scan_chunk(episodes, semantics, expiry, {db.begin() + lo, db.begin() + hi},
                           lo);
  };

  StreamAssembler assembler(episodes, semantics, expiry);
  EXPECT_EQ(assembler.deliver(slice(0, 200)), 1u);
  EXPECT_EQ(assembler.deliver(slice(400, 600)), 0u);  // parked behind the gap
  EXPECT_EQ(assembler.pending(), 1u);
  EXPECT_EQ(assembler.high_water(), 200);
  const core::Sequence head(db.begin(), db.begin() + 200);
  EXPECT_EQ(assembler.counts(), core::count_all(episodes, head, semantics, expiry));

  // Filling the gap folds the parked chunk too, in one delivery.
  EXPECT_EQ(assembler.deliver(slice(200, 400)), 2u);
  EXPECT_EQ(assembler.pending(), 0u);
  EXPECT_EQ(assembler.counts(), core::count_all(episodes, db, semantics, expiry));

  // Overlapping or replayed chunks are refused loudly.
  EXPECT_THROW((void)assembler.deliver(slice(300, 500)), gm::Error);
}

}  // namespace
}  // namespace gm::distrib
