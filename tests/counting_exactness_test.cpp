// Randomized bit-exactness suite for the arena-backed SoA counting engines.
//
// The flat single-scan engine and the shared-prefix trie engine are both
// re-groupings of the same N serial automata, so on every input they accept
// they must equal the serial reference element-for-element (the trie engine
// takes non-overlapped semantics only).  This suite sweeps the shapes the
// SoA rewrite actually changed behaviour-relevant machinery for: semantics x
// expiry window (never / shorter-than-episode / mid / longer-than-stream) x
// alphabet size (dense collisions through sparse buckets) x episode pools
// with and without shared prefixes (trie token regrouping).  It also pins
// the batched dispatch tier (`advance_batch`) to the symbol-at-a-time path,
// and checkpoints captured mid-stream — while expiry deadlines are pending —
// to the serial automata's own configuration and to an uninterrupted scan.
// The episode-lane engine is held to the same contract around its own
// machinery, at every vector width it is built for: partial 64- and 128-lane
// blocks, the 255-event uint8 counter flush, the unrolled symbol columns of
// every level it supports, and its refusal of expiry.  Its tracked mode
// (LaneCounter, behind StreamScan) is held to MultiCounter's progress
// records, expiry windows around the 255-event run and the edges of its
// one-hot automata included.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/alphabet.hpp"
#include "core/episode.hpp"
#include "core/episode_trie.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
#include "core/scan_checkpoint.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "random_episode_util.hpp"

namespace gm::core {
namespace {

using test::random_episodes;

// Episodes whose first (level-1) symbols come from a small shared pool, the
// shape that maximizes trie token sharing (mirrors the bench's prefix-pool
// shapes).
std::vector<Episode> prefix_pool_episodes(Rng& rng, int alphabet_size, int count,
                                          int level, int pool) {
  std::vector<std::vector<Symbol>> prefixes;
  for (int p = 0; p < pool; ++p) {
    std::vector<Symbol> prefix;
    for (int i = 0; i + 1 < level; ++i) {
      prefix.push_back(
          static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(alphabet_size))));
    }
    prefixes.push_back(std::move(prefix));
  }
  std::vector<Episode> episodes;
  for (int e = 0; e < count; ++e) {
    std::vector<Symbol> symbols = prefixes[rng.below(prefixes.size())];
    symbols.push_back(
        static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(alphabet_size))));
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

TEST(CountingExactness, SoAEnginesMatchSerialAcrossShapes) {
  Rng rng(0x50A2009);
  for (const int alphabet : {4, 64, 250}) {
    for (const std::int64_t window :
         {std::int64_t{0}, std::int64_t{3}, std::int64_t{17}, std::int64_t{4001}}) {
      for (const Semantics semantics :
           {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
        for (const int pool : {0, 8}) {
          const auto db = data::uniform_database(Alphabet(alphabet), 1200, rng());
          const auto episodes =
              pool > 0 ? prefix_pool_episodes(rng, alphabet, 24, 4, pool)
                       : random_episodes(rng, alphabet, 24, 5);
          const ExpiryPolicy expiry{window};
          const auto expected = count_all(episodes, db, semantics, expiry);
          EXPECT_EQ(count_all_single_scan(episodes, db, semantics, expiry), expected)
              << "flat alphabet=" << alphabet << " window=" << window
              << " semantics=" << to_string(semantics) << " pool=" << pool;
          if (semantics == Semantics::kContiguousRestart) continue;
          EXPECT_EQ(count_all_trie_scan(episodes, db, semantics, expiry), expected)
              << "trie alphabet=" << alphabet << " window=" << window << " pool=" << pool;
        }
      }
    }
  }
}

// Episodes of exactly `level` symbols (repeats allowed).
std::vector<Episode> level_episodes(Rng& rng, int alphabet_size, int count, int level) {
  std::vector<Episode> episodes;
  for (int e = 0; e < count; ++e) {
    std::vector<Symbol> symbols;
    for (int i = 0; i < level; ++i) {
      symbols.push_back(
          static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(alphabet_size))));
    }
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

// The lane cases below run once per kernel width, through the per-width
// entry point count_all_lanes dispatches to.  The AVX2 twins skip, naming the
// missing feature, where this binary or CPU cannot run that kernel.
std::string missing_avx2() {
#if defined(__x86_64__)
  return "this CPU lacks AVX2 (__builtin_cpu_supports(\"avx2\") is false)";
#else
  return "AVX2 lane kernel is built on x86-64 only";
#endif
}

void lanes_match_serial_around_blocks_and_flushes(LaneWidth width) {
  // 70 episodes fill one 64-lane block and 6 lanes of a second, 140 fill one
  // 128-lane block and 12 lanes of a second (two 64-lane blocks and 12 lanes
  // of a third); the stream lengths sit on both sides of one and two
  // 255-event counter flushes.
  Rng rng(0x1A4E5);
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const int alphabet : {4, 26, 64, 250}) {
      for (int level = 1; level <= kLaneMaxLevel; ++level) {
        for (const std::size_t events : {254, 255, 256, 511, 5000}) {
          for (const int count : {70, 140}) {
            const auto db = data::uniform_database(Alphabet(alphabet), events, rng());
            const auto episodes = level_episodes(rng, alphabet, count, level);
            EXPECT_EQ(count_all_lanes_at(width, episodes, db, semantics),
                      count_all(episodes, db, semantics))
                << "alphabet=" << alphabet << " level=" << level << " events=" << events
                << " episodes=" << count << " semantics=" << to_string(semantics);
          }
        }
      }
    }
  }
}

void lanes_count_repeated_symbols_and_mixed_levels(LaneWidth width) {
  // A 600-event run of A completes a level-1 lane on every event, so its
  // uint8 counter reaches exactly 255 at each flush; repeated-symbol
  // episodes exercise the column refill when the awaited symbol does not
  // change, and one request mixes levels 1..8 inside the same blocks.
  const Alphabet alphabet(3);
  Rng rng(0xAAB);
  Sequence db(600, 0);
  const auto tail = data::uniform_database(alphabet, 2000, rng());
  db.insert(db.end(), tail.begin(), tail.end());
  std::vector<Episode> episodes;
  for (const char* text : {"A", "AA", "AAA", "AAB", "ABA", "ABB", "BAA", "AAAAAAAA"}) {
    episodes.push_back(Episode::from_text(alphabet, text));
  }
  for (Episode& e : random_episodes(rng, 3, 130, kLaneMaxLevel)) episodes.push_back(std::move(e));
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    const auto expected = count_all(episodes, db, semantics);
    EXPECT_EQ(count_all_lanes_at(width, episodes, db, semantics), expected)
        << to_string(semantics);
    EXPECT_GT(expected[0], 600);
  }
}

void lanes_refuse_expiry_and_long_episodes(LaneWidth width) {
  const auto db = data::uniform_database(Alphabet(8), 300, 7);
  Rng rng(0x5E7);
  const auto expect_capability = [&](const std::vector<Episode>& episodes, ExpiryPolicy expiry) {
    try {
      (void)count_all_lanes_at(width, episodes, db, Semantics::kNonOverlappedSubsequence,
                               expiry);
      ADD_FAILURE() << "the lane engine should refuse this request";
    } catch (const gm::Error& e) {
      EXPECT_EQ(e.code(), gm::ErrorCode::kCapability) << e.what();
    }
  };
  expect_capability(level_episodes(rng, 8, 5, 3), ExpiryPolicy{4});
  expect_capability(level_episodes(rng, 8, 5, kLaneMaxLevel + 1), {});
}

TEST(CountingExactness, LaneEngineMatchesSerialAroundBlocksAndFlushes) {
  lanes_match_serial_around_blocks_and_flushes(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneEngineRepeatedSymbolsAndMixedLevels) {
  lanes_count_repeated_symbols_and_mixed_levels(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneEngineRefusesExpiryAndLongEpisodes) {
  lanes_refuse_expiry_and_long_episodes(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneEngineAvx2MatchesSerialAroundBlocksAndFlushes) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lanes_match_serial_around_blocks_and_flushes(LaneWidth::kAvx2);
}

TEST(CountingExactness, LaneEngineAvx2RepeatedSymbolsAndMixedLevels) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lanes_count_repeated_symbols_and_mixed_levels(LaneWidth::kAvx2);
}

TEST(CountingExactness, LaneEngineAvx2RefusesExpiryAndLongEpisodes) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lanes_refuse_expiry_and_long_episodes(LaneWidth::kAvx2);
}

TEST(CountingExactness, LaneEngineDispatchesToTheWidestWidth) {
  // count_all_lanes runs the AVX2 kernel exactly when the CPU reports AVX2
  // (x86-64 builds), and lane_isa() names the width that ran.
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  EXPECT_EQ(lane_width_runs(LaneWidth::kAvx2), avx2);
  EXPECT_EQ(lane_isa(), avx2 ? "avx2" : "sse2");
#else
  EXPECT_FALSE(lane_width_runs(LaneWidth::kAvx2));
  EXPECT_NE(lane_isa(), "avx2");
#endif
  const LaneWidth widest =
      lane_width_runs(LaneWidth::kAvx2) ? LaneWidth::kAvx2 : LaneWidth::kBaseline;
  Rng rng(0xD15);
  const auto db = data::uniform_database(Alphabet(26), 3000, rng());
  const auto episodes = level_episodes(rng, 26, 300, 3);
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    EXPECT_EQ(count_all_lanes(episodes, db, semantics),
              count_all_lanes_at(widest, episodes, db, semantics))
        << to_string(semantics);
  }
}

// StreamScan counts on LaneCounter, the tracked lanes, whenever every
// episode is at most kLaneMaxLevel long.  The cases below hold it, and
// LaneCounter at each kernel width (its per-width constructor), to
// MultiCounter's progress record by record after every batch: counts,
// states, and first positions of idle and level-1 episodes too.
void lane_progress_matches_multi_counter(LaneWidth width) {
  Rng rng(0x1A9E5 + static_cast<std::uint64_t>(width));
  const std::int64_t windows[] = {0, 1, 9, 255, 256, 600};
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const std::int64_t window : windows) {
      const ExpiryPolicy expiry{window};
      int expired = 0;  // episodes whose count the window lowered
      for (const int alphabet : {2, 5, 12, 40}) {
        // 1..70 episodes: one partial block up to a few blocks at each width.
        const auto episodes = random_episodes(rng, alphabet, static_cast<int>(rng.between(1, 70)),
                                              kLaneMaxLevel);
        MultiCounter flat(episodes, semantics, expiry);
        MultiCounter unexpired(episodes, semantics, {});
        LaneCounter lanes(width, episodes, semantics, expiry);
        StreamScan scan(episodes, semantics, expiry);
        std::int64_t pos = 0;
        for (int batch = 0; batch < 6; ++batch) {
          const auto events =
              data::markov_database(Alphabet(alphabet), rng.between(1, 700), 0.55, rng());
          flat.advance_batch(events, pos);
          unexpired.advance_batch(events, pos);
          lanes.advance_batch(events, pos);
          scan.feed(events);
          pos += static_cast<std::int64_t>(events.size());
          const std::vector<EpisodeProgress> expected = flat.progress();
          const std::vector<EpisodeProgress> got = lanes.progress();
          const std::vector<EpisodeProgress> streamed = scan.checkpoint().progress;
          ASSERT_EQ(got.size(), expected.size());
          ASSERT_EQ(streamed.size(), expected.size());
          for (std::size_t e = 0; e < expected.size(); ++e) {
            ASSERT_EQ(got[e], expected[e])
                << "lanes: semantics " << to_string(semantics) << " window " << window
                << " alphabet " << alphabet << " batch " << batch << " episode " << e
                << " level " << episodes[e].level() << " got {" << got[e].count << ", "
                << got[e].first_pos << ", " << got[e].state << "} want {"
                << expected[e].count << ", " << expected[e].first_pos << ", "
                << expected[e].state << "}";
            ASSERT_EQ(streamed[e], expected[e])
                << "StreamScan: semantics " << to_string(semantics) << " window " << window
                << " alphabet " << alphabet << " batch " << batch << " episode " << e;
          }
        }
        const auto unexpired_counts = unexpired.counts();
        const auto counts = flat.counts();
        for (std::size_t e = 0; e < counts.size(); ++e) {
          expired += counts[e] < unexpired_counts[e] ? 1 : 0;
        }
      }
      // A contiguous occurrence spans exactly its level, so only window 1
      // can cut one short there.
      if (window > 0 && (semantics == Semantics::kNonOverlappedSubsequence || window == 1)) {
        EXPECT_GT(expired, 0) << to_string(semantics) << " window " << window << " never fired";
      }
    }
  }
}

void lane_windows_around_one_run_are_exact(LaneWidth width) {
  // <A, B> with B exactly `gap` events after A, so the match expires or
  // completes right at the window.  Matches start at a run's first event (0)
  // and later ones, and the gaps and windows straddle the 255-event run.
  for (const std::int64_t window : {253, 254, 255, 256, 257}) {
    for (const std::size_t start : {0, 1, 200, 255}) {
      for (const std::size_t gap : {252, 253, 254, 255, 256, 257}) {
        Sequence db(start + gap + 40, 2);
        db[start] = 0;
        db[start + gap] = 1;
        const std::vector<Episode> episodes = {Episode({0, 1}), Episode({0}), Episode({2, 0, 1})};
        for (const Semantics semantics :
             {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
          const ExpiryPolicy expiry{window};
          for (const std::size_t cut : {std::size_t{0}, start + 1, start + gap, db.size()}) {
            MultiCounter flat(episodes, semantics, expiry);
            LaneCounter lanes(width, episodes, semantics, expiry);
            flat.advance_batch(std::span(db).first(cut), 0);
            lanes.advance_batch(std::span(db).first(cut), 0);
            ASSERT_EQ(lanes.progress(), flat.progress())
                << "window " << window << " start " << start << " gap " << gap << " cut " << cut;
            flat.advance_batch(std::span(db).subspan(cut), static_cast<std::int64_t>(cut));
            lanes.advance_batch(std::span(db).subspan(cut), static_cast<std::int64_t>(cut));
            ASSERT_EQ(lanes.progress(), flat.progress())
                << "window " << window << " start " << start << " gap " << gap << " cut " << cut;
            EXPECT_EQ(lanes.counts(), count_all(episodes, db, semantics, expiry));
          }
        }
      }
    }
  }
}

// The tracked lanes keep each automaton one-hot and read one match-table
// row per event.  The cases below pin that form's edges to MultiCounter
// record by record after every batch: level-8 episodes, whose completing
// state bit wraps the byte; AAAAAAAA and ABABABAB, which set several bits
// of one table row; streams carrying symbols no episode uses, up to 254,
// which read the zero row; windows from 1 to INT64_MAX; and restore() of
// MultiCounter's mid-match records into a fresh counter.
void lane_one_hot_edges_match_multi_counter(LaneWidth width) {
  Rng rng(0x0E40 + static_cast<std::uint64_t>(width));
  const std::int64_t windows[] = {0, 1, 7, 255, 256, std::numeric_limits<std::int64_t>::max()};
  for (const Symbol largest : {Symbol{3}, Symbol{200}}) {
    // Episodes over symbols 0..3 (A = 0, B = 1); with `largest` 200 one
    // more episode makes the table run to row 200.
    std::vector<Episode> episodes = {Episode({0, 0, 0, 0, 0, 0, 0, 0}),
                                     Episode({0, 1, 0, 1, 0, 1, 0, 1}),
                                     Episode({1, 0, 1, 0, 1, 0, 1, 0}), Episode({0})};
    for (Episode& e : level_episodes(rng, 4, 14, kLaneMaxLevel)) episodes.push_back(std::move(e));
    for (Episode& e : random_episodes(rng, 4, 20, kLaneMaxLevel)) {
      episodes.push_back(std::move(e));
    }
    if (largest > 3) episodes.push_back(Episode({largest, 0, largest}));
    // Runs of A, alternations of A and B, runs of symbols from 4..254 (past
    // the table's last row, or rows no lane uses) and random symbols, each
    // 1..12 events long.
    const auto stream = [&](std::size_t events) {
      Sequence db;
      while (db.size() < events) {
        const std::uint64_t kind = rng.below(4);
        const std::uint64_t length = rng.between(1, 12);
        for (std::uint64_t i = 0; i < length && db.size() < events; ++i) {
          if (kind == 0) {
            db.push_back(0);
          } else if (kind == 1) {
            db.push_back(static_cast<Symbol>(i % 2));
          } else if (kind == 2) {
            db.push_back(static_cast<Symbol>(rng.between(4, 254)));
          } else {
            db.push_back(rng.below(8) == 0 ? largest : static_cast<Symbol>(rng.below(4)));
          }
        }
      }
      return db;
    };
    for (const Semantics semantics :
         {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
      for (const std::int64_t window : windows) {
        const ExpiryPolicy expiry{window};
        MultiCounter flat(episodes, semantics, expiry);
        std::optional<LaneCounter> lanes(std::in_place, width, episodes, semantics, expiry);
        std::int64_t pos = 0;
        int mid_match = 0;  // restored records carrying a match in flight
        for (int batch = 0; batch < 8; ++batch) {
          if (batch == 4) {
            // Restore MultiCounter's records, mid-match states included,
            // into a fresh counter and carry on from there.
            const std::vector<EpisodeProgress> captured = flat.progress();
            for (const EpisodeProgress& p : captured) mid_match += p.state > 0 ? 1 : 0;
            lanes.emplace(width, episodes, semantics, expiry);
            lanes->restore(captured);
          }
          Sequence events = stream(rng.between(1, 700));
          if (batch == 3) {
            // End on ABAB, so matches are in flight at the restore below
            // under every window: a window of 1 keeps those starting with B.
            events.insert(events.end(), {0, 1, 0, 1});
          }
          flat.advance_batch(events, pos);
          lanes->advance_batch(events, pos);
          pos += static_cast<std::int64_t>(events.size());
          const std::vector<EpisodeProgress> expected = flat.progress();
          const std::vector<EpisodeProgress> got = lanes->progress();
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t e = 0; e < expected.size(); ++e) {
            ASSERT_EQ(got[e], expected[e])
                << "largest symbol " << int{largest} << " semantics " << to_string(semantics)
                << " window " << window << " batch " << batch << " episode " << e << " level "
                << episodes[e].level() << " got {" << got[e].count << ", " << got[e].first_pos
                << ", " << got[e].state << "} want {" << expected[e].count << ", "
                << expected[e].first_pos << ", " << expected[e].state << "}";
          }
        }
        if (window == 0 || window >= 255) {
          // Without a short window, AAAAAAAA and ABABABAB complete: the
          // byte wraps.
          EXPECT_GT(flat.counts()[0], 0) << to_string(semantics) << " window " << window;
          EXPECT_GT(flat.counts()[1], 0) << to_string(semantics) << " window " << window;
        }
        EXPECT_GT(mid_match, 0) << to_string(semantics) << " window " << window;
      }
    }
  }
}

TEST(CountingExactness, LaneCounterOneHotEdgesMatchMultiCounter) {
  lane_one_hot_edges_match_multi_counter(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneCounterAvx2OneHotEdgesMatchMultiCounter) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lane_one_hot_edges_match_multi_counter(LaneWidth::kAvx2);
}

TEST(CountingExactness, LaneCounterWindowsAroundOneRunAreExact) {
  lane_windows_around_one_run_are_exact(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneCounterAvx2WindowsAroundOneRunAreExact) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lane_windows_around_one_run_are_exact(LaneWidth::kAvx2);
}

TEST(CountingExactness, LaneCounterProgressMatchesMultiCounterRecordByRecord) {
  lane_progress_matches_multi_counter(LaneWidth::kBaseline);
}

TEST(CountingExactness, LaneCounterAvx2ProgressMatchesMultiCounterRecordByRecord) {
  if (!lane_width_runs(LaneWidth::kAvx2)) GTEST_SKIP() << missing_avx2();
  lane_progress_matches_multi_counter(LaneWidth::kAvx2);
}

TEST(CountingExactness, BatchDispatchEqualsSymbolAtATime) {
  Rng rng(0xBA7C4);
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{9}}) {
      const auto db = data::uniform_database(Alphabet(12), 900, rng());
      const auto episodes = random_episodes(rng, 12, 20, 4);
      const ExpiryPolicy expiry{window};
      const bool trie = semantics != Semantics::kContiguousRestart;

      MultiCounter flat_single(episodes, semantics, expiry);
      MultiCounter flat_batched(episodes, semantics, expiry);
      std::optional<TrieCounter> trie_single;
      std::optional<TrieCounter> trie_batched;
      if (trie) {
        trie_single.emplace(episodes, semantics, expiry, static_cast<std::int64_t>(db.size()));
        trie_batched.emplace(episodes, semantics, expiry, static_cast<std::int64_t>(db.size()));
      }

      // Feed identical streams: one engine symbol-at-a-time, its twin in
      // random-size batches.  Flat progress, trie counts and every trie work
      // counter must agree at every batch boundary.
      std::size_t fed = 0;
      while (fed < db.size()) {
        const std::size_t batch =
            std::min(db.size() - fed, 1 + rng.below(96));
        const auto span = std::span(db).subspan(fed, batch);
        for (std::size_t i = 0; i < batch; ++i) {
          flat_single.advance(span[i], static_cast<std::int64_t>(fed + i));
          if (trie) trie_single->advance(span[i], static_cast<std::int64_t>(fed + i));
        }
        flat_batched.advance_batch(span, static_cast<std::int64_t>(fed));
        if (trie) trie_batched->advance_batch(span, static_cast<std::int64_t>(fed));
        fed += batch;
        ASSERT_EQ(flat_batched.progress(), flat_single.progress()) << "at " << fed;
        if (!trie) continue;
        ASSERT_EQ(trie_batched->counts(), trie_single->counts()) << "at " << fed;
        const TrieCounter::Ops& a = trie_batched->ops();
        const TrieCounter::Ops& b = trie_single->ops();
        ASSERT_EQ(a.probes, b.probes) << "at " << fed;
        ASSERT_EQ(a.drains, b.drains) << "at " << fed;
        ASSERT_EQ(a.files, b.files) << "at " << fed;
        ASSERT_EQ(a.accepts, b.accepts) << "at " << fed;
        ASSERT_EQ(a.heap_ops, b.heap_ops) << "at " << fed;
        ASSERT_EQ(a.starts, b.starts) << "at " << fed;
      }
      EXPECT_EQ(flat_batched.counts(), count_all(episodes, db, semantics, expiry));
      if (trie) {
        EXPECT_EQ(trie_batched->counts(), count_all(episodes, db, semantics, expiry));
      }
    }
  }
}

TEST(CountingExactness, MidExpiryCheckpointRoundTrips) {
  Rng rng(0xC4EC4);
  int in_flight = 0;  // live matches across every pause
  for (int trial = 0; trial < 6; ++trial) {
    const int alphabet = trial % 2 == 0 ? 6 : 64;
    const auto db = data::uniform_database(Alphabet(alphabet), 1000, rng());
    const auto episodes = trial % 3 == 0
                              ? prefix_pool_episodes(rng, alphabet, 16, 4, 4)
                              : random_episodes(rng, alphabet, 16, 5);
    // A window short enough that deadlines are always pending mid-stream,
    // long enough that multi-symbol matches stay in flight across the pause.
    const ExpiryPolicy expiry{17};
    const Semantics semantics = Semantics::kNonOverlappedSubsequence;
    const auto expected = count_all(episodes, db, semantics, expiry);
    const std::size_t pause = 400 + rng.below(200);

    const auto prefix = std::span(db).first(pause);
    const auto tail = std::span(db).subspan(pause);

    StreamScan scan(episodes, semantics, expiry);
    scan.feed(prefix);
    const ScanCheckpoint capture = scan.checkpoint();
    // The capture is the serial automata's own configuration: each episode's
    // count, state and (for in-flight matches) first-match position after
    // stepping the prefix.  first_pos is a don't-care for idle automata.
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      EpisodeAutomaton automaton(episodes[i].symbols(), semantics, expiry);
      std::int64_t count = 0;
      for (std::size_t p = 0; p < prefix.size(); ++p) {
        if (automaton.step(prefix[p], static_cast<std::int64_t>(p))) ++count;
      }
      const EpisodeProgress& got = capture.progress[i];
      ASSERT_EQ(got.count, count) << "trial " << trial << " episode " << i;
      ASSERT_EQ(got.state, automaton.state()) << "trial " << trial << " episode " << i;
      if (got.state > 0) {
        ++in_flight;
        ASSERT_EQ(got.first_pos, automaton.first_match_pos())
            << "trial " << trial << " episode " << i;
      }
    }

    StreamScan resumed(capture);
    resumed.feed(tail);
    EXPECT_EQ(resumed.counts(), expected) << "trial " << trial;
  }
  EXPECT_GT(in_flight, 0) << "no pause caught a live match";
}

}  // namespace
}  // namespace gm::core
