// Exact-equality tests for the shared-prefix trie engine (the host model
// behind gpusim's trie kernel): randomized cross-checks against the
// per-episode serial reference across expiry windows, the degenerate trie
// shapes (singleton candidate set, all-shared-prefix, no-shared-prefix), the
// token mechanics that differ from the flat single-scan engine (divergence
// at accepting nodes, episodes that are prefixes of other episodes), the
// refusal of contiguous-restart semantics and of more than 64 episodes per
// counter, the parity of batched and per-symbol advancing down to the work
// counters, those counters pinned on full 64-episode sets, grouped counters
// against solo ones, and prefix_compression.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/episode_trie.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "random_episode_util.hpp"

namespace gm::core {
namespace {

using test::random_episodes;

TEST(TrieCounter, MatchesSerialOnRandomizedWorkloads) {
  Rng rng(0xBEEFCAFE);
  const Semantics semantics = Semantics::kNonOverlappedSubsequence;
  const std::int64_t windows[] = {0, 1, 2, 3, 7, 16};
  for (int trial = 0; trial < 40; ++trial) {
    const auto alphabet_size = static_cast<int>(rng.between(2, 24));
    const Alphabet alphabet(alphabet_size);
    const auto db = (trial % 2 == 0)
                        ? data::uniform_database(alphabet, 1500, rng())
                        : data::markov_database(alphabet, 1500, 0.6, rng());
    const auto episodes =
        random_episodes(rng, alphabet_size, static_cast<int>(rng.between(1, 40)), 4);
    for (const std::int64_t window : windows) {
      const ExpiryPolicy expiry{window};
      const auto expected = count_all(episodes, db, semantics, expiry);
      const auto actual = count_all_trie_scan(episodes, db, semantics, expiry);
      ASSERT_EQ(actual, expected)
          << "trial " << trial << " alphabet " << alphabet_size << " window " << window;
    }
  }
}

// Small alphabets force heavy prefix overlap AND heavy token desynchronization
// (accept-and-restart while prefix-siblings continue), the exact regime where
// a per-node (rather than per-token) representation would drift from serial.
TEST(TrieCounter, MatchesSerialUnderHeavySharingAndDesync) {
  Rng rng(0x7121E);
  for (int trial = 0; trial < 20; ++trial) {
    const Alphabet alphabet(3);
    const auto db = data::uniform_database(alphabet, 800, rng());
    const auto episodes =
        random_episodes(rng, 3, static_cast<int>(rng.between(10, 90)), 5);
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{4}, std::int64_t{9}}) {
      const ExpiryPolicy expiry{window};
      const auto expected =
          count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry);
      ASSERT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence,
                                    expiry),
                expected)
          << "trial " << trial << " window " << window;
    }
  }
}

TEST(TrieCounter, SingletonCandidateSetDegeneratesToOneChain) {
  const std::vector<Episode> episodes = {Episode({2, 0, 1})};
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), 1.0);

  const Sequence db = {2, 2, 0, 1, 2, 0, 0, 1, 1};
  for (const std::int64_t window : {std::int64_t{0}, std::int64_t{3}}) {
    EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence,
                                  ExpiryPolicy{window}),
              count_all(episodes, db, Semantics::kNonOverlappedSubsequence,
                        ExpiryPolicy{window}));
  }
}

TEST(TrieCounter, AllSharedPrefixCollapsesToNearOneTokenPerStep) {
  // 8 level-4 candidates share the same 3-prefix: the trie has 3 + 8 nodes
  // below the root, against 32 flat automaton states.
  std::vector<Episode> episodes;
  for (Symbol last = 0; last < 8; ++last) episodes.push_back(Episode({9, 4, 7, last}));
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), (3.0 + 8.0) / 32.0);

  Rng rng(42);
  const Alphabet alphabet(12);
  const auto db = data::uniform_database(alphabet, 2000, 7);
  for (const std::int64_t window : {std::int64_t{0}, std::int64_t{6}, std::int64_t{40}}) {
    const ExpiryPolicy expiry{window};
    EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence, expiry),
              count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry));
  }

  // The shared chain really is walked once: per-symbol token work must be far
  // below the flat engine's per-automaton work on the same candidate set.
  TrieCounter counter(episodes, Semantics::kNonOverlappedSubsequence, {},
                      static_cast<std::int64_t>(db.size()));
  for (std::size_t i = 0; i < db.size(); ++i) {
    counter.advance(db[i], static_cast<std::int64_t>(i));
  }
  EXPECT_LT(counter.ops().drains,
            static_cast<std::int64_t>(episodes.size() * db.size() / 4));
}

TEST(TrieCounter, NoSharedPrefixMatchesFlatEngineShape) {
  // Pairwise-distinct first symbols: every subtree is a chain of its own and
  // the compression factor is exactly 1 (no sharing to exploit).
  const std::vector<Episode> episodes = {Episode({0, 1, 2}), Episode({1, 2, 3}),
                                         Episode({2, 3, 4}), Episode({3, 4})};
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), 1.0);

  Rng rng(0xA11CE);
  const Alphabet alphabet(5);
  const auto db = data::markov_database(alphabet, 1200, 0.5, 99);
  for (const std::int64_t window : {std::int64_t{0}, std::int64_t{5}}) {
    const ExpiryPolicy expiry{window};
    EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence, expiry),
              count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry));
  }
}

TEST(TrieCounter, PrefixEpisodeAcceptsWhileExtensionContinues) {
  // <A,B> is a proper prefix of <A,B,C>: the short episode must accept and
  // restart after the shared prefix while the long one keeps waiting — the
  // per-token divergence the shared representation has to get right.
  const std::vector<Episode> episodes = {Episode({0, 1}), Episode({0, 1, 2}), Episode({0})};
  const Sequence db = {0, 1, 0, 1, 2, 0, 2, 1, 2};
  const auto expected = count_all(episodes, db, Semantics::kNonOverlappedSubsequence);
  EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence),
            expected);
  EXPECT_EQ(expected, (std::vector<std::int64_t>{3, 2, 3}));
}

TEST(TrieCounter, RepeatedSymbolPrefixConsumesOneEventPerStep) {
  // <A,A> and <A,A,A> share the repeated-symbol prefix: the re-file of the
  // advanced token must land in the swapped-out bucket's replacement, never
  // double-stepping on one event.
  const std::vector<Episode> episodes = {Episode({0, 0}), Episode({0, 0, 0})};
  const Sequence db = {0, 0, 0, 0, 0, 0, 0};
  const auto counts = count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence);
  EXPECT_EQ(counts, count_all(episodes, db, Semantics::kNonOverlappedSubsequence));
  EXPECT_EQ(counts, (std::vector<std::int64_t>{3, 2}));
}

TEST(TrieCounter, ExpiredTokenRestartsOnAFreshFirstSymbol) {
  // Shared prefix <A,B> with window 2 over "A C C A B ...": the first match
  // expires mid-prefix; both episodes must catch the second A together.
  const std::vector<Episode> episodes = {Episode({0, 1, 2}), Episode({0, 1, 3})};
  const Sequence db = {0, 2, 2, 0, 1, 2, 3};
  const ExpiryPolicy expiry{3};
  const auto expected = count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry);
  EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence, expiry),
            expected);
}

TEST(TrieCounter, HugeExpiryWindowDoesNotOverflow) {
  const std::vector<Episode> episodes = {Episode({0, 1}), Episode({0, 1, 2}),
                                         Episode({1, 0, 1})};
  const Sequence db = {0, 2, 1, 0, 1, 1, 0, 2};
  const ExpiryPolicy huge{std::numeric_limits<std::int64_t>::max()};
  EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence, huge),
            count_all(episodes, db, Semantics::kNonOverlappedSubsequence, huge));
}

TEST(TrieCounter, DuplicateEpisodesCountIndependently) {
  const std::vector<Episode> episodes = {Episode({0, 1}), Episode({0, 1}), Episode({1})};
  const Sequence db = {0, 1, 0, 1, 1};
  EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence),
            (std::vector<std::int64_t>{2, 2, 3}));
}

TEST(TrieCounter, EmptyInputsHandled) {
  const Sequence db = {0, 1, 2};
  EXPECT_TRUE(count_all_trie_scan({}, db, Semantics::kNonOverlappedSubsequence).empty());
  const std::vector<Episode> episodes = {Episode({0, 1})};
  EXPECT_EQ(count_all_trie_scan(episodes, {}, Semantics::kNonOverlappedSubsequence),
            (std::vector<std::int64_t>{0}));
  EXPECT_DOUBLE_EQ(prefix_compression({}), 1.0);
}

TEST(TrieCounter, RefusesContiguousRestart) {
  // Mismatch edges let any symbol move any in-flight automaton, so there is
  // no waiting-symbol index to share; the flat engine's dense path serves
  // this semantics instead.
  const std::vector<Episode> episodes = {Episode({0, 1}), Episode({0, 2})};
  const Sequence db = {0, 1, 0, 2};
  try {
    (void)count_all_trie_scan(episodes, db, Semantics::kContiguousRestart);
    ADD_FAILURE() << "the trie engine should refuse contiguous restart";
  } catch (const gm::Error& e) {
    EXPECT_EQ(e.code(), gm::ErrorCode::kPrecondition) << e.what();
  }
}

// advance_batch over randomly split batches must be indistinguishable from
// one advance() per symbol: counts and all six work counters, which the
// gpusim trie kernel prices per staged buffer, agree at every batch
// boundary.  One- to eight-episode sets leave most symbols with nothing
// waiting, idling or due (the batch loop's skip case).
TEST(TrieCounter, BatchAdvanceMatchesPerSymbolAdvanceIncludingOps) {
  Rng rng(0xBA7C4ED);
  const Semantics semantics = Semantics::kNonOverlappedSubsequence;
  for (int trial = 0; trial < 16; ++trial) {
    const int alphabet_size = trial % 2 == 0 ? 4 : 26;
    const Alphabet alphabet(alphabet_size);
    const auto db = data::uniform_database(alphabet, 700, rng());
    const auto size = static_cast<std::int64_t>(db.size());
    const auto episodes =
        random_episodes(rng, alphabet_size, static_cast<int>(rng.between(1, 8)), 4);
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{1}, std::int64_t{7}, size}) {
      const ExpiryPolicy expiry{window};
      TrieCounter batched(episodes, semantics, expiry, size);
      TrieCounter stepped(episodes, semantics, expiry, size);
      for (std::size_t fed = 0; fed < db.size();) {
        const auto n = std::min(db.size() - fed, static_cast<std::size_t>(rng.between(1, 90)));
        batched.advance_batch(std::span<const Symbol>(db).subspan(fed, n),
                              static_cast<std::int64_t>(fed));
        for (std::size_t i = fed; i < fed + n; ++i) {
          stepped.advance(db[i], static_cast<std::int64_t>(i));
        }
        fed += n;

        const std::string where =
            "trial " + std::to_string(trial) + " window " + std::to_string(window) + " at " +
            std::to_string(fed);
        ASSERT_EQ(batched.counts(), stepped.counts()) << where;
        const TrieCounter::Ops& a = batched.ops();
        const TrieCounter::Ops& b = stepped.ops();
        ASSERT_EQ(a.probes, b.probes) << where;
        ASSERT_EQ(a.drains, b.drains) << where;
        ASSERT_EQ(a.files, b.files) << where;
        ASSERT_EQ(a.accepts, b.accepts) << where;
        ASSERT_EQ(a.heap_ops, b.heap_ops) << where;
        ASSERT_EQ(a.starts, b.starts) << where;
      }
      EXPECT_EQ(batched.counts(), count_all(episodes, db, semantics, expiry))
          << "trial " << trial << " window " << window;
    }
  }
}

// 64 episodes, one per bit of a member mask: levels 1-5 over `alphabet_size`
// symbols, then duplicates and proper prefixes of them.
std::vector<Episode> full_mask_episodes(Rng& rng, int alphabet_size) {
  std::vector<Episode> episodes = random_episodes(rng, alphabet_size, 40, 5);
  while (episodes.size() < 64) {
    const std::span<const Symbol> from = episodes[rng.below(40)].symbols();
    const auto keep = episodes.size() % 2 == 0
                          ? from.size()
                          : static_cast<std::size_t>(
                                rng.between(1, static_cast<std::int64_t>(from.size())));
    episodes.emplace_back(std::vector<Symbol>(from.begin(), from.begin() + keep));
  }
  return episodes;
}

// The 64 episodes <a, b>, a in 0..7 and b in 8..15, and the opening of a
// stream that fills every token slot: "0..7" starts one token per first
// symbol, then each "b 0..7" accepts every <a, b> and restarts it in a token
// of its own, until each first symbol holds eight tokens.
std::vector<Episode> grid_episodes() {
  std::vector<Episode> episodes;
  for (Symbol a = 0; a < 8; ++a) {
    for (Symbol b = 8; b < 16; ++b) episodes.push_back(Episode({a, b}));
  }
  return episodes;
}
Sequence slot_filling_opening() {
  Sequence opening;
  for (Symbol b = 7; b < 15; ++b) {
    if (b > 7) opening.push_back(b);
    for (Symbol a = 0; a < 8; ++a) opening.push_back(a);
  }
  return opening;
}

// The six work counters and a digest of the counts for full 64-episode sets,
// recorded from the interval-list engine the bitmask one replaced.  The trie
// kernel charges these counters, so they must not move.  Full sets reach bit
// 63, every token slot (the grid set) and expiries of fragmented member sets,
// which the kernel's 8-episode threads and the other tests never do.
TEST(TrieCounter, OpsMatchRecordedParentValues) {
  // {alphabet, window (-1 for |DB|), probes, drains, files, accepts,
  //  heap_ops, starts, count digest}
  using Row = std::array<std::int64_t, 9>;
  const Row recorded[] = {
      {4, 0, 3000, 14774, 32941, 18142, 0, 18179, 601490},
      {4, 1, 3000, 0, 17231, 3000, 5999, 48046, 130293},
      {4, 7, 3000, 9639, 32677, 12351, 7822, 23551, 411092},
      {4, -1, 3000, 14774, 32941, 18142, 2881, 18179, 601490},
      {4, 0, 3000, 12330, 36266, 23915, 0, 23950, 819332},
      {4, 1, 3000, 0, 23951, 11166, 5999, 48037, 434344},
      {4, 7, 3000, 7599, 35237, 19304, 6654, 28170, 675793},
      {4, -1, 3000, 12330, 36266, 23915, 2692, 23950, 819332},
      {26, 0, 3000, 2302, 5955, 3608, 0, 3649, 118853},
      {26, 1, 3000, 0, 6910, 1682, 4240, 7181, 52813},
      {26, 7, 3000, 579, 7014, 2045, 3839, 6235, 66207},
      {26, -1, 3000, 2302, 5955, 3608, 1481, 3649, 118853},
      {26, 0, 3000, 2379, 6565, 4149, 0, 4174, 145840},
      {26, 1, 3000, 0, 8001, 2397, 4577, 7455, 92875},
      {26, 7, 3000, 572, 7763, 2720, 3990, 6505, 102906},
      {26, -1, 3000, 2379, 6565, 4149, 1606, 4174, 145840},
      {26, 0, 3000, 3605, 7248, 3605, 0, 3635, 117509},
      {26, 1, 3000, 0, 8567, 0, 1902, 7608, 0},
      {26, 7, 3000, 1298, 9360, 1298, 1719, 6430, 43861},
      {26, -1, 3000, 3605, 7248, 3605, 856, 3635, 117509},
  };
  Rng rng(0x64B175);
  std::vector<Row> measured;
  for (const int alphabet_size : {4, 26}) {
    for (int set = 0; set < 3; ++set) {
      const bool grid = set == 2;
      if (grid && alphabet_size < 16) continue;
      const auto episodes = grid ? grid_episodes() : full_mask_episodes(rng, alphabet_size);
      Sequence db = grid ? slot_filling_opening() : Sequence{};
      const auto rest = data::uniform_database(Alphabet(alphabet_size),
                                               3000 - static_cast<std::int64_t>(db.size()), rng());
      db.insert(db.end(), rest.begin(), rest.end());
      const auto size = static_cast<std::int64_t>(db.size());
      for (const std::int64_t window : {std::int64_t{0}, std::int64_t{1}, std::int64_t{7}, size}) {
        const ExpiryPolicy expiry{window};
        TrieCounter counter(episodes, Semantics::kNonOverlappedSubsequence, expiry, size);
        counter.advance_batch(db, 0);
        const auto counts = counter.counts();
        ASSERT_EQ(counts, count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry));
        std::int64_t digest = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
          digest += static_cast<std::int64_t>(i + 1) * counts[i];
        }
        const TrieCounter::Ops& ops = counter.ops();
        measured.push_back({alphabet_size, window == size ? -1 : window, ops.probes, ops.drains,
                            ops.files, ops.accepts, ops.heap_ops, ops.starts, digest});
      }
    }
  }
  std::string table;
  for (const Row& row : measured) {
    table += "      {";
    for (std::size_t i = 0; i < row.size(); ++i) {
      table += (i == 0 ? "" : ", ") + std::to_string(row[i]);
    }
    table += "},\n";
  }
  ASSERT_EQ(measured.size(), std::size(recorded)) << table;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_EQ(measured[i], recorded[i]) << "row " << i << " of\n" << table;
  }
}

TEST(TrieCounter, RefusesMoreThanItsCapacity) {
  std::vector<Episode> episodes;
  for (Symbol s = 0; s < 65; ++s) episodes.push_back(Episode({s}));
  try {
    const TrieCounter counter(episodes, Semantics::kNonOverlappedSubsequence, {}, 10);
    ADD_FAILURE() << "a trie counter should refuse 65 episodes";
  } catch (const gm::Error& e) {
    EXPECT_EQ(e.code(), gm::ErrorCode::kPrecondition) << e.what();
    EXPECT_NE(std::string(e.what()).find("64"), std::string::npos) << e.what();
  }
  episodes.pop_back();
  EXPECT_NO_THROW(TrieCounter(episodes, Semantics::kNonOverlappedSubsequence, {}, 10));
}

// count_all_trie_scan runs one counter per 64 consecutive episodes; the split
// must not change a single count, at the edges of a block or on the paper's
// whole level-3 set.
TEST(TrieCounter, CountAllSplitsLargeSetsExactly) {
  const Alphabet alphabet(26);
  const auto level3 = generate_candidates(generate_candidates(level1_candidates(alphabet), false),
                                          false);
  ASSERT_EQ(level3.size(), 17'576u);
  const auto db = data::uniform_database(alphabet, 3000, 0x5B117);
  for (const std::int64_t window : {std::int64_t{0}, std::int64_t{9}}) {
    const ExpiryPolicy expiry{window};
    EXPECT_EQ(count_all_trie_scan(level3, db, Semantics::kNonOverlappedSubsequence, expiry),
              count_all(level3, db, Semantics::kNonOverlappedSubsequence, expiry))
        << "window " << window;
    for (const std::size_t n : {64u, 65u, 129u}) {
      // A stride through the set, so each block mixes unrelated prefixes.
      std::vector<Episode> episodes;
      for (std::size_t i = 0; i < n; ++i) episodes.push_back(level3[(i * 2'741) % level3.size()]);
      EXPECT_EQ(count_all_trie_scan(episodes, db, Semantics::kNonOverlappedSubsequence, expiry),
                count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry))
          << n << " episodes, window " << window;
    }
  }
}

// Groups: one counter over consecutive groups must count each group exactly as
// a counter of its own does, op for op after every batch.  Small alphabets
// repeat symbols and duplicate episodes; empty groups and windows from 0 to
// 30 are drawn too.
TEST(TrieCounter, GroupsMatchSoloCountersOpForOp) {
  Rng rng(0x6A0C9);
  const Semantics semantics = Semantics::kNonOverlappedSubsequence;
  for (int trial = 0; trial < 200; ++trial) {
    const auto alphabet_size = static_cast<int>(rng.between(2, 7));
    const auto db = data::uniform_database(Alphabet(alphabet_size), 2000, rng());
    const auto size = static_cast<std::int64_t>(db.size());
    std::vector<Episode> episodes;
    std::vector<std::size_t> group_sizes(static_cast<std::size_t>(rng.between(1, 8)));
    std::vector<std::vector<Episode>> groups;
    for (std::size_t& group_size : group_sizes) {
      groups.push_back(
          random_episodes(rng, alphabet_size, static_cast<int>(rng.between(0, 8)), 4));
      group_size = groups.back().size();
      episodes.insert(episodes.end(), groups.back().begin(), groups.back().end());
    }
    for (const std::int64_t window : {std::int64_t{0}, rng.between(1, 30)}) {
      const ExpiryPolicy expiry{window};
      TrieCounter grouped(episodes, group_sizes, semantics, expiry, size);
      std::vector<TrieCounter> solo;
      for (const auto& group : groups) solo.emplace_back(group, semantics, expiry, size);
      for (std::size_t fed = 0; fed < db.size();) {
        const auto n = std::min(db.size() - fed, static_cast<std::size_t>(rng.between(1, 500)));
        const auto batch = std::span<const Symbol>(db).subspan(fed, n);
        grouped.advance_batch(batch, static_cast<std::int64_t>(fed));
        for (TrieCounter& counter : solo) {
          counter.advance_batch(batch, static_cast<std::int64_t>(fed));
        }
        fed += n;
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const std::string where = "trial " + std::to_string(trial) + " window " +
                                    std::to_string(window) + " group " + std::to_string(g) +
                                    " at " + std::to_string(fed);
          const TrieCounter::Ops& a = grouped.ops(g);
          const TrieCounter::Ops& b = solo[g].ops();
          ASSERT_EQ(a.probes, b.probes) << where;
          ASSERT_EQ(a.drains, b.drains) << where;
          ASSERT_EQ(a.files, b.files) << where;
          ASSERT_EQ(a.accepts, b.accepts) << where;
          ASSERT_EQ(a.heap_ops, b.heap_ops) << where;
          ASSERT_EQ(a.starts, b.starts) << where;
        }
      }
      EXPECT_EQ(grouped.counts(), count_all(episodes, db, semantics, expiry))
          << "trial " << trial << " window " << window;
    }
  }
}

TEST(TrieCounter, RefusesGroupsThatDoNotPartitionItsEpisodes) {
  const std::vector<Episode> episodes = {Episode({0, 1}), Episode({1}), Episode({0})};
  const Semantics semantics = Semantics::kNonOverlappedSubsequence;
  const std::vector<std::vector<std::size_t>> bad = {
      {}, {2}, {1, 1}, {2, 2}, {3, 1}, {0, 4}, {65}, {64, 1}, {64, 64, 64},
      {std::numeric_limits<std::size_t>::max(), 4}};
  for (const auto& sizes : bad) {
    EXPECT_THROW(TrieCounter(episodes, sizes, semantics, {}, 10), gm::Error)
        << sizes.size() << " groups";
  }
  EXPECT_NO_THROW(TrieCounter(episodes, std::vector<std::size_t>{0, 3, 0}, semantics, {}, 10));
  EXPECT_NO_THROW(TrieCounter({}, std::vector<std::size_t>{0}, semantics, {}, 10));
}

// prefix_compression counts distinct prefixes from sorted longest common
// prefixes, whatever order the set arrives in.
TEST(PrefixCompression, CountsDistinctPrefixesInAnyOrder) {
  std::vector<Episode> episodes = {Episode({1, 2}), Episode({0, 1, 2}), Episode({0, 1}),
                                   Episode({1, 2}), Episode({0, 3})};
  // Distinct prefixes: 0, 01, 012, 03, 1, 12 -> 6 of 11 symbols; the
  // duplicated <1,2> shares everything.
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), 6.0 / 11.0);
  std::sort(episodes.begin(), episodes.end());
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), 6.0 / 11.0);
}

}  // namespace
}  // namespace gm::core
