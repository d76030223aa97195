// Exact-equality tests for the shared-prefix trie engine (the host model
// behind gpusim's trie kernel): randomized cross-checks against the
// per-episode serial reference across expiry windows, the degenerate trie
// shapes (singleton candidate set, all-shared-prefix, no-shared-prefix), the
// token mechanics that differ from the flat single-scan engine (divergence
// at accepting nodes, episodes that are prefixes of other episodes), the
// refusal of contiguous-restart semantics, and the parity of batched and
// per-symbol advancing down to the work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
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
  const EpisodeTrie trie(episodes);
  EXPECT_EQ(trie.node_count(), 4u);  // root + one node per symbol
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
  // restart at the internal trie node while the long one keeps waiting — the
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

TEST(EpisodeTrie, SubtreeRangesCoverSortedOrder) {
  const std::vector<Episode> episodes = {Episode({1, 2}), Episode({0, 1, 2}), Episode({0, 1}),
                                         Episode({1, 2}), Episode({0, 3})};
  const EpisodeTrie trie(episodes);
  // Sorted order: <0,1>, <0,1,2>, <0,3>, <1,2>, <1,2>.
  EXPECT_EQ(trie.order().size(), 5u);
  EXPECT_EQ(trie.root().lo, 0u);
  EXPECT_EQ(trie.root().hi, 5u);
  const auto& zero = trie.node(trie.root_child(0));
  EXPECT_EQ(zero.lo, 0u);
  EXPECT_EQ(zero.hi, 3u);
  const auto& one = trie.node(trie.root_child(1));
  EXPECT_EQ(one.lo, 3u);
  EXPECT_EQ(one.hi, 5u);
  EXPECT_EQ(trie.root_child(7), 0u);  // absent first symbol -> root sentinel
  // Distinct prefixes: 0, 01, 012, 03, 1, 12 -> 6 nodes below the root; the
  // duplicated <1,2> shares everything.
  EXPECT_EQ(trie.node_count(), 7u);
  EXPECT_DOUBLE_EQ(prefix_compression(episodes), 6.0 / 11.0);
}

}  // namespace
}  // namespace gm::core
