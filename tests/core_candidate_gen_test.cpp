// Candidate generation / elimination tests, incl. the paper's Table 1 sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/candidate_gen.hpp"

namespace gm::core {
namespace {

const Alphabet kAbc = Alphabet::english_uppercase();

TEST(EpisodeSpace, PaperTable1Sizes) {
  // Level 1: 26, level 2: 650, level 3: 15,600 (paper section 5).
  EXPECT_EQ(episode_space_size(26, 1), 26u);
  EXPECT_EQ(episode_space_size(26, 2), 650u);
  EXPECT_EQ(episode_space_size(26, 3), 15'600u);
  EXPECT_EQ(episode_space_size(26, 4), 358'800u);
}

TEST(EpisodeSpace, GeneralFormula) {
  // N! / (N-L)!
  EXPECT_EQ(episode_space_size(4, 4), 24u);
  EXPECT_EQ(episode_space_size(4, 5), 0u);  // longer than alphabet
  EXPECT_EQ(episode_space_size(1, 1), 1u);
}

TEST(EpisodeSpace, OverflowDetected) {
  EXPECT_THROW((void)episode_space_size(255, 60), gm::PreconditionError);
}

TEST(AllDistinctEpisodes, MatchesFormulaAndIsDistinct) {
  for (int level = 1; level <= 3; ++level) {
    const auto episodes = all_distinct_episodes(Alphabet(5), level);
    EXPECT_EQ(episodes.size(), episode_space_size(5, level));
    for (const auto& e : episodes) {
      EXPECT_EQ(e.level(), level);
      EXPECT_TRUE(e.has_distinct_symbols());
    }
    // All unique.
    auto sorted = episodes;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(AllDistinctEpisodes, LexicographicOrder) {
  const auto episodes = all_distinct_episodes(Alphabet(3), 2);
  ASSERT_EQ(episodes.size(), 6u);
  EXPECT_EQ(episodes[0], Episode::from_text(kAbc, "AB"));
  EXPECT_EQ(episodes[1], Episode::from_text(kAbc, "AC"));
  EXPECT_EQ(episodes[2], Episode::from_text(kAbc, "BA"));
  EXPECT_EQ(episodes[5], Episode::from_text(kAbc, "CB"));
}

TEST(Level1Candidates, OnePerSymbol) {
  EXPECT_EQ(level1_candidates(kAbc).size(), 26u);
  EXPECT_EQ(level1_candidates(Alphabet(7)).size(), 7u);
}

TEST(GenerateCandidates, Level1ToLevel2) {
  const std::vector<Episode> frequent = {Episode::from_text(kAbc, "A"),
                                         Episode::from_text(kAbc, "B")};
  auto candidates = generate_candidates(frequent);
  // AA, AB, BA, BB — repeats allowed in the general model.
  EXPECT_EQ(candidates.size(), 4u);
}

TEST(GenerateCandidates, JoinRequiresOverlap) {
  // <A,B> and <B,C> join into <A,B,C>; <A,B> and <C,D> do not join.
  const std::vector<Episode> frequent = {Episode::from_text(kAbc, "AB"),
                                         Episode::from_text(kAbc, "BC")};
  auto candidates = generate_candidates(frequent, /*prune=*/false);
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        Episode::from_text(kAbc, "ABC")) != candidates.end());
  for (const auto& c : candidates) EXPECT_EQ(c.level(), 3);
}

TEST(GenerateCandidates, PruneRemovesUnsupportedSubEpisodes) {
  // <A,B,C> requires <A,C> frequent as well; without it the candidate dies.
  const std::vector<Episode> frequent = {Episode::from_text(kAbc, "AB"),
                                         Episode::from_text(kAbc, "BC")};
  auto pruned = generate_candidates(frequent, /*prune=*/true);
  EXPECT_TRUE(std::find(pruned.begin(), pruned.end(), Episode::from_text(kAbc, "ABC")) ==
              pruned.end());

  const std::vector<Episode> closed = {Episode::from_text(kAbc, "AB"),
                                       Episode::from_text(kAbc, "BC"),
                                       Episode::from_text(kAbc, "AC")};
  auto kept = generate_candidates(closed, /*prune=*/true);
  EXPECT_TRUE(std::find(kept.begin(), kept.end(), Episode::from_text(kAbc, "ABC")) !=
              kept.end());
}

TEST(GenerateCandidates, EmptyInputYieldsEmpty) {
  EXPECT_TRUE(generate_candidates({}).empty());
}

TEST(GenerateCandidates, EmitsLexicographicPrefixSortedOrder) {
  // The shared-prefix trie builds in one linear pass only over sorted
  // candidates, so the join guarantees the order — even when the frequent
  // set arrives scrambled.
  const std::vector<Episode> scrambled = {
      Episode::from_text(kAbc, "CA"), Episode::from_text(kAbc, "AB"),
      Episode::from_text(kAbc, "BC"), Episode::from_text(kAbc, "AC")};
  for (const bool prune : {false, true}) {
    const auto candidates = generate_candidates(scrambled, prune);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end())) << "prune=" << prune;
  }

  const std::vector<Episode> level1 = {Episode::from_text(kAbc, "C"),
                                       Episode::from_text(kAbc, "A"),
                                       Episode::from_text(kAbc, "B")};
  const auto pairs = generate_candidates(level1, /*prune=*/false);
  ASSERT_EQ(pairs.size(), 9u);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(pairs.front(), Episode::from_text(kAbc, "AA"));
  EXPECT_EQ(pairs.back(), Episode::from_text(kAbc, "CC"));
}

TEST(GenerateCandidates, PruningMatchesTheFullSubEpisodeRule) {
  // Pruning looks up only the middle sub-episodes (dropping the first or
  // last symbol gives a join parent); the result must equal the full
  // Apriori rule, every sub-episode frequent, on random sorted and
  // scrambled frequent sets at levels 1 to 3.
  std::uint64_t state = 2026;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int prev_level = 1; prev_level <= 3; ++prev_level) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Episode> frequent;
      for (const Episode& e : all_distinct_episodes(Alphabet(5), prev_level)) {
        if (next() % 3 != 0) frequent.push_back(e);
      }
      if (trial % 2 == 1) std::reverse(frequent.begin(), frequent.end());
      std::vector<Episode> expected;
      for (const Episode& c : generate_candidates(frequent, /*prune=*/false)) {
        bool keep = true;
        for (int drop = 0; drop < c.level(); ++drop) {
          keep = keep && std::find(frequent.begin(), frequent.end(), c.without(drop)) !=
                             frequent.end();
        }
        if (keep) expected.push_back(c);
      }
      EXPECT_EQ(generate_candidates(frequent, /*prune=*/true), expected)
          << "level " << prev_level << " trial " << trial;
    }
  }
}

TEST(EliminateInfrequent, ThresholdIsStrict) {
  const std::vector<Episode> eps = {Episode::from_text(kAbc, "A"),
                                    Episode::from_text(kAbc, "B")};
  // Support must be strictly greater than alpha (paper Algorithm 1).
  const auto keep = eliminate_infrequent(eps, {10, 5}, 100, 0.05);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 0u);
}

TEST(EliminateInfrequent, ReturnsIndicesInInputOrder) {
  const std::vector<Episode> eps = {
      Episode::from_text(kAbc, "A"), Episode::from_text(kAbc, "B"),
      Episode::from_text(kAbc, "C"), Episode::from_text(kAbc, "D")};
  const auto keep = eliminate_infrequent(eps, {9, 1, 7, 5}, 100, 0.02);
  EXPECT_EQ(keep, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(EliminateInfrequent, SizeMismatchRejected) {
  const std::vector<Episode> eps = {Episode::from_text(kAbc, "A")};
  EXPECT_THROW((void)eliminate_infrequent(eps, {1, 2}, 10, 0.0), gm::PreconditionError);
}

}  // namespace
}  // namespace gm::core
