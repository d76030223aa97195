// Chunked counting and spanning-correction tests (paper Figure 5), including
// randomized property tests that the state-composition fix is exact.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"

namespace gm::core {
namespace {

const Alphabet kAbc = Alphabet::english_uppercase();

TEST(ChunkBoundaries, CoverAndBalance) {
  const auto b = chunk_boundaries(10, 3);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[1], 4);  // remainder to the lowest chunks
  EXPECT_EQ(b[2], 7);
  EXPECT_EQ(b[3], 10);
}

TEST(ChunkBoundaries, MoreChunksThanSymbols) {
  const auto b = chunk_boundaries(2, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.back(), 2);  // trailing chunks empty
}

TEST(BufferedSliceBoundaries, MatchPerBufferChunking) {
  // 10 symbols, buffer of 4, 2 threads: buffers [0,4),[4,8),[8,10),
  // each split into 2 slices.
  const auto b = buffered_slice_boundaries(10, 4, 2);
  const std::vector<std::int64_t> expected = {0, 2, 4, 6, 8, 9, 10};
  EXPECT_EQ(b, expected);
}

TEST(SpanningFix, PaperFigure5Scenario) {
  // Figure 5: searching B => C with a chunk split that severs an occurrence;
  // without the fix one appearance is lost.
  const Sequence db = kAbc.parse("ABCBCA");
  const Episode bc = Episode::from_text(kAbc, "BC");
  const auto serial =
      count_occurrences(bc, db, Semantics::kNonOverlappedSubsequence);
  EXPECT_EQ(serial, 2);

  // Split right between the B and the C of the second occurrence.
  const std::vector<std::int64_t> bounds = {0, 4, 6};
  EXPECT_LT(count_with_boundaries(bc, db, bounds, Semantics::kNonOverlappedSubsequence, {},
                                  SpanningFix::kNone),
            serial);
  EXPECT_EQ(count_with_boundaries(bc, db, bounds, Semantics::kNonOverlappedSubsequence, {},
                                  SpanningFix::kStateComposition),
            serial);
}

TEST(SegmentTransfer, EntryStatesBehaveIndependently) {
  const Sequence db = kAbc.parse("CAB");
  const Episode abc = Episode::from_text(kAbc, "ABC");
  const auto transfer = segment_transfer(abc.symbols(), Semantics::kNonOverlappedSubsequence,
                                         {}, db, 0, 3);
  ASSERT_EQ(transfer.by_entry_state.size(), 3u);
  // Entry state 0: sees C,A,B -> ends in state 2, no completion.
  EXPECT_EQ(transfer.by_entry_state[0].count, 0);
  EXPECT_EQ(transfer.by_entry_state[0].state, 2);
  // Entry state 2 (waiting for C): completes at the first symbol, then A,B.
  EXPECT_EQ(transfer.by_entry_state[2].count, 1);
  EXPECT_EQ(transfer.by_entry_state[2].state, 2);
}

class CompositionProperty
    : public ::testing::TestWithParam<std::tuple<Semantics, int /*level*/, int /*chunks*/>> {};

TEST_P(CompositionProperty, MatchesSerialOracleOnRandomData) {
  const auto [semantics, level, chunks] = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<unsigned>(level * 131 + chunks));
  for (int trial = 0; trial < 12; ++trial) {
    const auto size = static_cast<std::int64_t>(50 + rng.below(400));
    const Alphabet alphabet(4);  // small alphabet => many matches and spans
    const Sequence db = data::uniform_database(alphabet, size, rng());
    const auto episodes = all_distinct_episodes(alphabet, level);
    for (const auto& e : episodes) {
      const auto expected = count_occurrences(e, db, semantics);
      const auto chunked =
          count_chunked(e, db, chunks, semantics, {}, SpanningFix::kStateComposition);
      ASSERT_EQ(chunked, expected)
          << "episode " << e.to_string(alphabet) << " size " << size << " chunks " << chunks;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositionProperty,
    ::testing::Combine(::testing::Values(Semantics::kNonOverlappedSubsequence,
                                         Semantics::kContiguousRestart),
                       ::testing::Values(1, 2, 3), ::testing::Values(2, 7, 32)));

class ExpiryRescanProperty
    : public ::testing::TestWithParam<std::tuple<int /*window*/, int /*chunks*/>> {};

TEST_P(ExpiryRescanProperty, ApproximatesSerialOracleWithinTolerance) {
  // The overlap-rescan fix is a documented approximation even with expiry:
  // the rescan automaton's greedy consumption near a boundary can disagree
  // with the serial automaton's.  It must recover at least the independent
  // per-chunk count and stay close to the oracle on random data.
  const auto [window, chunks] = GetParam();
  const ExpiryPolicy expiry{window};
  Rng rng(0xFEED ^ static_cast<unsigned>(window * 17 + chunks));
  std::int64_t total_abs_error = 0;
  std::int64_t total_expected = 0;
  std::int64_t boundary_episode_pairs = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // Keep chunks at least 4x the window: the rescan approximation is only
    // meaningful when boundaries are far apart relative to the window (the
    // paper's regime: ~768-symbol chunks vs. small expiry thresholds).
    const auto size = std::max<std::int64_t>(static_cast<std::int64_t>(60 + rng.below(300)),
                                             4LL * window * chunks);
    const Alphabet alphabet(4);
    const Sequence db = data::uniform_database(alphabet, size, rng());
    for (int level = 1; level <= 3; ++level) {
      for (const auto& e : all_distinct_episodes(alphabet, level)) {
        const auto expected =
            count_occurrences(e, db, Semantics::kNonOverlappedSubsequence, expiry);
        const auto independent = count_chunked(e, db, chunks,
                                               Semantics::kNonOverlappedSubsequence, expiry,
                                               SpanningFix::kNone);
        const auto patched = count_chunked(e, db, chunks, Semantics::kNonOverlappedSubsequence,
                                           expiry, SpanningFix::kOverlapRescan);
        ASSERT_GE(patched, independent)
            << "rescan must only add crossers: " << e.to_string(alphabet);
        total_abs_error += std::abs(patched - expected);
        total_expected += expected;
        boundary_episode_pairs += chunks - 1;
      }
    }
  }
  // Aggregate accuracy: the greedy mismatch near a boundary costs a fraction
  // of one occurrence per (boundary, episode) pair on this very dense data
  // (4-letter alphabet); overall the approximation stays within 10% of the
  // oracle.  The exact alternative is kStateComposition.
  EXPECT_LE(static_cast<double>(total_abs_error),
            0.02 * static_cast<double>(total_expected) +
                0.3 * static_cast<double>(boundary_episode_pairs) + 2.0)
      << "window " << window << " chunks " << chunks;
  EXPECT_LE(static_cast<double>(total_abs_error), 0.10 * static_cast<double>(total_expected))
      << "window " << window << " chunks " << chunks;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExpiryRescanProperty,
                         ::testing::Combine(::testing::Values(2, 5, 16),
                                            ::testing::Values(2, 5, 19)));

TEST(OverlapRescanWithoutExpiry, IsDocumentedApproximation) {
  // Without a span bound, an occurrence whose start lies more than `window`
  // symbols before the boundary is invisible to the rescan: span 8 here,
  // window 2*level = 4.
  const Sequence db = kAbc.parse("AXXXXXXXB");
  const Episode ab = Episode::from_text(kAbc, "AB");
  const std::vector<std::int64_t> bounds = {0, 5, 9};
  const auto approx = count_with_boundaries(ab, db, bounds,
                                            Semantics::kNonOverlappedSubsequence, {},
                                            SpanningFix::kOverlapRescan);
  EXPECT_EQ(approx, 0);
  EXPECT_EQ(count_occurrences(ab, db, Semantics::kNonOverlappedSubsequence), 1);
}

TEST(ExpiryShrinksSpanningWork, FewerCrossersWithTighterWindows) {
  // Paper section 6 prediction: with expiration, fewer episodes span
  // boundaries.  Measure crossers as (composition - none) for decreasing
  // windows on the same data.
  Rng rng(99);
  const Alphabet alphabet(4);
  const Sequence db = data::uniform_database(alphabet, 4000, rng());
  const Episode e = Episode::from_text(kAbc, "ABC");

  auto crossers = [&](ExpiryPolicy expiry) {
    const auto full = count_occurrences(e, db, Semantics::kNonOverlappedSubsequence, expiry);
    const auto none = count_chunked(e, db, 64, Semantics::kNonOverlappedSubsequence, expiry,
                                    SpanningFix::kNone);
    return full - none;
  };

  const auto unbounded = crossers({});
  const auto wide = crossers({64});
  const auto tight = crossers({4});
  EXPECT_GE(unbounded, wide);
  EXPECT_GE(wide, tight);
  EXPECT_GE(tight, 0);
}

}  // namespace
}  // namespace gm::core
