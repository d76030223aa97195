// Resumable-scan checkpoint suite: capture -> (serialize elsewhere) ->
// restore -> resume must equal an uninterrupted scan bit-for-bit, across
// semantics x expiry x capture points — including mid-window captures whose
// expiry deadlines straddle the pause.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
#include "core/scan_checkpoint.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "random_episode_util.hpp"

namespace gm::core {
namespace {

using test::random_episodes;

std::span<const Symbol> prefix_of(const Sequence& db, std::size_t n) {
  return {db.data(), n};
}

std::span<const Symbol> tail_of(const Sequence& db, std::size_t n) {
  return {db.data() + n, db.size() - n};
}

TEST(ScanCheckpoint, ResumeEqualsUninterruptedAcrossSemanticsAndExpiry) {
  Rng rng(0x5EED5CA7);
  const Semantics all_semantics[] = {Semantics::kNonOverlappedSubsequence,
                                     Semantics::kContiguousRestart};
  const std::int64_t windows[] = {0,   2,   9,   254,
                                  255, 256, std::numeric_limits<std::int64_t>::max()};
  const double capture_fracs[] = {0.0, 0.37, 0.81, 1.0};
  for (int trial = 0; trial < 5; ++trial) {
    const auto alphabet_size = static_cast<int>(rng.between(3, 16));
    const Alphabet alphabet(alphabet_size);
    const auto db = data::markov_database(alphabet, 700, 0.55, rng());
    const auto episodes =
        random_episodes(rng, alphabet_size, static_cast<int>(rng.between(2, 25)), 4);
    for (const Semantics semantics : all_semantics) {
      for (const std::int64_t window : windows) {
        const ExpiryPolicy expiry{window};
        const auto expected = count_all(episodes, db, semantics, expiry);
        for (const double frac : capture_fracs) {
          const auto cut = static_cast<std::size_t>(frac * static_cast<double>(db.size()));
          StreamScan scan(episodes, semantics, expiry);
          scan.feed(prefix_of(db, cut));
          ASSERT_EQ(resume_scan(scan.checkpoint(), tail_of(db, cut)), expected)
              << "trial " << trial << " semantics " << to_string(semantics) << " window "
              << window << " cut " << cut;
        }
      }
    }
  }
}

TEST(ScanCheckpoint, MidWindowDeadlineFiresAtTheRightPositionAfterResume) {
  // <A,B> window 4 over "A C C | C B": the match starting at 0 is still live
  // at the cut (deadline at position 4), and B arrives at 4 — too late by
  // exactly one position.  An engine that forgot the live deadline would
  // count 1.
  const std::vector<Episode> episodes = {Episode({0, 1})};
  const Sequence db = {0, 2, 2, 2, 1};
  const ExpiryPolicy expiry{4};
  StreamScan scan(episodes, Semantics::kNonOverlappedSubsequence, expiry);
  scan.feed(prefix_of(db, 3));
  EXPECT_EQ(resume_scan(scan.checkpoint(), tail_of(db, 3)), (std::vector<std::int64_t>{0}));
  // Same shape, window 5: the deadline now clears B's position, so the match
  // must survive the pause and complete.
  const ExpiryPolicy wider{5};
  StreamScan wide_scan(episodes, Semantics::kNonOverlappedSubsequence, wider);
  wide_scan.feed(prefix_of(db, 3));
  EXPECT_EQ(resume_scan(wide_scan.checkpoint(), tail_of(db, 3)),
            (std::vector<std::int64_t>{1}));
}

TEST(ScanCheckpoint, AnyBatchingIsBitExactWithOneShotFeed) {
  Rng rng(0xBA7C4);
  const Alphabet alphabet(8);
  const auto db = data::uniform_database(alphabet, 900, rng());
  const auto episodes = random_episodes(rng, 8, 15, 3);
  const ExpiryPolicy expiry{6};
  const auto expected = count_all(episodes, db, Semantics::kNonOverlappedSubsequence, expiry);
  StreamScan scan(episodes, Semantics::kNonOverlappedSubsequence, expiry);
  std::size_t fed = 0;
  while (fed < db.size()) {
    const auto batch = std::min<std::size_t>(rng.between(1, 97), db.size() - fed);
    scan.feed({db.data() + fed, batch});
    fed += batch;
  }
  EXPECT_EQ(scan.counts(), expected);
  EXPECT_EQ(scan.high_water(), static_cast<std::int64_t>(db.size()));
}

TEST(ScanCheckpoint, DigestIsBatchingInvariantAndGenerationRoundTrips) {
  const Sequence db = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::uint64_t whole = stream_digest_extend(stream_digest_seed(), db);
  std::uint64_t chunked = stream_digest_seed();
  chunked = stream_digest_extend(chunked, prefix_of(db, 3));
  chunked = stream_digest_extend(chunked, tail_of(db, 3));
  EXPECT_EQ(chunked, whole);

  StreamScan scan({Episode({1, 2})}, Semantics::kNonOverlappedSubsequence, {});
  scan.feed(db);
  const ScanCheckpoint checkpoint = scan.checkpoint(42);
  EXPECT_EQ(checkpoint.prefix_digest, 0u);  // the stream's owner stamps it
  EXPECT_EQ(checkpoint.generation, 42u);
  EXPECT_EQ(checkpoint.high_water, 8);
}

TEST(ScanCheckpoint, MalformedCheckpointsAreRefused) {
  StreamScan scan({Episode({0, 1, 2})}, Semantics::kNonOverlappedSubsequence, {});
  const Sequence db = {0, 1, 0, 1};
  scan.feed(db);
  const ScanCheckpoint good = scan.checkpoint();

  ScanCheckpoint truncated = good;
  truncated.progress.clear();
  EXPECT_THROW(StreamScan{truncated}, gm::Error);

  ScanCheckpoint bad_state = good;
  bad_state.progress[0].state = 3;  // == level: automata reset on accept
  EXPECT_THROW(StreamScan{bad_state}, gm::Error);

  ScanCheckpoint bad_pos = good;
  bad_pos.progress[0].state = 1;
  bad_pos.progress[0].first_pos = good.high_water;  // at/after the high-water mark
  EXPECT_THROW(StreamScan{bad_pos}, gm::Error);
}

TEST(ScanCheckpoint, NegativeCountsAndWindowsAreRefused) {
  StreamScan scan({Episode({0, 1, 2})}, Semantics::kNonOverlappedSubsequence, {});
  scan.feed(Sequence{0, 1, 0, 1});
  const ScanCheckpoint good = scan.checkpoint();

  ScanCheckpoint bad_count = good;
  bad_count.progress[0].count = -7;
  EXPECT_THROW(StreamScan{bad_count}, gm::Error);

  ScanCheckpoint bad_window = good;
  bad_window.expiry.window = -5;
  EXPECT_THROW(StreamScan{bad_window}, gm::Error);
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    EXPECT_THROW((StreamScan{{Episode({0, 1})}, semantics, ExpiryPolicy{-5}}), gm::Error);
    // The flat fallback, for an episode past the lane engine's levels, too.
    EXPECT_THROW((StreamScan{{Episode(std::vector<Symbol>(kLaneMaxLevel + 1, 0))},
                             semantics, ExpiryPolicy{-1}}),
                 gm::Error);
  }
}

TEST(ScanCheckpoint, ResumesExactlyAtPositionsPastTwoToTheForty) {
  // A long append session: the capture sits at high_water 2^40, with
  // in-flight matches whose first positions and expiry deadlines need every
  // bit of int64.  The restored scan keeps matching a flat scan fed the same
  // absolute positions.
  constexpr std::int64_t kOrigin = std::int64_t{1} << 40;
  Rng rng(0x2E40);
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{9}, std::int64_t{256}}) {
      const ExpiryPolicy expiry{window};
      const auto episodes = random_episodes(rng, 6, 40, kLaneMaxLevel);
      const auto prefix = data::uniform_database(Alphabet(6), 500, rng());
      MultiCounter flat(episodes, semantics, expiry);
      flat.advance_batch(prefix, kOrigin - static_cast<std::int64_t>(prefix.size()));
      ScanCheckpoint capture;
      capture.semantics = semantics;
      capture.expiry = expiry;
      capture.high_water = kOrigin;
      capture.episodes = episodes;
      capture.progress = flat.progress();
      ASSERT_TRUE(std::any_of(capture.progress.begin(), capture.progress.end(),
                              [](const EpisodeProgress& p) { return p.state > 0; }));
      StreamScan scan(capture);
      for (int batch = 0; batch < 4; ++batch) {
        const auto events = data::uniform_database(Alphabet(6), rng.between(1, 700), rng());
        flat.advance_batch(events, scan.high_water());
        scan.feed(events);
        ASSERT_EQ(scan.checkpoint().progress, flat.progress())
            << to_string(semantics) << " window " << window << " batch " << batch;
      }
      EXPECT_GT(scan.high_water(), kOrigin);
    }
  }
}

TEST(ScanCheckpoint, FeedRefusesPositionsPastInt64Max) {
  // A restored high-water mark may sit anywhere in int64; the scan counts up
  // to the last position and refuses a batch that would pass it.
  ScanCheckpoint capture;
  capture.expiry = {4};
  capture.high_water = std::numeric_limits<std::int64_t>::max() - 3;
  capture.episodes = {Episode({0, 1})};
  capture.progress = {{0, 0, 0}};
  StreamScan scan(capture);
  scan.feed(Sequence{2, 0, 1});
  EXPECT_EQ(scan.counts(), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(scan.high_water(), std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(scan.feed(Sequence{0}), gm::Error);
}

TEST(ScanCheckpoint, LevelNineEpisodeFallsBackToTheFlatScanExactly) {
  // One episode past kLaneMaxLevel is beyond the lanes (LaneCounter refuses
  // the set), so StreamScan counts the whole set on MultiCounter.
  Rng rng(0x9E9);
  auto episodes = random_episodes(rng, 4, 20, kLaneMaxLevel);
  episodes.emplace_back(std::vector<Symbol>{0, 1, 2, 3, 0, 1, 2, 3, 0});
  const ExpiryPolicy expiry{40};
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    try {
      LaneCounter refused(episodes, semantics, expiry);
      ADD_FAILURE() << "LaneCounter should refuse a level-9 episode";
    } catch (const gm::Error& e) {
      EXPECT_EQ(e.code(), gm::ErrorCode::kCapability) << e.what();
    }
    StreamScan scan(episodes, semantics, expiry);
    MultiCounter flat(episodes, semantics, expiry);
    Sequence full;
    for (int batch = 0; batch < 5; ++batch) {
      const auto events = data::uniform_database(Alphabet(4), rng.between(1, 700), rng());
      flat.advance_batch(events, scan.high_water());
      scan.feed(events);
      full.insert(full.end(), events.begin(), events.end());
      ASSERT_EQ(scan.checkpoint().progress, flat.progress()) << "batch " << batch;
    }
    EXPECT_EQ(scan.counts(), count_all(episodes, full, semantics, expiry));
  }
}

}  // namespace
}  // namespace gm::core
