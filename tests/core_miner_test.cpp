// End-to-end miner tests (paper Algorithm 1) across counting backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "data/generators.hpp"

// Bytes requested from the global allocator while `g_tally_allocations` is
// set, so a test can bound what one mine allocates.  Every replaceable
// non-aligned form is replaced, so allocation and release always pair up
// (sanitizer builds check that they do).
namespace {
std::atomic<bool> g_tally_allocations{false};
std::atomic<std::size_t> g_allocated_bytes{0};

void* tallied_malloc(std::size_t size) noexcept {
  if (g_tally_allocations.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line so the compiler never sees free() meet a new-expression's
// pointer after inlining (GCC's -Wmismatched-new-delete would flag it).
[[gnu::noinline]] void tallied_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = tallied_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tallied_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return tallied_malloc(size);
}
void operator delete(void* p) noexcept { tallied_free(p); }
void operator delete[](void* p) noexcept { tallied_free(p); }
void operator delete(void* p, std::size_t) noexcept { tallied_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tallied_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { tallied_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { tallied_free(p); }

namespace gm::core {
namespace {

const Alphabet kAbc = Alphabet::english_uppercase();

MiningResult mine(const Sequence& db, const Alphabet& alphabet, const MinerConfig& config) {
  SerialCpuBackend backend;
  return mine_frequent_episodes(db, alphabet, backend, config);
}

TEST(Miner, FindsPlantedEpisodeThroughLevels) {
  // "ABC" repeated dominates: every prefix must be frequent, and <A,B,C>
  // must be discovered at level 3.
  Sequence db;
  for (int i = 0; i < 200; ++i) {
    db.push_back(0);
    db.push_back(1);
    db.push_back(2);
  }
  MinerConfig config;
  config.support_threshold = 0.05;
  config.max_level = 3;
  const auto result = mine(db, Alphabet(3), config);

  ASSERT_EQ(result.levels.size(), 3u);
  EXPECT_EQ(result.levels[0].frequent, 3);  // A, B, C all frequent
  const Episode abc({0, 1, 2});
  const bool found = std::any_of(result.frequent.begin(), result.frequent.end(),
                                 [&](const auto& f) { return f.episode == abc; });
  EXPECT_TRUE(found);
}

TEST(Miner, ThresholdEliminatesRareSymbols) {
  // 'Z' appears once in 1000 symbols of 'A'.
  Sequence db(1000, 0);
  db[500] = 25;
  MinerConfig config;
  config.support_threshold = 0.01;
  config.max_level = 2;
  const auto result = mine(db, kAbc, config);
  ASSERT_GE(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].frequent, 1);  // only 'A'
}

TEST(Miner, MaxLevelBoundsTheRun) {
  const auto db = data::uniform_database(Alphabet(4), 2000, 5);
  MinerConfig config;
  config.support_threshold = 0.0;
  config.max_level = 2;
  const auto result = mine(db, Alphabet(4), config);
  EXPECT_EQ(result.levels.size(), 2u);
  for (const auto& f : result.frequent) EXPECT_LE(f.episode.level(), 2);
}

TEST(Miner, StopsAtMaxLevelWithoutGeneratingTheNextLevel) {
  // Alphabet 255 at support 0: all 65,025 level-2 candidates survive, and
  // joining them would build 16.6M level-3 episodes (over 400 MB of
  // requests) that a max_level-2 mine never counts.
  const Alphabet alphabet(255);
  const auto db = data::uniform_database(alphabet, 5000, 13);
  MinerConfig config;
  config.support_threshold = 0.0;
  config.max_level = 2;
  SingleScanCpuBackend backend;

  g_allocated_bytes = 0;
  g_tally_allocations = true;
  const MiningResult result = mine_frequent_episodes(db, alphabet, backend, config);
  g_tally_allocations = false;

  ASSERT_EQ(result.levels.size(), 2u);
  EXPECT_EQ(result.levels[0].frequent, 255);
  EXPECT_EQ(result.levels[1].candidates, 255 * 255);
  EXPECT_LT(g_allocated_bytes.load(), std::size_t{64} << 20);
}

TEST(Miner, UnboundedRunTerminatesWhenCandidatesDie) {
  // A 2-symbol alphabet with support so high only singles survive.
  Sequence db;
  for (int i = 0; i < 100; ++i) db.push_back(static_cast<Symbol>(i % 2));
  MinerConfig config;
  config.support_threshold = 0.4;  // pairs have support ~0.25 each
  config.max_level = 0;            // unbounded
  const auto result = mine(db, Alphabet(2), config);
  EXPECT_LE(result.levels.size(), 3u);
  EXPECT_TRUE(result.levels.back().frequent == 0 ||
              result.levels.back().level < 3);
}

TEST(Miner, CandidateCountsMatchPaperWithZeroThreshold) {
  // With threshold 0 on uniform data every candidate survives: the level
  // sizes must be exactly Table 1's 26 / 650 / 15,600... level 2 candidates
  // are 26*26 here because the general model allows repeats; the paper's
  // distinct-symbol space is the all_distinct_episodes enumeration instead.
  const auto db = data::uniform_database(kAbc, 5000, 3);
  MinerConfig config;
  config.support_threshold = 0.0;
  config.max_level = 2;
  config.apriori_prune = false;
  const auto result = mine(db, kAbc, config);
  EXPECT_EQ(result.levels[0].candidates, 26);
  EXPECT_EQ(result.levels[1].candidates, 26 * 26);
}

TEST(Miner, ParallelCpuBackendAgreesWithSerial) {
  const auto db = data::uniform_database(Alphabet(6), 3000, 8);
  MinerConfig config;
  config.support_threshold = 0.002;
  config.max_level = 3;

  SerialCpuBackend serial;
  ParallelCpuBackend parallel(3);
  const auto a = mine_frequent_episodes(db, Alphabet(6), serial, config);
  const auto b = mine_frequent_episodes(db, Alphabet(6), parallel, config);

  ASSERT_EQ(a.total_frequent(), b.total_frequent());
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].episode, b.frequent[i].episode);
    EXPECT_EQ(a.frequent[i].count, b.frequent[i].count);
  }
}

TEST(Miner, ExpiryReducesCounts) {
  const auto db = data::uniform_database(Alphabet(4), 4000, 9);
  MinerConfig loose;
  loose.support_threshold = 0.0;
  loose.max_level = 2;
  MinerConfig tight = loose;
  tight.expiry = ExpiryPolicy{2};

  const auto all = mine(db, Alphabet(4), loose);
  const auto windowed = mine(db, Alphabet(4), tight);
  // Same candidates (threshold 0), smaller or equal counts with expiry.
  ASSERT_EQ(all.frequent.size(), windowed.frequent.size());
  bool some_smaller = false;
  for (std::size_t i = 0; i < all.frequent.size(); ++i) {
    EXPECT_LE(windowed.frequent[i].count, all.frequent[i].count);
    if (windowed.frequent[i].count < all.frequent[i].count) some_smaller = true;
  }
  EXPECT_TRUE(some_smaller);
}

// Regression: the support test used to run twice (eliminate_infrequent and a
// second inline loop) and could drift.  The per-level report and the
// discovered-episode list must come from the one keep decision.
TEST(Miner, LevelReportsAgreeWithDiscoveredEpisodes) {
  const auto db = data::uniform_database(Alphabet(5), 3000, 21);
  MinerConfig config;
  config.support_threshold = 0.01;
  config.max_level = 3;
  const auto result = mine(db, Alphabet(5), config);

  std::vector<std::int64_t> per_level(static_cast<std::size_t>(config.max_level) + 1, 0);
  for (const auto& f : result.frequent) {
    ASSERT_LE(f.episode.level(), config.max_level);
    ++per_level[static_cast<std::size_t>(f.episode.level())];
    EXPECT_GT(f.support, config.support_threshold);
    EXPECT_EQ(f.support, static_cast<double>(f.count) / static_cast<double>(db.size()));
  }
  for (const auto& level : result.levels) {
    EXPECT_EQ(level.frequent, per_level[static_cast<std::size_t>(level.level)]);
  }
}

TEST(Miner, SingleScanBackendAgreesWithSerial) {
  const auto db = data::uniform_database(Alphabet(6), 3000, 8);
  MinerConfig config;
  config.support_threshold = 0.002;
  config.max_level = 3;
  config.expiry = ExpiryPolicy{12};

  SerialCpuBackend serial;
  SingleScanCpuBackend single_scan;
  const auto a = mine_frequent_episodes(db, Alphabet(6), serial, config);
  const auto c = mine_frequent_episodes(db, Alphabet(6), single_scan, config);

  ASSERT_EQ(a.total_frequent(), c.total_frequent());
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].episode, c.frequent[i].episode);
    EXPECT_EQ(a.frequent[i].count, c.frequent[i].count);
  }
}

TEST(Miner, RejectsBadInputs) {
  SerialCpuBackend backend;
  MinerConfig config;
  EXPECT_THROW((void)mine_frequent_episodes({}, kAbc, backend, config),
               gm::PreconditionError);
  const Sequence bad = {0, 200};  // symbol outside a 26-letter alphabet
  EXPECT_THROW((void)mine_frequent_episodes(bad, kAbc, backend, config),
               gm::PreconditionError);
}

TEST(Miner, ValidatesConfigDomainsWithInvalidConfigCode) {
  // Out-of-domain configs used to silently produce empty (threshold > 1) or
  // surprising runs; they are now rejected before any counting happens.
  MinerConfig config;
  config.support_threshold = 1.5;
  try {
    validate_miner_config(config);
    FAIL() << "support_threshold 1.5 should be rejected";
  } catch (const gm::Error& e) {
    EXPECT_EQ(e.code(), gm::ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("[0, 1]"), std::string::npos);
  }
  config = {};
  config.max_level = -1;
  try {
    validate_miner_config(config);
    FAIL() << "negative max_level should be rejected";
  } catch (const gm::Error& e) {
    EXPECT_EQ(e.code(), gm::ErrorCode::kInvalidConfig);
  }
  config = {};
  config.expiry.window = -3;
  EXPECT_THROW(validate_miner_config(config), gm::PreconditionError);
  config = {};  // defaults are valid
  EXPECT_NO_THROW(validate_miner_config(config));
  config.support_threshold = 1.0;
  config.max_level = 0;
  EXPECT_NO_THROW(validate_miner_config(config));

  SerialCpuBackend backend;
  const Sequence db = {0, 1, 2, 0, 1, 2};
  config = {};
  config.support_threshold = -0.5;
  EXPECT_THROW((void)mine_frequent_episodes(db, kAbc, backend, config),
               gm::PreconditionError);
}

TEST(Miner, LevelCapErrorCarriesCapabilityCode) {
  class CappedBackend final : public CountingBackend {
   public:
    [[nodiscard]] std::string name() const override { return "capped"; }
    [[nodiscard]] int max_level() const override { return 1; }
    [[nodiscard]] CountResult count(const CountRequest& request) override {
      SerialCpuBackend serial;
      return serial.count(request);
    }
  };
  Sequence db;
  for (int i = 0; i < 50; ++i) {
    db.push_back(0);
    db.push_back(1);
  }
  CappedBackend backend;
  MinerConfig config;
  config.support_threshold = 0.0;
  config.max_level = 3;
  try {
    (void)mine_frequent_episodes(db, kAbc, backend, config);
    FAIL() << "mining past the backend level cap should be rejected";
  } catch (const gm::Error& e) {
    EXPECT_EQ(e.code(), gm::ErrorCode::kCapability);
  }
}

TEST(Miner, ObserverSeesLevelsAndCanTruncate) {
  // The observer sees each level's counting request, and the backend's
  // count() receives that very object.
  class RecordingBackend final : public CountingBackend {
   public:
    [[nodiscard]] std::string name() const override { return "recording"; }
    [[nodiscard]] CountResult count(const CountRequest& request) override {
      counted.push_back(&request);
      return serial.count(request);
    }
    SerialCpuBackend serial;
    std::vector<const CountRequest*> counted;
  };
  class StopAfterOne final : public LevelObserver {
   public:
    bool on_level_start(int level, const CountRequest& request) override {
      starts.push_back({level, static_cast<std::int64_t>(request.episodes.size())});
      seen.push_back(&request);
      return level <= 1;
    }
    void on_level_done(const LevelReport& report) override { done.push_back(report.level); }
    std::vector<std::pair<int, std::int64_t>> starts;
    std::vector<const CountRequest*> seen;
    std::vector<int> done;
  };

  Sequence db;
  for (int i = 0; i < 100; ++i) {
    db.push_back(0);
    db.push_back(1);
    db.push_back(2);
  }
  MinerConfig config;
  config.support_threshold = 0.1;
  config.max_level = 3;
  RecordingBackend backend;

  StopAfterOne observer;
  const MiningResult truncated =
      mine_frequent_episodes(db, kAbc, backend, config, &observer);
  EXPECT_TRUE(truncated.truncated);
  ASSERT_EQ(truncated.levels.size(), 1u);
  ASSERT_EQ(observer.starts.size(), 2u);
  EXPECT_EQ(observer.starts[0].first, 1);
  EXPECT_EQ(observer.starts[0].second, 26);  // level-1 candidates = alphabet
  EXPECT_EQ(observer.starts[1].first, 2);
  EXPECT_EQ(observer.done, std::vector<int>{1});
  ASSERT_EQ(backend.counted.size(), 1u);  // the stopped level is never counted
  EXPECT_EQ(backend.counted[0], observer.seen[0]);

  // The truncated prefix is bit-identical to the classic run's first level.
  const MiningResult full = mine(db, kAbc, config);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(truncated.levels[0].frequent, full.levels[0].frequent);
  for (std::size_t i = 0; i < truncated.frequent.size(); ++i) {
    EXPECT_EQ(truncated.frequent[i].episode, full.frequent[i].episode);
    EXPECT_EQ(truncated.frequent[i].count, full.frequent[i].count);
  }
}

}  // namespace
}  // namespace gm::core
