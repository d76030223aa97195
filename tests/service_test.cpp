// Service-layer suite: sessions, the concurrent MiningService, result
// caching, batching, and planner-driven admission control.
//
// The load-bearing property is bit-exactness: whatever path a request takes
// through the service — fresh, cached, batched with strangers, served by any
// worker — the response must be identical to a direct mine_frequent_episodes
// / SerialCpuBackend::count of the same request.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "distrib/distrib_backend.hpp"
#include "kernels/gpu_backend.hpp"
#include "kernels/mining_kernels.hpp"
#include "planner/auto_backend.hpp"
#include "planner/workload.hpp"
#include "service/backend_factory.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace gm::service {
namespace {

data::Dataset make_dataset(int alphabet_size, std::int64_t size, std::uint64_t seed) {
  data::Dataset dataset{core::Alphabet(alphabet_size), {}};
  dataset.events = data::uniform_database(dataset.alphabet, size, seed);
  return dataset;
}

std::vector<core::Episode> random_level_episodes(Rng& rng, int alphabet_size, int count,
                                                 int level) {
  std::vector<core::Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(count));
  for (int e = 0; e < count; ++e) {
    std::vector<core::Symbol> symbols;
    for (int i = 0; i < level; ++i) {
      symbols.push_back(
          static_cast<core::Symbol>(rng.below(static_cast<std::uint64_t>(alphabet_size))));
    }
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

std::vector<std::int64_t> oracle_counts(const data::Dataset& dataset,
                                        const std::vector<core::Episode>& episodes,
                                        core::Semantics semantics, core::ExpiryPolicy expiry) {
  core::SerialCpuBackend serial;
  core::CountRequest request;
  request.database = dataset.events;
  request.episodes = episodes;
  request.semantics = semantics;
  request.expiry = expiry;
  return serial.count(request).counts;
}

/// What a session with the fixed `spec` prices counting `episodes` on
/// `dataset` at: price_candidate on the spec's own candidate.
planner::ScoredCandidate fixed_price(const data::Dataset& dataset, const BackendSpec& spec,
                                     const std::vector<core::Episode>& episodes) {
  const core::CountRequest request{.database = dataset.events, .episodes = episodes};
  return planner::price_candidate(planner::workload_of(request, dataset.alphabet.size()),
                                  candidate_for(spec), planner_options_for(spec));
}

void expect_same_mining(const core::MiningResult& got, const core::MiningResult& want) {
  ASSERT_EQ(got.frequent.size(), want.frequent.size());
  for (std::size_t i = 0; i < want.frequent.size(); ++i) {
    EXPECT_EQ(got.frequent[i].episode, want.frequent[i].episode);
    EXPECT_EQ(got.frequent[i].count, want.frequent[i].count);
    EXPECT_DOUBLE_EQ(got.frequent[i].support, want.frequent[i].support);
  }
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (std::size_t i = 0; i < want.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].candidates, want.levels[i].candidates);
    EXPECT_EQ(got.levels[i].frequent, want.levels[i].frequent);
  }
}

TEST(ServiceSession, MineMatchesOracleAndRepeatHitsCache) {
  for (const auto semantics :
       {core::Semantics::kNonOverlappedSubsequence, core::Semantics::kContiguousRestart}) {
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{5}}) {
      data::Dataset dataset = make_dataset(10, 4000, 42);
      MiningSession session(dataset, {.backend = {.name = "cpu-single-scan"}});

      MineRequest request;
      request.config.support_threshold = 0.002;
      request.config.max_level = 3;
      request.config.semantics = semantics;
      request.config.expiry = {window};

      const MineResponse first = session.mine(request);
      ASSERT_EQ(first.disposition, Disposition::kServed)
          << first.rejection.reason;
      EXPECT_EQ(first.database_generation, 1u);
      EXPECT_EQ(first.plan_notes.size(), first.result.levels.size());

      core::SerialCpuBackend serial;
      const core::MiningResult want =
          core::mine_frequent_episodes(dataset.events, dataset.alphabet, serial, request.config);
      expect_same_mining(first.result, want);

      const MineResponse second = session.mine(request);
      ASSERT_EQ(second.disposition, Disposition::kCached);
      EXPECT_EQ(second.cache_key, first.cache_key);
      expect_same_mining(second.result, first.result);
      EXPECT_GE(session.mine_cache_stats().hits, 1u);
    }
  }
}

TEST(ServiceSession, RandomizedCountsMatchOracleAcrossSemanticsAndExpiry) {
  Rng rng(2026);
  data::Dataset dataset = make_dataset(14, 5000, 7);
  MiningSession session(dataset, {.backend = {.name = "auto", .threads = 2}});

  for (const auto semantics :
       {core::Semantics::kNonOverlappedSubsequence, core::Semantics::kContiguousRestart}) {
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{6}}) {
      for (int round = 0; round < 3; ++round) {
        CountRequest request;
        request.episodes = random_level_episodes(
            rng, 14, 10 + static_cast<int>(rng.below(20)), 1 + static_cast<int>(rng.below(3)));
        request.semantics = semantics;
        request.expiry = {window};

        const CountResponse response = session.count(request);
        ASSERT_EQ(response.disposition, Disposition::kServed) << response.rejection.reason;
        EXPECT_EQ(response.counts,
                  oracle_counts(dataset, request.episodes, semantics, {window}));

        // A repeat of the same episode set must come from the cache,
        // bit-identical.
        const CountResponse repeat = session.count(request);
        ASSERT_EQ(repeat.disposition, Disposition::kCached);
        EXPECT_EQ(repeat.counts, response.counts);
      }
    }
  }
}

TEST(ServiceSession, ReloadInvalidatesCachesAndBumpsGeneration) {
  data::Dataset first = make_dataset(8, 3000, 1);
  MiningSession session(first, {.backend = {.name = "cpu-serial"}});

  MineRequest request;
  request.config.support_threshold = 0.001;
  request.config.max_level = 2;

  const MineResponse warm = session.mine(request);
  ASSERT_EQ(warm.disposition, Disposition::kServed);
  ASSERT_EQ(session.mine(request).disposition, Disposition::kCached);

  // A dataset with a symbol outside its alphabet is refused and leaves the
  // loaded one in place.
  data::Dataset bad = make_dataset(8, 3000, 7);
  bad.events[1500] = 8;
  const std::vector<double> before = session.measured_frequencies();
  EXPECT_THROW(session.reload(bad), gm::Error);
  EXPECT_EQ(session.generation(), 1u);
  EXPECT_EQ(session.measured_frequencies(), before);
  ASSERT_EQ(session.mine(request).disposition, Disposition::kCached);

  data::Dataset second = make_dataset(8, 3000, 999);
  session.reload(second);
  EXPECT_EQ(session.generation(), 2u);
  EXPECT_GE(session.mine_cache_stats().invalidations, 1u);

  // Same request, new database: a fresh run against the new events, not a
  // stale cached answer.
  const MineResponse fresh = session.mine(request);
  ASSERT_EQ(fresh.disposition, Disposition::kServed);
  EXPECT_EQ(fresh.database_generation, 2u);
  EXPECT_NE(fresh.cache_key, warm.cache_key);
  core::SerialCpuBackend serial;
  const core::MiningResult want =
      core::mine_frequent_episodes(second.events, second.alphabet, serial, request.config);
  expect_same_mining(fresh.result, want);
}

TEST(ServiceSession, AppendKeepsCachesWarmWhereReloadInvalidates) {
  // The cache-coherence contract that separates the two database mutations:
  // reload() clears both caches (its events are unrelated to the old ones),
  // while append_events() only bumps the generation — old entries become
  // unreachable through new keys but are NOT invalidated, so repeating a
  // request from before the append re-counts (fresh key, miss) and repeating
  // it again hits, all with exact counts for the grown stream.
  data::Dataset dataset = make_dataset(6, 800, 21);
  std::vector<core::Symbol> full = dataset.events;
  MiningSession session(dataset,
                        {.backend = {.name = "cpu-serial"}, .count_cache_capacity = 1});

  CountRequest request;
  request.episodes = {core::Episode({1, 2}), core::Episode({3, 4})};
  request.expiry = {5};

  const CountResponse warm = session.count(request);
  ASSERT_EQ(warm.disposition, Disposition::kServed);
  ASSERT_EQ(session.count(request).disposition, Disposition::kCached);
  const CacheStats before = session.count_cache_stats();

  const auto extra = data::uniform_database(core::Alphabet(6), 200, 77);
  (void)session.append_events(extra);
  full.insert(full.end(), extra.begin(), extra.end());

  // No invalidations — unlike reload — yet the same request cannot hit the
  // pre-append entry: its key now mixes the new generation.
  EXPECT_EQ(session.count_cache_stats().invalidations, before.invalidations);
  const CountResponse regrown = session.count(request);
  ASSERT_EQ(regrown.disposition, Disposition::kServed);
  EXPECT_NE(regrown.cache_key, warm.cache_key);
  std::vector<std::int64_t> expected;
  for (const core::Episode& e : request.episodes) {
    expected.push_back(core::count_occurrences(e, full, request.semantics, request.expiry));
  }
  EXPECT_EQ(regrown.counts, expected);
  EXPECT_EQ(session.count(request).disposition, Disposition::kCached);

  // With capacity 1, caching the post-append answer pushed out the pre-append
  // entry — an unreachable old-generation leftover, so the cache books it as
  // a stale eviction, never capacity pressure (and reload never books either:
  // its drops are invalidations, asserted above).
  EXPECT_EQ(session.count_cache_stats().stale_evictions, 1u);
  EXPECT_EQ(session.count_cache_stats().evictions, before.evictions);
}

TEST(ServiceSession, InvalidConfigsAreRejectedWithStableCodes) {
  MiningSession session(make_dataset(6, 500, 3), {.backend = {.name = "cpu-serial"}});

  MineRequest bad_support;
  bad_support.config.support_threshold = 1.5;
  const MineResponse r1 = session.mine(bad_support);
  EXPECT_EQ(r1.disposition, Disposition::kRejected);
  EXPECT_EQ(r1.rejection.code, ErrorCode::kInvalidConfig);
  EXPECT_NE(r1.rejection.reason.find("[0, 1]"), std::string::npos);

  MineRequest bad_level;
  bad_level.config.max_level = -2;
  const MineResponse r2 = session.mine(bad_level);
  EXPECT_EQ(r2.disposition, Disposition::kRejected);
  EXPECT_EQ(r2.rejection.code, ErrorCode::kInvalidConfig);

  CountRequest empty;
  const CountResponse r3 = session.count(empty);
  EXPECT_EQ(r3.disposition, Disposition::kRejected);
  EXPECT_EQ(r3.rejection.code, ErrorCode::kInvalidConfig);

  CountRequest mixed;
  mixed.episodes = {core::Episode({0, 1}), core::Episode({2})};  // mixed levels
  const CountResponse r4 = session.count(mixed);
  EXPECT_EQ(r4.disposition, Disposition::kRejected);
  EXPECT_EQ(r4.rejection.code, ErrorCode::kInvalidConfig);

  CountRequest outside;
  outside.episodes = {core::Episode({0, 42})};  // symbol outside the 6-symbol alphabet
  const CountResponse r5 = session.count(outside);
  EXPECT_EQ(r5.disposition, Disposition::kRejected);
  EXPECT_EQ(r5.rejection.code, ErrorCode::kInvalidConfig);
}

TEST(ServiceSession, RetiredBackendNamesAreRefusedWithTheValidList) {
  // Configs naming a deleted host backend fail at construction with the
  // precondition code and the list of names that do exist.
  for (const char* retired : {"cpu-sharded", "cpu-trie-scan", "sharded", "trie-scan"}) {
    try {
      (void)make_backend({.name = retired});
      ADD_FAILURE() << retired << " should be refused";
    } catch (const gm::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kPrecondition) << retired;
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("unknown backend '") + retired + "'"), std::string::npos)
          << what;
      for (const std::string_view name : backend_names()) {
        EXPECT_NE(what.find(name), std::string::npos) << name << " missing from: " << what;
      }
    }
  }
  EXPECT_EQ(backend_names().size(), 8u);
}

TEST(ServiceSession, AdmissionRejectsWorkOverTheLatencyBudget) {
  MiningSession session(make_dataset(12, 6000, 11), {.backend = {.name = "cpu-single-scan"}});

  MineRequest request;
  request.config.support_threshold = 0.001;
  request.config.max_level = 3;
  request.limits.latency_budget_ms = 1e-9;  // nothing fits

  const MineResponse response = session.mine(request);
  EXPECT_EQ(response.disposition, Disposition::kRejected);
  EXPECT_EQ(response.rejection.code, ErrorCode::kAdmissionRejected);
  EXPECT_NE(response.rejection.reason.find("latency budget"), std::string::npos);
  EXPECT_TRUE(response.result.frequent.empty());
  EXPECT_GT(response.timing.predicted_ms, 0.0);

  CountRequest count;
  Rng rng(5);
  count.episodes = random_level_episodes(rng, 12, 30, 2);
  count.limits.latency_budget_ms = 1e-9;
  const CountResponse count_response = session.count(count);
  EXPECT_EQ(count_response.disposition, Disposition::kRejected);
  EXPECT_EQ(count_response.rejection.code, ErrorCode::kAdmissionRejected);
}

TEST(ServiceSession, MidBudgetMineTruncatesBetweenLevelsExactly) {
  data::Dataset dataset = make_dataset(12, 6000, 13);
  const BackendSpec spec{.name = "cpu-single-scan"};
  MiningSession session(dataset, {.backend = spec});

  MineRequest unbounded;
  unbounded.config.support_threshold = 0.0;  // everything survives to level 3
  unbounded.config.max_level = 3;
  const MineResponse full = session.mine(unbounded);
  ASSERT_EQ(full.disposition, Disposition::kServed);
  ASSERT_EQ(full.result.levels.size(), 3u);

  // A budget between the level-1 price and the level-1+2 price: level 1 is
  // counted, level 2 is not.
  std::vector<core::Episode> survivors;
  for (const core::FrequentEpisode& f : full.result.frequent) {
    if (f.episode.level() == 1) survivors.push_back(f.episode);
  }
  const double through_1 =
      fixed_price(dataset, spec, core::level1_candidates(dataset.alphabet)).predicted_ms;
  const double through_2 =
      through_1 +
      fixed_price(dataset, spec, core::generate_candidates(survivors, true)).predicted_ms;
  ASSERT_LT(through_1, through_2);

  // A fresh cache: the unbounded run's result has the same cache key.
  session.reload(dataset);
  MineRequest budgeted = unbounded;
  budgeted.limits.latency_budget_ms = (through_1 + through_2) / 2.0;
  const MineResponse partial = session.mine(budgeted);
  ASSERT_EQ(partial.disposition, Disposition::kTruncated) << partial.rejection.reason;
  EXPECT_TRUE(partial.result.truncated);
  EXPECT_EQ(partial.rejection.code, ErrorCode::kAdmissionRejected);
  EXPECT_DOUBLE_EQ(partial.timing.predicted_ms, through_2);
  ASSERT_EQ(partial.result.levels.size(), 1u);
  // The level that did run is complete and identical to the full run.
  EXPECT_EQ(partial.result.levels[0].candidates, full.result.levels[0].candidates);
  EXPECT_EQ(partial.result.levels[0].frequent, full.result.levels[0].frequent);
  ASSERT_EQ(partial.result.total_frequent(), full.result.levels[0].frequent);
  for (std::size_t i = 0; i < partial.result.frequent.size(); ++i) {
    EXPECT_EQ(partial.result.frequent[i].episode, full.result.frequent[i].episode);
    EXPECT_EQ(partial.result.frequent[i].count, full.result.frequent[i].count);
  }
  ASSERT_EQ(partial.plan_notes.size(), 2u);
  EXPECT_NE(partial.plan_notes[1].find("stopped: over budget"), std::string::npos);
}

/// How the session's notes print a price: "plan <label>, predicted <ms> ms".
std::string named_price(const planner::ScoredCandidate& price) {
  std::ostringstream os;
  os << "plan " << price.config.label() << ", predicted " << std::fixed
     << std::setprecision(3) << price.predicted_ms << " ms";
  return os.str();
}

TEST(ServiceSession, AdmissionNamesTheFormulationThatRuns) {
  // A uniform 26-symbol stream (seed 1) mined to level 3 at support 0: 26,
  // 676 and 17,576 candidates.  Every level's note names the plan the
  // backend ran, for the session's default backend (auto on the GTX 280,
  // whose level 3 runs the shared-prefix trie kernel: an admission plan
  // without the candidates' prefix mass named gpusim-algo2/t128) and for a
  // CPU-only caller-owned AutoBackend.  Optimised builds mine the paper
  // stream of 50k events; debug and sanitizer builds mine 2k, where the same
  // picks run and a simulated level 3 does not take a minute.
#ifdef NDEBUG
  constexpr std::int64_t kEvents = 50'000;
#else
  constexpr std::int64_t kEvents = 2'000;
#endif
  const data::Dataset dataset = make_dataset(26, kEvents, 1);
  MiningSession session(dataset);
  MineRequest request;
  request.config.support_threshold = 0.0;
  request.config.max_level = 3;

  planner::PlannerOptions cpu_only = planner_options_for({.name = "auto", .threads = 1});
  cpu_only.enable_gpu = false;
  std::vector<std::unique_ptr<core::CountingBackend>> backends;
  backends.push_back(session.new_backend());
  backends.push_back(std::make_unique<planner::AutoBackend>(cpu_only));
  for (const auto& backend : backends) {
    session.reload(dataset);  // a cold cache, so the mine runs
    const MineResponse response = session.mine_with(request, *backend);
    ASSERT_EQ(response.disposition, Disposition::kServed) << response.rejection.reason;
    const auto& plans = dynamic_cast<const planner::AutoBackend&>(*backend).plans();
    ASSERT_EQ(plans.size(), 3u);
    ASSERT_EQ(response.plan_notes.size(), 3u);
    double total_ms = 0.0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const planner::ScoredCandidate& winner = plans[i].winner();
      const std::string& note = response.plan_notes[i];
      EXPECT_NE(note.find(named_price(winner)), std::string::npos) << note;
      // Simulated and host figures are labelled with their clocks.
      if (winner.config.kind == planner::BackendKind::kGpuSim) {
        EXPECT_NE(note.find(" ms simulated -> "), std::string::npos) << note;
        EXPECT_NE(note.find("(simulated kernel "), std::string::npos) << note;
      } else {
        EXPECT_NE(note.find(" ms host -> "), std::string::npos) << note;
      }
      EXPECT_NE(note.find(" ms host)"), std::string::npos) << note;
      total_ms += winner.predicted_ms;
    }
    EXPECT_DOUBLE_EQ(response.timing.predicted_ms, total_ms);
  }
  const auto& device_plans = dynamic_cast<const planner::AutoBackend&>(*backends[0]).plans();
  EXPECT_EQ(device_plans[2].winner().config.label(), "gpusim-algo5-trie/t128");
}

TEST(ServiceSession, FixedBackendIsPricedAsItsOwnCandidate) {
  const data::Dataset dataset = make_dataset(26, 5'000, 1);
  const BackendSpec spec{.name = "cpu-single-scan"};
  MiningSession session(dataset, {.backend = spec});

  MineRequest mine;
  mine.config.support_threshold = 0.0;
  mine.config.max_level = 3;
  const MineResponse mined = session.mine(mine);
  ASSERT_EQ(mined.disposition, Disposition::kServed) << mined.rejection.reason;
  ASSERT_EQ(mined.plan_notes.size(), 3u);
  std::vector<core::Episode> candidates = core::level1_candidates(dataset.alphabet);
  for (int level = 1; level <= 3; ++level) {
    const std::string& note = mined.plan_notes[static_cast<std::size_t>(level - 1)];
    EXPECT_NE(note.find(named_price(fixed_price(dataset, spec, candidates)) + " host"),
              std::string::npos)
        << note;
    if (level == 3) break;
    std::vector<core::Episode> frequent;
    for (const core::FrequentEpisode& f : mined.result.frequent) {
      if (f.episode.level() == level) frequent.push_back(f.episode);
    }
    candidates = core::generate_candidates(frequent, true);
  }

  Rng rng(26);
  CountRequest count;
  count.episodes = random_level_episodes(rng, 26, 40, 3);
  const double price_ms = fixed_price(dataset, spec, count.episodes).predicted_ms;
  const CountResponse served = session.count(count);
  ASSERT_EQ(served.disposition, Disposition::kServed) << served.rejection.reason;
  EXPECT_DOUBLE_EQ(served.timing.predicted_ms, price_ms);

  count.episodes = random_level_episodes(rng, 26, 40, 3);
  count.limits.latency_budget_ms = fixed_price(dataset, spec, count.episodes).predicted_ms / 2.0;
  const CountResponse refused = session.count(count);
  EXPECT_EQ(refused.rejection.code, ErrorCode::kAdmissionRejected);
  EXPECT_NE(refused.rejection.reason.find("plan cpu-single-scan, predicted"), std::string::npos)
      << refused.rejection.reason;
  EXPECT_DOUBLE_EQ(refused.timing.predicted_ms, 2.0 * count.limits.latency_budget_ms);
}

TEST(ServiceSession, UnpricedCallerBackendIsAdmittedAndSaysSo) {
  // A caller-owned backend that is neither an AutoBackend nor the session's
  // own formulation has no price: admission lets it through whatever the
  // budget, and the notes say why.
  const data::Dataset dataset = make_dataset(8, 2'000, 3);
  MiningSession session(dataset, {.backend = {.name = "cpu-single-scan"}});
  core::SerialCpuBackend serial;

  MineRequest mine;
  mine.config.support_threshold = 0.01;
  mine.config.max_level = 2;
  mine.limits.latency_budget_ms = 1e-9;
  const MineResponse mined = session.mine_with(mine, serial);
  ASSERT_EQ(mined.disposition, Disposition::kServed) << mined.rejection.reason;
  EXPECT_EQ(mined.timing.predicted_ms, 0.0);
  ASSERT_EQ(mined.plan_notes.size(), 2u);
  for (const std::string& note : mined.plan_notes) {
    EXPECT_NE(note.find("not priced (backend 'cpu-serial'"), std::string::npos) << note;
  }

  Rng rng(8);
  CountRequest count;
  count.episodes = random_level_episodes(rng, 8, 20, 2);
  count.limits.latency_budget_ms = 1e-9;
  const CountResponse counted = session.count_with(count, serial);
  ASSERT_EQ(counted.disposition, Disposition::kServed) << counted.rejection.reason;
  EXPECT_EQ(counted.timing.predicted_ms, 0.0);
  EXPECT_EQ(counted.counts, oracle_counts(dataset, count.episodes, count.semantics, {}));
}

TEST(ServiceSession, OtherTrieModeBackendIsNotPricedAsTheSessions) {
  // A flat-algo5 session handed a caller-owned trie backend: the trie mode
  // is part of a gpusim backend's name, so the session does not price it as
  // its own formulation, and a tiny budget cannot reject it.
  const data::Dataset dataset = make_dataset(8, 2'000, 3);
  BackendSpec flat{.name = "gpusim"};
  flat.launch.algorithm = kernels::Algorithm::kBlockBucketed;
  MiningSession session(dataset, {.backend = flat});
  kernels::MiningLaunchParams params = flat.launch;
  params.trie_buckets = true;
  kernels::SimGpuBackend trie(gpusim::geforce_gtx_280(), params);

  MineRequest mine;
  mine.config.support_threshold = 0.01;
  mine.config.max_level = 2;
  mine.limits.latency_budget_ms = 1e-9;
  const MineResponse mined = session.mine_with(mine, trie);
  ASSERT_EQ(mined.disposition, Disposition::kServed) << mined.rejection.reason;
  EXPECT_EQ(mined.timing.predicted_ms, 0.0);
  ASSERT_EQ(mined.plan_notes.size(), 2u);
  for (const std::string& note : mined.plan_notes) {
    EXPECT_NE(note.find("not priced (backend '" + trie.name() + "'"), std::string::npos) << note;
  }
}

TEST(ServiceSession, OtherLaunchDistribBackendIsNotPricedAsTheSessions) {
  // An algo1/t128 distrib-gpu session handed caller-owned two-card backends.
  // The cards' launch is part of a distrib backend's name, so one running
  // algorithm 2 at 32 threads per block is not priced as the session's own
  // formulation and a tiny budget cannot reject it; one built from the
  // session's own spec is priced, and the budget rejects it.
  const data::Dataset dataset = make_dataset(8, 2'000, 3);
  const BackendSpec spec{.name = "distrib-gpu"};
  MiningSession session(dataset, {.backend = spec});
  distrib::DistribOptions options;
  options.worker = distrib::WorkerKind::kGpuSim;
  options.launch.algorithm = kernels::Algorithm::kThreadBuffered;
  options.launch.threads_per_block = 32;
  distrib::DistribBackend other(options);
  const std::unique_ptr<core::CountingBackend> own = make_backend(spec);
  ASSERT_NE(other.name(), own->name());

  MineRequest mine;
  mine.config.support_threshold = 0.01;
  mine.config.max_level = 2;
  mine.limits.latency_budget_ms = 1e-9;
  const MineResponse priced = session.mine_with(mine, *own);
  EXPECT_EQ(priced.disposition, Disposition::kRejected);
  EXPECT_GT(priced.timing.predicted_ms, 0.0);

  const MineResponse mined = session.mine_with(mine, other);
  ASSERT_EQ(mined.disposition, Disposition::kServed) << mined.rejection.reason;
  EXPECT_EQ(mined.timing.predicted_ms, 0.0);
  ASSERT_EQ(mined.plan_notes.size(), 2u);
  for (const std::string& note : mined.plan_notes) {
    EXPECT_NE(note.find("not priced (backend '" + other.name() + "'"), std::string::npos) << note;
  }
}

TEST(ServiceSession, FixedBackendsAreBuiltFromTheirCandidate) {
  // One CandidateConfig both builds and prices a fixed backend; the names
  // make_backend gives stay those of the backends' own constructors.
  const std::string threads = std::to_string(gm::resolved_thread_count(0));
  const std::string gtx = gpusim::geforce_gtx_280().name;
  const std::string algo1 =
      "gpusim/" + kernels::to_string(kernels::Algorithm::kThreadTexture) + "/t128/" + gtx;
  const std::map<std::string, std::pair<std::string, std::string>> expected = {
      {"cpu-serial", {"cpu-serial", "cpu-serial"}},
      {"cpu-parallel", {"cpu-parallel-x" + threads, "cpu-parallel-x" + threads}},
      {"cpu-single-scan", {"cpu-single-scan", "cpu-single-scan"}},
      {"cpu-lane-scan", {"cpu-lane-scan", "cpu-lane-scan"}},
      {"distrib", {"distrib-x" + threads + "[cpu-single-scan]", "distrib-x" + threads}},
      {"distrib-gpu", {"distrib-x2[" + algo1 + "]", "distrib-gpu-x2"}},
      {"gpusim", {algo1, "gpusim-algo1/t128"}},
  };
  for (const std::string_view name : backend_names()) {
    const BackendSpec spec{.name = std::string(name)};
    if (name == "auto") {
      EXPECT_EQ(make_backend(spec)->name(), "auto(" + gtx + ")");
      EXPECT_THROW((void)candidate_for(spec), gm::PreconditionError);
      continue;
    }
    const auto& [backend_name, label] = expected.at(spec.name);
    EXPECT_EQ(make_backend(spec)->name(), backend_name);
    EXPECT_EQ(candidate_for(spec).label(), label);
  }
  EXPECT_EQ(candidate_for({.name = "lane-scan"}).label(), "cpu-lane-scan");
  BackendSpec trie{.name = "gpusim"};
  trie.launch.algorithm = kernels::Algorithm::kBlockBucketed;
  trie.launch.trie_buckets = true;
  EXPECT_EQ(candidate_for(trie).label(), "gpusim-algo5-trie/t128");
}

TEST(ServiceSession, LevelCapIsACapabilityRejection) {
  MiningSession session(make_dataset(6, 400, 9),
                        {.backend = {.name = "gpusim"}});
  CountRequest request;
  std::vector<core::Symbol> symbols(static_cast<std::size_t>(kernels::kMaxLevel) + 1, 0);
  request.episodes = {core::Episode(symbols)};
  const CountResponse response = session.count(request);
  EXPECT_EQ(response.disposition, Disposition::kRejected);
  EXPECT_EQ(response.rejection.code, ErrorCode::kCapability);
  EXPECT_NE(response.rejection.reason.find("level"), std::string::npos);
}

TEST(ServiceSession, LaneEngineRefusesExpiryAsACapability) {
  // The episode-lane engine has no expiry: a session serving it must turn an
  // expiring count into a kCapability rejection, never an approximate count,
  // while the same request without expiry is served exactly.
  const data::Dataset dataset = make_dataset(6, 800, 17);
  MiningSession session(dataset, {.backend = {.name = "cpu-lane-scan"}});
  Rng rng(0x1A4E);
  CountRequest request;
  request.episodes = random_level_episodes(rng, 6, 70, 3);
  request.expiry = core::ExpiryPolicy{5};
  const CountResponse refused = session.count(request);
  EXPECT_EQ(refused.disposition, Disposition::kRejected);
  EXPECT_EQ(refused.rejection.code, ErrorCode::kCapability);
  EXPECT_NE(refused.rejection.reason.find("expiry"), std::string::npos);

  request.expiry = {};
  const CountResponse served = session.count(request);
  ASSERT_EQ(served.disposition, Disposition::kServed);
  EXPECT_EQ(served.counts, oracle_counts(dataset, request.episodes, request.semantics, {}));
}

TEST(MiningServiceTest, PausedBurstBatchesCompatibleCounts) {
  data::Dataset dataset = make_dataset(10, 3000, 21);
  auto session = std::make_shared<MiningSession>(dataset,
                                                 SessionOptions{.backend = {.name = "cpu-serial"}});
  MiningService service(session,
                        {.workers = 1, .max_queue = 64, .max_batch = 16, .start_paused = true});

  Rng rng(77);
  std::vector<CountRequest> requests;
  std::vector<std::future<CountResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    CountRequest request;
    request.episodes = random_level_episodes(rng, 10, 8, 2);
    futures.push_back(service.submit(request));
    requests.push_back(std::move(request));
  }
  // One incompatible straggler (different expiry window): must not join.
  CountRequest straggler;
  straggler.episodes = random_level_episodes(rng, 10, 8, 2);
  straggler.expiry = {4};
  futures.push_back(service.submit(straggler));
  requests.push_back(std::move(straggler));

  EXPECT_EQ(service.queue_depth(), 6u);
  service.resume();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const CountResponse response = futures[i].get();
    ASSERT_EQ(response.disposition, Disposition::kServed) << response.rejection.reason;
    EXPECT_EQ(response.counts, oracle_counts(dataset, requests[i].episodes,
                                             requests[i].semantics, requests[i].expiry));
    if (i < 5) {
      EXPECT_EQ(response.batched_with, 4);
    } else {
      EXPECT_EQ(response.batched_with, 0);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.served, 6u);
  EXPECT_EQ(stats.batched, 5u);
}

TEST(MiningServiceTest, ZeroCapacityQueueRejectsAtSubmit) {
  auto session = std::make_shared<MiningSession>(make_dataset(6, 300, 2),
                                                 SessionOptions{.backend = {.name = "cpu-serial"}});
  MiningService service(session, {.workers = 1, .max_queue = 0, .start_paused = true});
  MineRequest request;
  const MineResponse response = service.submit(request).get();
  EXPECT_EQ(response.disposition, Disposition::kRejected);
  EXPECT_EQ(response.rejection.code, ErrorCode::kQueueFull);
  EXPECT_NE(response.rejection.reason.find("max_queue"), std::string::npos);
}

TEST(MiningServiceTest, StopRejectsQueuedWorkWithShutdownCode) {
  auto session = std::make_shared<MiningSession>(make_dataset(6, 300, 2),
                                                 SessionOptions{.backend = {.name = "cpu-serial"}});
  MiningService service(session, {.workers = 1, .max_queue = 8, .start_paused = true});
  MineRequest request;
  auto queued = service.submit(request);
  service.stop();
  const MineResponse response = queued.get();
  EXPECT_EQ(response.disposition, Disposition::kRejected);
  EXPECT_EQ(response.rejection.code, ErrorCode::kShutdown);
  // Post-stop submissions are rejected immediately, not queued forever.
  const MineResponse late = service.submit(request).get();
  EXPECT_EQ(late.rejection.code, ErrorCode::kShutdown);
}

// Many clients, many workers, mixed mine/count traffic with repeats: every
// future resolves, every response is either bit-exact or a coded rejection,
// and cached responses equal their freshly-served twins.  Runs under the
// sanitizer-clean label (and the CI TSan job) to keep the locking honest.
TEST(MiningServiceTest, ConcurrentMixedTrafficStaysExact) {
  data::Dataset dataset = make_dataset(10, 2500, 31);
  auto session = std::make_shared<MiningSession>(
      dataset, SessionOptions{.backend = {.name = "cpu-single-scan"}});
  MiningService service(session, {.workers = 4, .max_queue = 1024, .max_batch = 8});

  // Oracle answers for the three mine templates the clients will replay.
  std::vector<MineRequest> templates(3);
  templates[0].config = {.support_threshold = 0.002, .max_level = 2};
  templates[1].config = {.support_threshold = 0.01,
                         .max_level = 2,
                         .semantics = core::Semantics::kContiguousRestart};
  templates[2].config = {.support_threshold = 0.005, .max_level = 3, .expiry = {6}};
  std::vector<core::MiningResult> oracles;
  for (const MineRequest& t : templates) {
    core::SerialCpuBackend serial;
    oracles.push_back(
        core::mine_frequent_episodes(dataset.events, dataset.alphabet, serial, t.config));
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 12;
  std::vector<std::vector<std::future<MineResponse>>> mine_futures(kClients);
  std::vector<std::vector<int>> mine_template(kClients);
  std::vector<std::vector<std::future<CountResponse>>> count_futures(kClients);
  std::vector<std::vector<CountRequest>> count_requests(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        if (rng.chance(0.5)) {
          const int t = static_cast<int>(rng.below(templates.size()));
          mine_template[c].push_back(t);
          mine_futures[c].push_back(service.submit(templates[t]));
        } else {
          CountRequest request;
          request.episodes = random_level_episodes(rng, 10, 6, 2);
          count_futures[c].push_back(service.submit(request));
          count_requests[c].push_back(std::move(request));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < mine_futures[c].size(); ++i) {
      const MineResponse response = mine_futures[c][i].get();
      ASSERT_TRUE(response.ok()) << response.rejection.reason;
      expect_same_mining(response.result, oracles[static_cast<std::size_t>(
                                              mine_template[c][i])]);
    }
    for (std::size_t i = 0; i < count_futures[c].size(); ++i) {
      const CountResponse response = count_futures[c][i].get();
      ASSERT_TRUE(response.ok()) << response.rejection.reason;
      EXPECT_EQ(response.counts,
                oracle_counts(dataset, count_requests[c][i].episodes,
                              count_requests[c][i].semantics, count_requests[c][i].expiry));
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.served + stats.cached, stats.submitted);
  EXPECT_GE(stats.cached, 1u);  // repeated mine templates must hit the cache
}

// Concurrent reload against live traffic: responses are always internally
// consistent (counts from exactly one generation, never a torn mix).
TEST(MiningServiceTest, ReloadUnderTrafficKeepsGenerationsCoherent) {
  data::Dataset gen1 = make_dataset(8, 1500, 51);
  data::Dataset gen2 = make_dataset(8, 1500, 52);
  auto session = std::make_shared<MiningSession>(
      gen1, SessionOptions{.backend = {.name = "cpu-serial"}});
  MiningService service(session, {.workers = 3, .max_queue = 1024});

  CountRequest probe;
  probe.episodes = {core::Episode({0, 1}), core::Episode({2, 3})};
  const std::vector<std::int64_t> want1 =
      oracle_counts(gen1, probe.episodes, probe.semantics, probe.expiry);
  const std::vector<std::int64_t> want2 =
      oracle_counts(gen2, probe.episodes, probe.semantics, probe.expiry);

  std::vector<std::future<CountResponse>> futures;
  futures.reserve(40);
  for (int i = 0; i < 20; ++i) futures.push_back(service.submit(probe));
  session->reload(gen2);
  for (int i = 0; i < 20; ++i) futures.push_back(service.submit(probe));

  for (auto& future : futures) {
    const CountResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.rejection.reason;
    if (response.database_generation == 1) {
      EXPECT_EQ(response.counts, want1);
    } else {
      ASSERT_EQ(response.database_generation, 2u);
      EXPECT_EQ(response.counts, want2);
    }
  }
}

TEST(ResultCacheTest, LruEvictionAndStats) {
  ResultCache<int> cache(2);
  cache.put(1, 100);
  cache.put(2, 200);
  EXPECT_EQ(cache.get(1), std::optional<int>(100));  // refreshes 1
  cache.put(3, 300);                                 // evicts 2 (least recent)
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1), std::optional<int>(100));
  EXPECT_EQ(cache.get(3), std::optional<int>(300));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, StaleGenerationExitsAreNotCapacityEvictions) {
  ResultCache<int> cache(2);
  cache.put(1, 100);
  cache.put(2, 200);
  cache.set_generation(1);  // an append: both resident entries go stale
  cache.put(3, 300);        // pushes out stale entry 1
  cache.put(4, 400);        // pushes out stale entry 2
  EXPECT_EQ(cache.stats().stale_evictions, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.put(5, 500);  // pushes out current-generation entry 3: real pressure
  EXPECT_EQ(cache.stats().stale_evictions, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.clear();  // a reload is an invalidation, not an eviction of any kind
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().stale_evictions, 2u);
}

TEST(ResultCacheTest, DigestSeparatesNearbyKeys) {
  // Same fields, different order/values must not collide (regression guard
  // for the cache key construction, not a hash-quality proof).
  const std::uint64_t a = Digest().mix(1).mix(2).value();
  const std::uint64_t b = Digest().mix(2).mix(1).value();
  const std::uint64_t c = Digest().mix(1).mix(3).value();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  const std::uint64_t e1 = Digest().mix(core::Episode({0, 1})).value();
  const std::uint64_t e2 = Digest().mix(core::Episode({1, 0})).value();
  EXPECT_NE(e1, e2);
  EXPECT_NE(Digest().mix(0.5).value(), Digest().mix(0.25).value());
}

}  // namespace
}  // namespace gm::service
