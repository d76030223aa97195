// The planner's contract: shape-dependent picks that match the paper's
// characterization (dense formulations for small-alphabet/huge-episode
// shapes, bucket-indexed ones for large alphabets), capability gates that
// are never violated (no pick above a backend's max_level), determinism, and
// an explanation for every rejection.  AutoBackend rides along: per-level
// re-planning must stay bit-exact with the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/candidate_gen.hpp"
#include "core/cpu_backend.hpp"
#include "core/lane_counter.hpp"
#include "core/miner.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "planner/auto_backend.hpp"
#include "planner/cpu_cost_model.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "service/backend_factory.hpp"

namespace gm::planner {
namespace {

Workload basic_workload() {
  Workload w;
  w.db_size = 393'019;
  w.episode_count = 650;
  w.level = 2;
  w.alphabet_size = 26;
  return w;
}

PlannerOptions deterministic_options() {
  PlannerOptions options;
  options.cpu_threads = 4;  // pin: hardware concurrency varies by machine
  return options;
}

bool is_bucket_indexed(const CandidateConfig& config) {
  if (config.kind == BackendKind::kCpuSingleScan) return true;
  return config.kind == BackendKind::kGpuSim && kernels::is_bucketed(config.algorithm);
}

TEST(Planner, PicksDenseGpuPathForSmallAlphabetHugeEpisodeShapes) {
  // The paper's level-3 evaluation shape: 15,600 candidates over 26 symbols.
  // Bucket occupancy |eps|/|alphabet| = 600 makes the bucketed formulations
  // hopeless; a dense GPU formulation must win.
  Workload w = basic_workload();
  w.episode_count = 15'600;
  w.level = 3;
  const Plan plan = plan_level(w, deterministic_options());
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_EQ(plan.winner().config.kind, BackendKind::kGpuSim);
  EXPECT_FALSE(is_bucket_indexed(plan.winner().config));
}

TEST(Planner, PicksBucketedPathForLargeAlphabetShapes) {
  // Large alphabet, few candidates: per-symbol bucket occupancy is tiny, so
  // a bucket-indexed formulation (host single-scan or Algorithm 5) wins.
  Workload w;
  w.db_size = 2'000'000;
  w.episode_count = 400;
  w.level = 3;
  w.alphabet_size = 200;
  const Plan plan = plan_level(w, deterministic_options());
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_TRUE(is_bucket_indexed(plan.winner().config)) << plan.winner().config.label();
}

TEST(Planner, GpuOnlyPlannerFlipsToBucketedKernelOnLargeAlphabets) {
  // Same flip inside the GPU candidate family alone: the block-bucketed
  // kernel must beat the dense formulations once the alphabet dwarfs the
  // per-thread bucket occupancy.
  PlannerOptions options = deterministic_options();
  options.enable_cpu = false;
  Workload w;
  w.db_size = 500'000;
  w.episode_count = 20'000;
  w.level = 3;
  w.alphabet_size = 200;
  const Plan plan = plan_level(w, options);
  ASSERT_TRUE(plan.winner().feasible);
  ASSERT_EQ(plan.winner().config.kind, BackendKind::kGpuSim);
  EXPECT_EQ(plan.winner().config.algorithm, kernels::Algorithm::kBlockBucketed)
      << plan.winner().config.label();
}

TEST(Planner, FlipsToTrieFormulationsOnSharedPrefixCandidateSets) {
  // The shared-prefix flip, pinned from both ends.  A large-candidate
  // bucket-friendly shape with no prefix sharing (prefix mass 1, e.g. a
  // level-1 set) must stay on a flat formulation: the trie's heavier
  // per-drain constant buys nothing.  The same shape with an apriori-style
  // candidate set (prefix mass ~ 1/L) must flip to the device trie
  // formulation — one token drain advances every prefix-sharer.
  Workload w;
  w.db_size = 2'000'000;
  w.episode_count = 12'000;
  w.level = 3;
  w.alphabet_size = 200;

  Workload flat_set = w;
  flat_set.prefix_compression = 1.0;
  const Plan flat_plan = plan_level(flat_set, deterministic_options());
  ASSERT_TRUE(flat_plan.winner().feasible);
  EXPECT_EQ(flat_plan.winner().config.label().find("trie"), std::string::npos)
      << flat_plan.winner().config.label();

  Workload shared_set = w;
  shared_set.prefix_compression = 0.35;
  const Plan trie_plan = plan_level(shared_set, deterministic_options());
  ASSERT_TRUE(trie_plan.winner().feasible);
  EXPECT_NE(trie_plan.winner().config.label().find("trie"), std::string::npos)
      << trie_plan.winner().config.label();

  // The scored table holds a trie variant of every bucketed tpb point.
  bool saw_gpu_trie = false;
  for (const ScoredCandidate& c : trie_plan.table) {
    saw_gpu_trie |= c.config.kind == BackendKind::kGpuSim && c.config.trie_buckets;
  }
  EXPECT_TRUE(saw_gpu_trie);

  // Model pins behind the flip: the trie spec predicts strictly less kernel
  // time than the flat bucketed spec once prefixes are shared, and strictly
  // more when they are not (heavier per-drain charge, nothing compressed).
  const auto gpu_ms = [](const Workload& workload, bool trie) {
    const PlannerOptions options;
    return kernels::predict_mining_time(
               options.device,
               gpu_workload_spec(workload, kernels::Algorithm::kBlockBucketed, 128, trie),
               gpusim::CostModel(options.cost_params), options.kernel_costs)
        .total_ms;
  };
  EXPECT_LT(gpu_ms(shared_set, true), gpu_ms(shared_set, false));
  EXPECT_GT(gpu_ms(flat_set, true), gpu_ms(flat_set, false));
}

/// A host-only planner with one worker, as a CPU-only mining session builds.
PlannerOptions cpu_only_options() {
  PlannerOptions options;
  options.enable_gpu = false;
  options.cpu_threads = 1;
  return options;
}

TEST(Planner, CpuOnlyPaperShapePicksTheLaneEngine) {
  // The paper's dense shape on the host: a 26-symbol stream and every
  // level-1..3 Apriori candidate.  Bucket occupancy |eps|/|alphabet| climbs
  // to 676 at level 3, while the lane engine's cost ignores the alphabet.
  const std::int64_t candidates[] = {26, 676, 17'576};
  for (int level = 1; level <= 3; ++level) {
    Workload w;
    w.db_size = 50'000;
    w.episode_count = candidates[level - 1];
    w.level = level;
    w.alphabet_size = 26;
    const Plan plan = plan_level(w, cpu_only_options());
    EXPECT_EQ(plan.winner().config.kind, BackendKind::kCpuLaneScan)
        << "level " << level << ": " << plan.explanation;
  }
}

TEST(Planner, LargeAlphabetCountingReferenceKeepsSingleScan) {
  // The counting lane's reference shape: 256 level-3 episodes over 250
  // symbols.  Each event drains about one waiting automaton, far less work
  // than stepping four 64-lane blocks.
  Workload w;
  w.db_size = 200'000;
  w.episode_count = 256;
  w.level = 3;
  w.alphabet_size = 250;
  const Plan plan = plan_level(w, cpu_only_options());
  EXPECT_EQ(plan.winner().config.kind, BackendKind::kCpuSingleScan) << plan.explanation;
}

TEST(Planner, LaneCandidateIsRejectedUnderExpiryAndAboveItsLevelCap) {
  const auto lane_row = [](const Plan& plan) {
    const auto it = std::find_if(plan.table.begin(), plan.table.end(), [](const auto& c) {
      return c.config.kind == BackendKind::kCpuLaneScan;
    });
    EXPECT_NE(it, plan.table.end());
    return *it;
  };
  Workload w;
  w.db_size = 50'000;
  w.episode_count = 676;
  w.level = 2;
  w.alphabet_size = 26;
  w.expiry = core::ExpiryPolicy{8};
  const ScoredCandidate expiring = lane_row(plan_level(w, cpu_only_options()));
  EXPECT_FALSE(expiring.feasible);
  EXPECT_NE(expiring.reason.find("expiry"), std::string::npos) << expiring.reason;

  w.expiry = {};
  w.level = core::kLaneMaxLevel + 1;
  const ScoredCandidate too_long = lane_row(plan_level(w, cpu_only_options()));
  EXPECT_FALSE(too_long.feasible);
  EXPECT_NE(too_long.reason.find("max_level"), std::string::npos) << too_long.reason;
}

TEST(Planner, PaperSimulationKeepsItsDevicePicks) {
  // The session's default "auto" backend on the paper's dense mine: 50,000
  // uniform events over 26 symbols, levels holding 26, 676 and 17,576
  // candidates.  Under the shipped constants every level stays on the GTX 280
  // formulation.  The host lane engine is predicted ~1.7x slower at levels 1
  // and 2, more than its level-1 model error (CpuCostConstants::lane_block_ns).
  const core::Alphabet alphabet(26);
  const auto db = data::uniform_database(alphabet, 50'000, 1);
  PlannerOptions options = service::planner_options_for({.name = "auto"});
  options.cpu_threads = 4;  // pin: hardware concurrency varies by machine
  const std::string expected[] = {"gpusim-algo4/t256", "gpusim-algo2/t128",
                                  "gpusim-algo5-trie/t128"};
  std::vector<core::Episode> candidates = core::level1_candidates(alphabet);
  for (int level = 1; level <= 3; ++level) {
    if (level > 1) candidates = core::generate_candidates(candidates);
    core::CountRequest request;
    request.database = db;
    request.episodes = candidates;
    const Plan plan = plan_level(workload_of(request), options);
    EXPECT_EQ(plan.winner().config.label(), expected[level - 1])
        << "level " << level << ": " << plan.explanation;
  }
  EXPECT_EQ(candidates.size(), 17'576u);
}

TEST(Planner, NeverPicksBackendWhoseMaxLevelIsBelowRequest) {
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 1;
  w.episode_count = 10;
  const PlannerOptions options = deterministic_options();
  const Plan plan = plan_level(w, options);

  // The pick must come from a family whose constructed backend can count the
  // level; every GPU candidate must be rejected with a reason naming the cap.
  const auto backend = make_planned_backend(plan.winner().config, options);
  EXPECT_TRUE(backend->max_level() == 0 || backend->max_level() >= w.level);
  for (const ScoredCandidate& c : plan.table) {
    if (c.config.kind == BackendKind::kGpuSim) {
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("max_level"), std::string::npos) << c.reason;
    }
  }
}

TEST(Planner, IsDeterministicAndExplainsEveryRejection) {
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 2;  // force a mixed feasible/rejected table
  const PlannerOptions options = deterministic_options();
  const Plan a = plan_level(w, options);
  const Plan b = plan_level(w, options);

  ASSERT_EQ(a.table.size(), b.table.size());
  for (std::size_t i = 0; i < a.table.size(); ++i) {
    EXPECT_EQ(a.table[i].config.label(), b.table[i].config.label());
    EXPECT_EQ(a.table[i].feasible, b.table[i].feasible);
    EXPECT_DOUBLE_EQ(a.table[i].predicted_ms, b.table[i].predicted_ms);
    EXPECT_EQ(a.table[i].reason, b.table[i].reason);
  }
  EXPECT_EQ(a.explanation, b.explanation);
  EXPECT_FALSE(a.explanation.empty());
  for (const ScoredCandidate& c : a.table) {
    EXPECT_FALSE(c.reason.empty()) << c.config.label();
  }
  // Feasible candidates are sorted fastest-first ahead of the rejected tail.
  bool seen_infeasible = false;
  double last_ms = 0.0;
  for (const ScoredCandidate& c : a.table) {
    if (!c.feasible) {
      seen_infeasible = true;
      continue;
    }
    EXPECT_FALSE(seen_infeasible) << "feasible candidate after a rejected one";
    EXPECT_GE(c.predicted_ms, last_ms);
    last_ms = c.predicted_ms;
  }
}

TEST(Planner, RejectsOversizedThreadsPerBlockWithReason) {
  PlannerOptions options = deterministic_options();
  options.tpb_sweep = {64, 4096};  // above every paper card's block limit
  const Plan plan = plan_level(basic_workload(), options);
  bool saw_rejected_tpb = false;
  for (const ScoredCandidate& c : plan.table) {
    if (c.config.kind == BackendKind::kGpuSim && c.config.threads_per_block == 4096) {
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("device limit"), std::string::npos) << c.reason;
      saw_rejected_tpb = true;
    }
  }
  EXPECT_TRUE(saw_rejected_tpb);
}

TEST(Planner, ThrowsWhenNoCandidateIsFeasible) {
  PlannerOptions options = deterministic_options();
  options.enable_cpu = false;  // GPU only...
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 1;  // ...and every GPU candidate is capped
  EXPECT_THROW((void)plan_level(w, options), gm::PreconditionError);
}

TEST(Planner, SkewedFrequenciesLowerBucketIndexedPredictions) {
  Workload uniform;
  uniform.db_size = 1'000'000;
  uniform.episode_count = 500;
  uniform.level = 2;
  uniform.alphabet_size = 64;
  Workload skewed = uniform;
  skewed.symbol_freq = data::zipf_frequencies(64, 1.0);

  const CpuCostConstants constants;
  EXPECT_LT(predict_cpu_single_scan_ms(skewed, constants),
            predict_cpu_single_scan_ms(uniform, constants));
  // Dense backends are occupancy-blind: unchanged by skew.
  EXPECT_DOUBLE_EQ(predict_cpu_serial_ms(skewed, constants),
                   predict_cpu_serial_ms(uniform, constants));
}

TEST(Planner, WorkloadOfMeasuresShapeAndSkew) {
  const core::Alphabet alphabet(16);
  const auto db = data::zipf_database(alphabet, 20'000, 1.0, 9);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  const Workload w = workload_of(request, alphabet.size());

  EXPECT_EQ(w.db_size, 20'000);
  EXPECT_EQ(w.episode_count, static_cast<std::int64_t>(episodes.size()));
  EXPECT_EQ(w.level, 2);
  EXPECT_EQ(w.alphabet_size, 16);
  ASSERT_EQ(w.symbol_freq.size(), 16u);
  EXPECT_GT(w.symbol_freq[0], w.symbol_freq[15]);  // measured skew, not uniform
}

TEST(AutoBackend, MatchesSerialReferenceAcrossLevels) {
  const core::Alphabet alphabet(12);
  const auto db = data::uniform_database(alphabet, 8'000, 77);

  core::MinerConfig config;
  config.support_threshold = 0.0004;
  config.max_level = 3;

  core::SerialCpuBackend reference;
  const auto expected = core::mine_frequent_episodes(db, alphabet, reference, config);

  AutoBackend adaptive{deterministic_options()};
  const auto actual = core::mine_frequent_episodes(db, alphabet, adaptive, config);

  ASSERT_EQ(actual.frequent.size(), expected.frequent.size());
  for (std::size_t i = 0; i < actual.frequent.size(); ++i) {
    EXPECT_EQ(actual.frequent[i].episode, expected.frequent[i].episode);
    EXPECT_EQ(actual.frequent[i].count, expected.frequent[i].count);
  }
  // One recorded plan per mining level, each with a usable explanation.
  ASSERT_EQ(adaptive.plans().size(), expected.levels.size());
  for (const Plan& plan : adaptive.plans()) {
    EXPECT_FALSE(plan.explanation.empty());
    EXPECT_TRUE(plan.winner().feasible);
  }
}

TEST(AutoBackend, ReusesConstructedBackendsAcrossLevels) {
  // Same stream counted three times at the same level shape with host and
  // device candidates: every call plans again, and a label picked before
  // reuses its backend instead of constructing a second one.  Host feedback
  // is wall-clock, so a slow debug or sanitizer build may move the pick
  // between calls; the test pins reuse, not the label.
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{deterministic_options()};
  const auto expected = core::count_all(episodes, db, core::Semantics::kNonOverlappedSubsequence);
  std::set<std::string> picked;
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(adaptive.count(request).counts, expected) << "call " << call;
    picked.insert(adaptive.plans().back().winner().config.label());
  }
  ASSERT_EQ(adaptive.plans().size(), 3u);
  // The first plan has no feedback yet, so its pick is the model's: a host one.
  EXPECT_NE(adaptive.plans()[0].winner().config.kind, BackendKind::kGpuSim)
      << adaptive.plans()[0].explanation;
  EXPECT_EQ(adaptive.constructed_backends(), picked.size());
}

TEST(AutoBackend, KeepsADevicePickAcrossRepeatedCalls) {
  // Device candidates only: their feedback is simulated kernel time, which
  // no build type slows down, so the second plan repeats the first pick and
  // reuses its backend.
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  PlannerOptions options = deterministic_options();
  options.enable_cpu = false;
  AutoBackend adaptive{options};
  const auto first = adaptive.count(request);
  const auto second = adaptive.count(request);
  EXPECT_EQ(first.counts, second.counts);
  ASSERT_EQ(adaptive.plans().size(), 2u);
  EXPECT_EQ(adaptive.plans()[0].winner().config.label(),
            adaptive.plans()[1].winner().config.label());
  EXPECT_EQ(adaptive.constructed_backends(), 1u);
}

TEST(AutoBackend, KeepsADistribGpuPickOnTheSimulatedClock) {
  // distrib-gpu is priced in simulated card time, so its feedback must read
  // the simulated kernel time too.  Compared with host wall time (about 10x
  // the simulated figure here), one count raised its bias to 2.5-4 and the
  // next plans ran gpusim-algo2/t128, predicted 0.813 against 0.518 ms.
  const core::Alphabet alphabet(26);
  const auto db = data::uniform_database(alphabet, 20'000, 1);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  PlannerOptions options = deterministic_options();
  options.enable_cpu = false;
  options.device_sweep = {1, 2};
  AutoBackend adaptive{options};
  const auto expected = core::count_all(episodes, db, core::Semantics::kNonOverlappedSubsequence);
  for (int call = 0; call < 3; ++call) {
    const core::CountResult result = adaptive.count(request);
    EXPECT_EQ(result.counts, expected) << "call " << call;
    EXPECT_EQ(adaptive.plans().back().winner().config.label(), "distrib-gpu-x2")
        << "call " << call << "\n"
        << adaptive.plans().back().explanation;
    const double bias = adaptive.feedback().at("distrib-gpu-x2");
    EXPECT_GT(bias, 0.8) << "call " << call;
    EXPECT_LT(bias, 1.25) << "call " << call;
  }
}

TEST(AutoBackend, CountRunsThePlanKeptForTheSameRequest) {
  // plan(r) then count(r): one plans() entry, and it is the returned plan
  // itself (its decision table moved in, not re-planned).
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{deterministic_options()};
  const Plan& kept = adaptive.plan(request);
  const ScoredCandidate* table = kept.table.data();
  const std::string label = kept.winner().config.label();
  EXPECT_TRUE(adaptive.plans().empty());
  EXPECT_EQ(adaptive.count(request).counts,
            core::count_all(episodes, db, core::Semantics::kNonOverlappedSubsequence));
  ASSERT_EQ(adaptive.plans().size(), 1u);
  EXPECT_EQ(adaptive.plans()[0].table.data(), table);
  EXPECT_EQ(adaptive.plans()[0].winner().config.label(), label);
}

TEST(AutoBackend, PlanWithoutCountAddsNoPlan) {
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{deterministic_options()};
  (void)adaptive.plan(request);
  (void)adaptive.plan(request);
  EXPECT_TRUE(adaptive.plans().empty());
  EXPECT_EQ(adaptive.constructed_backends(), 0u);
}

TEST(AutoBackend, CountOfAnotherRequestPlansAfresh) {
  // count(other) after plan(r) plans `other`.  Same spans under another
  // expiry are another request too.
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto pairs = core::all_distinct_episodes(alphabet, 2);
  const auto singles = core::level1_candidates(alphabet);
  core::CountRequest request;
  request.database = db;
  request.episodes = pairs;
  core::CountRequest other = request;
  other.episodes = singles;
  core::CountRequest expiring = request;
  expiring.expiry = {6};

  AutoBackend adaptive{deterministic_options()};
  (void)adaptive.plan(request);
  (void)adaptive.count(other);
  ASSERT_EQ(adaptive.plans().size(), 1u);
  EXPECT_EQ(adaptive.plans()[0].workload.level, 1);
  EXPECT_EQ(adaptive.plans()[0].workload.episode_count,
            static_cast<std::int64_t>(singles.size()));

  (void)adaptive.count(request);
  ASSERT_EQ(adaptive.plans().size(), 2u);
  EXPECT_EQ(adaptive.plans()[1].workload.level, 2);

  (void)adaptive.plan(request);
  EXPECT_EQ(adaptive.count(expiring).counts,
            core::count_all(pairs, db, core::Semantics::kNonOverlappedSubsequence, {6}));
  ASSERT_EQ(adaptive.plans().size(), 3u);
  EXPECT_EQ(adaptive.plans()[2].workload.expiry, expiring.expiry);
}

TEST(AutoBackend, FeedbackRecordsRecencyWeightedBias) {
  // Every delegated count() must fold measured/predicted into the winner's
  // bias.  The update is an EWMA toward the floored observed ratio, so after
  // one call the bias sits strictly between the prior (1) and the
  // observation, and it always stays positive.
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{deterministic_options()};
  (void)adaptive.count(request);
  ASSERT_EQ(adaptive.feedback().size(), 1u);
  const auto [label, bias] = *adaptive.feedback().begin();
  EXPECT_EQ(label, adaptive.plans()[0].winner().config.label());
  EXPECT_GT(bias, 0.0);

  // The next plan's prediction for that winner carries the bias (the note
  // says so), and repeated feedback keeps the multiplier finite.
  (void)adaptive.count(request);
  if (adaptive.plans()[1].winner().config.label() == label && bias != 1.0) {
    EXPECT_NE(adaptive.plans()[1].winner().reason.find("measured bias"),
              std::string::npos);
  }
  for (const auto& [key, value] : adaptive.feedback()) {
    EXPECT_GT(value, 0.0) << key;
    EXPECT_LT(value, 1e6) << key;
  }
}

TEST(AutoBackend, FeedbackConvergesToStableModelError) {
  // A persistent model error must settle at the observed ratio instead of
  // compounding.  The update divides the prior bias back out of the biased
  // prediction before forming the new observation; replicate the EWMA from
  // the observable plan/result pairs and require exact agreement — were the
  // divide-out dropped (bias fed on bias), the replicated values would
  // diverge from the implementation's by the second call.
  const core::Alphabet alphabet(16);
  const auto db = data::uniform_database(alphabet, 4'000, 11);
  const auto episodes = core::all_distinct_episodes(alphabet, 1);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  PlannerOptions options = deterministic_options();
  // Grossly understate the serial cost so the model error is large and of
  // known sign: measured wall-clock will exceed the prediction.
  options.cpu_constants.serial_step_ns = 1e-4;
  options.cpu_constants.serial_expiry_step_ns = 1e-4;
  AutoBackend adaptive{options};

  std::map<std::string, double> expected;
  for (int call = 0; call < 6; ++call) {
    const core::CountResult result = adaptive.count(request);
    const Plan& plan = adaptive.plans().back();
    const std::string label = plan.winner().config.label();
    const bool is_gpu = plan.winner().config.kind == BackendKind::kGpuSim;
    const double measured = is_gpu ? result.simulated_kernel_ms : result.host_ms;
    const double prior = expected.count(label) > 0 ? expected[label] : 1.0;
    const double raw = plan.winner().predicted_ms / prior;
    const double observed = (measured + AutoBackend::kFeedbackFloorMs) /
                            (raw + AutoBackend::kFeedbackFloorMs);
    expected[label] = (1.0 - AutoBackend::kFeedbackBlend) * prior +
                      AutoBackend::kFeedbackBlend * observed;
    ASSERT_DOUBLE_EQ(adaptive.feedback().at(label), expected[label]) << "call " << call;
    EXPECT_GT(adaptive.feedback().at(label), 0.0);
    EXPECT_TRUE(std::isfinite(adaptive.feedback().at(label)));
  }
}

TEST(Planner, DefaultCandidateSpaceHasNoDistribCandidates) {
  // The planner must not assume extra devices exist: without an explicit
  // device_sweep the table is exactly the single-device space.
  const Plan plan = plan_level(basic_workload(), deterministic_options());
  for (const ScoredCandidate& c : plan.table) {
    EXPECT_NE(c.config.kind, BackendKind::kDistrib) << c.config.label();
  }
}

TEST(Planner, DeviceSweepFlipsToMultiCardOnTheLargeEvaluationShape) {
  // The paper's level-3 shape is kernel-bound, so splitting the stream over
  // two (then four) simulated cards nearly halves the dominant term while
  // the merge charge stays tiny: the device axis must flip the plan to a
  // multi-device candidate, and more cards must keep predicting faster.
  Workload w = basic_workload();
  w.episode_count = 15'600;
  w.level = 3;
  PlannerOptions options = deterministic_options();
  options.device_sweep = {1, 2, 4};
  const Plan plan = plan_level(w, options);

  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_EQ(plan.winner().config.kind, BackendKind::kDistrib);
  EXPECT_TRUE(plan.winner().config.distrib_gpu);
  EXPECT_GT(plan.winner().config.threads, 1);

  auto predicted = [&](const std::string& label) {
    for (const ScoredCandidate& c : plan.table) {
      if (c.config.label() == label) {
        EXPECT_TRUE(c.feasible) << label;
        return c.predicted_ms;
      }
    }
    ADD_FAILURE() << label << " missing from the table";
    return 0.0;
  };
  EXPECT_LT(predicted("distrib-gpu-x4"), predicted("distrib-gpu-x2"));
  EXPECT_LT(predicted("distrib-gpu-x2"), predicted("distrib-gpu-x1"));
  EXPECT_LT(predicted("distrib-x4"), predicted("distrib-x2"));
}

TEST(Planner, TinyShapesResistTheDeviceAxis) {
  // On a small level-1 workload the per-shard spawn/merge overhead exceeds
  // the scan itself: the winner must stay a single-device formulation.
  Workload w;
  w.db_size = 2'000;
  w.episode_count = 26;
  w.level = 1;
  w.alphabet_size = 26;
  PlannerOptions options = deterministic_options();
  options.device_sweep = {1, 2, 4, 8};
  const Plan plan = plan_level(w, options);
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_FALSE(plan.winner().config.kind == BackendKind::kDistrib &&
               plan.winner().config.threads > 1)
      << plan.winner().config.label();
}

TEST(Planner, PlannedDistribBackendsCountExactly) {
  const auto alphabet = core::Alphabet(6);
  const auto db = data::zipf_database(alphabet, 6'000, 1.0, 5);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  const core::ExpiryPolicy expiry{21};
  core::SerialCpuBackend reference;
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.expiry = expiry;
  const auto expected = reference.count(request);

  for (const bool gpu : {false, true}) {
    CandidateConfig config;
    config.kind = BackendKind::kDistrib;
    config.threads = 3;
    config.distrib_gpu = gpu;
    config.threads_per_block = 128;
    const auto backend = make_planned_backend(config, deterministic_options());
    const std::string expected_name =
        gpu ? "distrib-x3[gpusim/algo1-thread-texture/t128/GeForce GTX 280 (GT200)]"
            : "distrib-x3[cpu-single-scan]";
    EXPECT_EQ(backend->name(), expected_name);
    const auto result = backend->count(request);
    EXPECT_EQ(result.counts, expected.counts) << expected_name;
    if (gpu) {
      EXPECT_GT(result.simulated_kernel_ms, 0.0);
    }
  }
}

TEST(AutoBackend, MakeBackendSpellsDistribAndOpensTheDeviceAxis) {
  service::BackendSpec spec;
  spec.name = "distrib";
  spec.shards = 3;
  EXPECT_EQ(service::make_backend(spec)->name(), "distrib-x3[cpu-single-scan]");

  spec.name = "distrib-gpu";
  spec.shards = 0;  // defaults to the GX2's two dies
  EXPECT_EQ(service::make_backend(spec)->name(),
            "distrib-x2[gpusim/algo1-thread-texture/t128/GeForce GTX 280 (GT200)]");

  spec.name = "auto";
  spec.shards = 3;
  const PlannerOptions options = service::planner_options_for(spec);
  EXPECT_EQ(options.device_sweep, (std::vector<int>{1, 2, 3}));

  const auto names = service::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "distrib"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "distrib-gpu"), names.end());
}

TEST(AutoBackend, MakeBackendSpellsAuto) {
  service::BackendSpec spec;
  spec.name = "auto";
  spec.threads = 2;
  spec.card = "8800";
  const auto backend = service::make_backend(spec);
  ASSERT_NE(dynamic_cast<AutoBackend*>(backend.get()), nullptr);
  EXPECT_EQ(backend->max_level(), 0);  // CPU fallback keeps it unbounded

  const auto names = service::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "auto"), names.end());
}

}  // namespace
}  // namespace gm::planner
