// backend_shootout — wall-clock comparison of the CPU counting backends on
// configurable workload shapes, and an end-to-end cross-check that every
// backend returns bit-identical counts to the serial reference.
//
// The interesting axes are the ones the paper characterizes:
//   * stream length (--db): favors database sharding (distrib, --shard-sweep)
//   * candidate count (--episodes): favors episode parallelism (cpu-parallel)
//   * alphabet size (--alphabet): favors the waiting-symbol bucket index
//     (cpu-single-scan), whose per-symbol work is |episodes|/|alphabet|, on
//     large alphabets and the episode-lane engine (cpu-lane-scan), whose
//     per-symbol work is |episodes|/64 block steps, on small ones
//
// The default configuration is a large-alphabet, long-stream shape where the
// single-scan engine should beat the episode-parallel backend outright.
//
//   backend_shootout [--db N] [--alphabet N] [--episodes N] [--level L]
//                    [--threads T] [--expiry W] [--semantics subseq|contig]
//                    [--repeat R] [--seed S] [--zipf S] [--prefix-pool P]
//                    [--gpu] [--card 8800|gx2|gtx280] [--tpb N]
//                    [--validate-planner] [--tpb-sweep A,B,...] [--devices N]
//                    [--max-regret R] [--json PATH]
//                    [--calibration PROFILE.json] [--fit-calibration OUT.json]
//                    [--shard-sweep 1..8] [--min-efficiency E]
//
// --prefix-pool P draws every candidate's first level-1 symbols from a pool
// of P random prefixes instead of fully at random, mimicking the shared
// prefixes of an apriori level-L candidate set; the measured prefix mass
// lands near (P * (L-1) + |episodes|) / (|episodes| * L), the regime where
// the shared-prefix trie kernel (gpusim-algo5-trie) overtakes the flat
// formulations.  The planner-validation JSON records the measured
// prefix_compression per level plus trie-vs-flat pick tallies.
//
// --gpu additionally runs every simulated-GPU formulation (algorithms 1-5)
// through the functional engine and cross-checks its counts end to end; use
// a small --db, the functional engine is orders of magnitude slower than the
// CPU backends.  Exits nonzero on any backend disagreement, so a tiny
// configuration doubles as a CTest smoke test (label bench_smoke).  The
// block-level algorithms (3/4) under expiry use the documented overlap-rescan
// approximation and are reported as "approx" instead of being gated.
//
// --validate-planner switches to the planner-honesty mode: for each mining
// level 1..L it asks planner::plan_level for this level's winner, then
// *measures* every feasible candidate (CPU backends by wall-clock,
// simulated-GPU candidates — only with --gpu — by the engine-measured kernel
// time) and reports the planner's regret, measured(pick) / measured(best).
// --max-regret R turns the report into a gate (exit 1 beyond R); --json
// writes the whole decision-and-measurement table as a machine-readable
// BENCH artifact (the CI bench job uploads it).  --zipf S draws the database
// from a Zipf(S) symbol distribution instead of uniform, exercising the
// skew-aware occupancy terms end to end.
//
// --shard-sweep A..B (or a comma list) switches to the distrib scaling mode:
// for each device count N it runs the chunked shard engine twice — host
// workers (wall-clock) and simulated cards (deterministic kernel-time) —
// cross-checks both against the serial reference, and reports per-count
// throughput, scaling efficiency base_ms / (N * ms_N), the chunk count and
// the fold's rescanned symbols.  --json writes the table as a BENCH artifact
// (BENCH_scaling.json in CI); --min-efficiency E gates on the *simulated*
// efficiency at 4 cards (kernel time is deterministic, so the gate holds on
// a 2-core CI runner where wall-clock efficiency cannot).
//
// Calibration: --fit-calibration OUT.json (implies --validate-planner) fits
// a CalibrationProfile — the planner's cost constants — from this run's
// measured (candidate, time) samples plus the paper-figure probes of
// bench/calibration_table (weight 0.1), and persists it as JSON.
// --calibration PROFILE.json loads a previously fitted profile in place of
// the shipped constants, so `--fit-calibration out.json` followed by
// `--calibration out.json --validate-planner` demonstrates the regret drop
// on the host that produced the profile (the seeded RNG makes both runs see
// the same stream and candidate sets).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/json.hpp"
#include "bench_support/paper_refs.hpp"
#include "bench_support/paper_setup.hpp"
#include "calib/calibration.hpp"
#include "calib/fitter.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/lane_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "distrib/distrib_backend.hpp"
#include "kernels/mining_kernels.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "service/backend_factory.hpp"

namespace {

struct Options {
  std::int64_t db_size = 2'000'000;
  int alphabet = 200;
  int episodes = 400;
  int level = 3;
  int threads = 0;
  std::int64_t expiry = 0;
  int repeat = 3;
  std::uint64_t seed = 2009;
  double zipf = 0.0;  ///< 0 = uniform stream
  int prefix_pool = 0;  ///< 0 = fully random episodes; >0 = shared prefixes
  bool gpu = false;
  std::string card = "gtx280";
  int tpb = 32;
  bool validate_planner = false;
  std::vector<int> tpb_sweep;      ///< planner validation; empty = {tpb}
  double max_regret = 0.0;         ///< planner validation gate; 0 = report only
  std::string json_path;           ///< planner validation artifact; empty = none
  std::string calibration_path;    ///< fitted profile to load; empty = shipped
  std::string fit_path;            ///< profile to fit and write; empty = no fit
  std::vector<int> shard_sweep;    ///< distrib scaling mode; empty = off
  double min_efficiency = 0.0;     ///< scaling gate at 4 cards; 0 = report only
  int devices = 0;                 ///< planner validation: device_sweep 1..N; 0 = off
  gm::core::Semantics semantics = gm::core::Semantics::kNonOverlappedSubsequence;
};

std::vector<gm::core::Episode> random_episodes(const gm::core::Alphabet& alphabet, int count,
                                               int level, int prefix_pool, gm::Rng& rng) {
  std::vector<gm::core::Symbol> pool(static_cast<std::size_t>(alphabet.size()));
  std::iota(pool.begin(), pool.end(), gm::core::Symbol{0});
  const auto draw_distinct = [&](int n) {
    // Partial Fisher-Yates: the first `n` slots become a random
    // distinct-symbol prefix (the paper's episode space).
    for (int i = 0; i < n; ++i) {
      const auto j = static_cast<std::size_t>(i) +
                     static_cast<std::size_t>(rng.below(pool.size() - static_cast<std::size_t>(i)));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    }
    return std::vector<gm::core::Symbol>(pool.begin(), pool.begin() + n);
  };

  std::vector<gm::core::Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(count));
  if (prefix_pool > 0 && level > 1) {
    // Shared-prefix mode: every episode starts with one of `prefix_pool`
    // fixed (level-1)-prefixes and ends in a random unused symbol, the shape
    // an apriori join produces.
    std::vector<std::vector<gm::core::Symbol>> prefixes;
    prefixes.reserve(static_cast<std::size_t>(prefix_pool));
    for (int p = 0; p < prefix_pool; ++p) prefixes.push_back(draw_distinct(level - 1));
    for (int e = 0; e < count; ++e) {
      auto symbols = prefixes[rng.below(prefixes.size())];
      gm::core::Symbol last;
      do {
        last = static_cast<gm::core::Symbol>(rng.below(static_cast<std::size_t>(alphabet.size())));
      } while (std::find(symbols.begin(), symbols.end(), last) != symbols.end());
      symbols.push_back(last);
      episodes.emplace_back(std::move(symbols));
    }
  } else {
    for (int e = 0; e < count; ++e) episodes.emplace_back(draw_distinct(level));
  }
  return episodes;
}

/// Floor applied to measured times before forming the regret ratio, so
/// scheduler jitter between near-instant candidates cannot manufacture
/// regret (a contended CI runner perturbs sub-0.1ms wall-clock samples by
/// ~0.1ms; at the ms-plus scale where regret is meaningful the floor is
/// negligible).  Recorded in the JSON artifact as `regret_floor_ms` so the
/// reported ratio stays reproducible from the reported times.
constexpr double kRegretFloorMs = 0.05;

/// Planner-honesty mode: plan each level, measure every feasible candidate,
/// report (and optionally gate on) the planner's regret.
int run_planner_validation(const Options& opt, const gm::core::Alphabet& alphabet,
                           const gm::core::Sequence& db, gm::Rng& rng) {
  namespace planner = gm::planner;

  planner::PlannerOptions popt;
  popt.device = gpusim::device_by_name(opt.card);
  popt.cpu_threads = opt.threads;
  popt.enable_gpu = opt.gpu;
  if (!opt.tpb_sweep.empty()) popt.tpb_sweep = opt.tpb_sweep;
  else if (opt.gpu) popt.tpb_sweep = {opt.tpb};
  // --devices N opens the planner's device-count axis: distrib candidates
  // at every count in 1..N enter the scored (and measured) table.
  for (int n = 1; n <= opt.devices; ++n) popt.device_sweep.push_back(n);

  // Applying the default (shipped) profile is a bit-identical no-op, so the
  // load-and-apply path is exercised on every validation run.
  gm::calib::CalibrationProfile profile;
  if (!opt.calibration_path.empty()) {
    profile = gm::calib::load_profile(opt.calibration_path);
    std::printf("loaded calibration %s (source=%s, %d samples%s%s)\n",
                opt.calibration_path.c_str(), profile.source.c_str(), profile.sample_count,
                profile.host.empty() ? "" : ", fitted on ",
                profile.host.empty() ? "" : profile.host.c_str());
  }
  gm::calib::apply_profile(profile, popt);

  std::printf(
      "planner validation: card=%s gpu=%s levels=1..%d max-regret=%s calibration=%s "
      "lane-isa=%s\n\n",
      opt.card.c_str(), opt.gpu ? "yes" : "no", opt.level,
      opt.max_regret > 0 ? std::to_string(opt.max_regret).c_str() : "off",
      opt.calibration_path.empty() ? "shipped" : opt.calibration_path.c_str(),
      std::string(gm::core::lane_isa()).c_str());

  gm::bench::JsonWriter json;
  json.begin_object();
  json.field("schema", "gm-bench-shootout/1");
  json.field("driver", "backend_shootout --validate-planner");
  json.key("workload").begin_object();
  json.field("db_size", opt.db_size)
      .field("alphabet", opt.alphabet)
      .field("episodes", opt.episodes)
      .field("max_level", opt.level)
      .field("expiry", opt.expiry)
      .field("semantics", to_string(opt.semantics))
      .field("zipf", opt.zipf)
      .field("prefix_pool", opt.prefix_pool)
      .field("card", opt.card)
      .field("cpu_threads", gm::resolved_thread_count(opt.threads))
      .field("seed", static_cast<std::int64_t>(opt.seed));
  json.end_object();
  json.field("lane_isa", gm::core::lane_isa());
  json.field("max_regret_gate", opt.max_regret);
  json.field("regret_floor_ms", kRegretFloorMs);
  json.field("calibration",
             opt.calibration_path.empty() ? "shipped" : opt.calibration_path);
  json.field("calibration_source", profile.source);
  json.key("levels").begin_array();

  bool gate_failed = false;
  bool all_agree = true;
  double worst_regret = 1.0;
  int trie_picks = 0;
  int flat_picks = 0;
  std::vector<gm::calib::FitSample> fit_samples;

  for (int level = 1; level <= opt.level; ++level) {
    // Level 1 counts every singleton (as the miner does); deeper levels use
    // a seeded random candidate set of the configured size.
    const std::vector<gm::core::Episode> episodes =
        level == 1 ? gm::core::all_distinct_episodes(alphabet, 1)
                   : random_episodes(alphabet, opt.episodes, level, opt.prefix_pool, rng);

    gm::core::CountRequest request;
    request.database = db;
    request.episodes = episodes;
    request.semantics = opt.semantics;
    request.expiry = gm::core::ExpiryPolicy{opt.expiry};

    const planner::Workload workload = planner::workload_of(request, opt.alphabet);
    const planner::Plan plan = planner::plan_level(workload, popt);

    std::printf("level %d (%zu episodes): %s\n", level, episodes.size(),
                plan.explanation.c_str());
    std::printf("  %-24s %12s %12s %8s  %s\n", "candidate", "predicted", "measured",
                "pred/meas", "note");

    // Measure every feasible candidate; the serial oracle anchors the
    // agreement check (the pick itself might use a documented approximation
    // when require_exact is relaxed, so it cannot serve as the reference).
    const std::vector<std::int64_t> reference = gm::core::count_all(
        request.episodes, request.database, request.semantics, request.expiry);
    std::vector<double> measured(plan.table.size(),
                                 std::numeric_limits<double>::quiet_NaN());
    double best_measured = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < plan.table.size(); ++i) {
      const planner::ScoredCandidate& candidate = plan.table[i];
      if (!candidate.feasible) continue;
      const auto backend = planner::make_planned_backend(candidate.config, popt);
      // Device-time candidates are measured by simulated kernel time: the
      // single-card formulations through the functional engine, the distrib
      // card flavor through its per-chunk device model.
      const bool is_gpu = candidate.config.simulated();
      // The simulated kernel time is deterministic: one repetition.
      const int reps = is_gpu ? 1 : opt.repeat;
      gm::core::CountResult result;
      double best_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        result = backend->count(request);
        const double ms = is_gpu ? result.simulated_kernel_ms : result.host_ms;
        best_ms = (r == 0) ? ms : std::min(best_ms, ms);
      }
      measured[i] = best_ms;
      best_measured = std::min(best_measured, best_ms);
      if (!opt.fit_path.empty()) {
        gm::calib::FitSample sample;
        sample.workload = workload;
        sample.config = candidate.config;
        sample.device = popt.device;
        sample.cost_params = popt.cost_params;
        sample.measured_ms = best_ms;
        fit_samples.push_back(std::move(sample));
      }
      // Exactness ride-along (free: the counts were just computed).  The
      // planner's require_exact gate keeps approximate formulations out of
      // the feasible table, so every measured candidate must agree.
      if (result.counts != reference) {
        std::printf("  %-24s DISAGREES with the reference counts\n",
                    candidate.config.label().c_str());
        all_agree = false;
      }
    }

    const double pick_measured = measured[0];
    const double regret =
        (pick_measured + kRegretFloorMs) / (best_measured + kRegretFloorMs);
    worst_regret = std::max(worst_regret, regret);

    const bool trie_pick =
        plan.winner().config.label().find("trie") != std::string::npos;
    (trie_pick ? trie_picks : flat_picks) += 1;

    json.begin_object();
    json.field("level", level);
    json.field("episode_count", static_cast<std::int64_t>(episodes.size()));
    json.field("prefix_compression", workload.prefix_compression);
    json.field("pick", plan.winner().config.label());
    json.field("pick_predicted_ms", plan.winner().predicted_ms);
    json.field("pick_measured_ms", pick_measured);
    json.field("best_measured_ms", best_measured);
    json.field("regret", regret);
    json.field("explanation", plan.explanation);
    json.key("candidates").begin_array();
    for (std::size_t i = 0; i < plan.table.size(); ++i) {
      const planner::ScoredCandidate& candidate = plan.table[i];
      json.begin_object();
      json.field("label", candidate.config.label());
      json.field("backend", planner::backend_kind_name(candidate.config.kind));
      json.field("feasible", candidate.feasible);
      json.field("predicted_ms", candidate.feasible ? candidate.predicted_ms : -1.0);
      json.field("measured_ms", measured[i]);  // NaN (-> null) when unmeasured
      json.field("note", candidate.reason);
      json.end_object();

      if (candidate.feasible) {
        const bool is_best = measured[i] == best_measured;
        std::printf("  %-24s %12.3f %12.3f %8.2f  %s%s%s\n",
                    candidate.config.label().c_str(), candidate.predicted_ms, measured[i],
                    measured[i] > 0 ? candidate.predicted_ms / measured[i] : 0.0,
                    i == 0 ? "<- pick " : "", is_best ? "[best] " : "",
                    candidate.reason.c_str());
      } else {
        std::printf("  %-24s %12s %12s %8s  rejected: %s\n",
                    candidate.config.label().c_str(), "-", "-", "-",
                    candidate.reason.c_str());
      }
    }
    json.end_array();
    json.end_object();

    std::printf("  regret: %.3fx (pick %.3f ms vs best %.3f ms, %.2f ms noise floor)\n\n",
                regret, pick_measured, best_measured, kRegretFloorMs);
    if (opt.max_regret > 0 && regret > opt.max_regret) gate_failed = true;
  }

  json.end_array();
  json.field("worst_regret", worst_regret);
  json.field("trie_picks", trie_picks);
  json.field("flat_picks", flat_picks);
  json.field("agree", all_agree);
  std::printf("picks: %d shared-prefix trie, %d flat\n", trie_picks, flat_picks);

  if (!opt.fit_path.empty()) {
    // Fit from this run's measurements, anchored by the paper-figure probes
    // at a tenth of the weight, starting from whatever profile this run
    // loaded (so fits can be refined incrementally).
    const std::size_t measured_count = fit_samples.size();
    for (gm::calib::FitSample& ref : gm::bench::paper_reference_samples(0.1)) {
      fit_samples.push_back(std::move(ref));
    }
    gm::calib::CalibrationProfile fitted = profile;
    const gm::calib::FitReport fit = gm::calib::fit_profile(fitted, fit_samples);
    char host[192];
    std::snprintf(host, sizeof(host),
                  "db=%lld alphabet=%d episodes=%d level=%d threads=%d expiry=%lld "
                  "zipf=%g gpu=%s card=%s seed=%llu",
                  static_cast<long long>(opt.db_size), opt.alphabet, opt.episodes,
                  opt.level, gm::resolved_thread_count(opt.threads),
                  static_cast<long long>(opt.expiry), opt.zipf, opt.gpu ? "yes" : "no",
                  opt.card.c_str(), static_cast<unsigned long long>(opt.seed));
    fitted.host = host;
    gm::calib::save_profile(fitted, opt.fit_path);
    std::printf(
        "fitted calibration from %zu measured + %zu paper-ref samples: "
        "loss %.4f -> %.4f in %d sweeps, %zu constants adjusted\nwrote %s\n",
        measured_count, fit_samples.size() - measured_count, fit.initial_loss,
        fit.final_loss, fit.sweeps, fit.adjusted.size(), opt.fit_path.c_str());

    json.key("fit").begin_object();
    json.field("path", opt.fit_path);
    json.field("measured_samples", static_cast<std::int64_t>(measured_count));
    json.field("paper_ref_samples",
               static_cast<std::int64_t>(fit_samples.size() - measured_count));
    json.field("initial_loss", fit.initial_loss);
    json.field("final_loss", fit.final_loss);
    json.field("sweeps", fit.sweeps);
    json.key("adjusted").begin_array();
    for (const std::string& name : fit.adjusted) json.value(name);
    json.end_array();
    json.end_object();
  }

  json.end_object();
  if (!opt.json_path.empty()) {
    json.write_file(opt.json_path);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  if (!all_agree) {
    std::cerr << "ERROR: a planner candidate disagreed with the reference counts\n";
    return 1;
  }
  if (gate_failed) {
    std::cerr << "ERROR: planner regret " << worst_regret << "x exceeds the --max-regret "
              << opt.max_regret << "x gate\n";
    return 1;
  }
  return 0;
}

/// Distrib scaling mode: run the chunked shard engine at every swept device
/// count, twice per count (host workers by wall-clock, simulated cards by
/// deterministic kernel time), and report throughput + scaling efficiency +
/// fold telemetry.  The --min-efficiency gate reads the simulated efficiency
/// at 4 cards: kernel time is a pure model output, so the gate holds on CI
/// runners with fewer host cores than shards.
int run_shard_sweep(const Options& opt, const gm::core::Alphabet& alphabet,
                    const gm::core::Sequence& db, gm::Rng& rng) {
  namespace distrib = gm::distrib;

  const auto episodes =
      random_episodes(alphabet, opt.episodes, opt.level, opt.prefix_pool, rng);
  gm::core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.semantics = opt.semantics;
  request.expiry = gm::core::ExpiryPolicy{opt.expiry};
  const std::vector<std::int64_t> reference = gm::core::count_all(
      request.episodes, request.database, request.semantics, request.expiry);

  std::printf("shard sweep: db=%lld alphabet=%d episodes=%zu level=%d expiry=%lld "
              "card=%s repeat=%d\n\n",
              static_cast<long long>(opt.db_size), opt.alphabet, episodes.size(),
              opt.level, static_cast<long long>(opt.expiry), opt.card.c_str(),
              opt.repeat);
  std::printf("%7s %12s %12s %10s %10s %8s %10s\n", "shards", "host ms", "sim ms",
              "host eff", "sim eff", "chunks", "rescanned");

  gm::bench::JsonWriter json;
  json.begin_object();
  json.field("schema", "gm-bench-scaling/1");
  json.field("driver", "backend_shootout --shard-sweep");
  json.key("workload").begin_object();
  json.field("db_size", opt.db_size)
      .field("alphabet", opt.alphabet)
      .field("episodes", static_cast<std::int64_t>(episodes.size()))
      .field("level", opt.level)
      .field("expiry", opt.expiry)
      .field("semantics", to_string(opt.semantics))
      .field("zipf", opt.zipf)
      .field("card", opt.card)
      .field("seed", static_cast<std::int64_t>(opt.seed));
  json.end_object();
  json.field("min_efficiency_gate", opt.min_efficiency);
  json.key("sweep").begin_array();

  // Episode-symbol steps per run: the throughput numerator both flavors share.
  const double steps =
      static_cast<double>(opt.db_size) * static_cast<double>(episodes.size());

  bool all_agree = true;
  double host_base_ms = 0.0;  // 1-shard times anchor the efficiency ratios
  double sim_base_ms = 0.0;
  double gate_efficiency = -1.0;
  int gate_shards = 0;

  for (const int shards : opt.shard_sweep) {
    double host_ms = 0.0;
    double sim_ms = 0.0;
    std::int64_t rescanned = 0;
    int chunks = 0;

    for (const bool gpu : {false, true}) {
      distrib::DistribOptions options;
      options.shards = shards;
      options.worker =
          gpu ? distrib::WorkerKind::kGpuSim : distrib::WorkerKind::kSingleScan;
      options.device = gpusim::device_by_name(opt.card);
      options.launch.threads_per_block = opt.tpb;
      distrib::DistribBackend backend(options);
      // The simulated kernel time is deterministic: one repetition suffices.
      const int reps = gpu ? 1 : opt.repeat;
      gm::core::CountResult result;
      double best_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        result = backend.count(request);
        const double ms = gpu ? result.simulated_kernel_ms : result.host_ms;
        best_ms = (r == 0) ? ms : std::min(best_ms, ms);
      }
      if (result.counts != reference) {
        std::printf("%7d %s DISAGREES with the reference counts\n", shards,
                    backend.name().c_str());
        all_agree = false;
      }
      if (gpu) {
        sim_ms = best_ms;
      } else {
        host_ms = best_ms;
        rescanned = backend.last_run().rescanned_symbols;
        chunks = backend.last_run().chunks;
      }
    }

    if (shards == 1) {
      host_base_ms = host_ms;
      sim_base_ms = sim_ms;
    }
    const double host_eff =
        host_base_ms > 0.0 ? host_base_ms / (shards * host_ms) : 0.0;
    const double sim_eff = sim_base_ms > 0.0 ? sim_base_ms / (shards * sim_ms) : 0.0;
    // The gate anchors at 4 cards (the ISSUE's reference point); if the
    // sweep stops short, the largest swept count stands in.
    if (shards == 4 || (gate_shards != 4 && shards > gate_shards)) {
      gate_shards = shards;
      gate_efficiency = sim_eff;
    }

    json.begin_object();
    json.field("shards", shards);
    json.field("host_ms", host_ms);
    json.field("host_msteps_per_s", host_ms > 0.0 ? steps / host_ms / 1e3 : 0.0);
    json.field("host_efficiency", host_eff);
    json.field("simulated_kernel_ms", sim_ms);
    json.field("simulated_msteps_per_s", sim_ms > 0.0 ? steps / sim_ms / 1e3 : 0.0);
    json.field("simulated_efficiency", sim_eff);
    json.field("chunks", chunks);
    json.field("rescanned_symbols", rescanned);
    json.end_object();

    std::printf("%7d %12.3f %12.3f %9.2f%% %9.2f%% %8d %10lld\n", shards, host_ms, sim_ms,
                100.0 * host_eff, 100.0 * sim_eff, chunks, static_cast<long long>(rescanned));
  }

  json.end_array();
  json.field("gate_shards", gate_shards);
  json.field("gate_efficiency", gate_efficiency);
  json.field("agree", all_agree);
  json.end_object();
  if (!opt.json_path.empty()) {
    json.write_file(opt.json_path);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  std::printf("\nsimulated efficiency at %d cards: %.2f%% (gate %s)\n", gate_shards,
              100.0 * gate_efficiency,
              opt.min_efficiency > 0.0 ? std::to_string(opt.min_efficiency).c_str()
                                       : "off");
  if (!all_agree) {
    std::cerr << "ERROR: a distrib run disagreed with the reference counts\n";
    return 1;
  }
  if (opt.min_efficiency > 0.0 && gate_efficiency < opt.min_efficiency) {
    std::cerr << "ERROR: simulated scaling efficiency " << gate_efficiency << " at "
              << gate_shards << " cards is below the --min-efficiency "
              << opt.min_efficiency << " gate\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--db")
        opt.db_size = gm::bench::parse_int64(arg, next(), 1, 1'000'000'000);
      else if (arg == "--alphabet") opt.alphabet = gm::bench::parse_int(arg, next(), 1, 255);
      else if (arg == "--episodes")
        opt.episodes = gm::bench::parse_int(arg, next(), 1, 10'000'000);
      else if (arg == "--level") opt.level = gm::bench::parse_int(arg, next(), 1, 255);
      else if (arg == "--threads") opt.threads = gm::bench::parse_int(arg, next(), 0, 1 << 20);
      else if (arg == "--expiry")
        opt.expiry = gm::bench::parse_int64(arg, next(), 0, 1'000'000'000);
      else if (arg == "--repeat") opt.repeat = gm::bench::parse_int(arg, next(), 1, 1000);
      else if (arg == "--seed")
        opt.seed = static_cast<std::uint64_t>(
            gm::bench::parse_int64(arg, next(), 0, std::numeric_limits<std::int64_t>::max()));
      else if (arg == "--zipf") opt.zipf = gm::bench::parse_double(arg, next(), 0.0, 10.0);
      else if (arg == "--prefix-pool")
        opt.prefix_pool = gm::bench::parse_int(arg, next(), 0, 10'000'000);
      else if (arg == "--gpu") opt.gpu = true;
      else if (arg == "--card") opt.card = next();
      else if (arg == "--tpb") opt.tpb = gm::bench::parse_int(arg, next(), 1, 1 << 16);
      else if (arg == "--validate-planner") opt.validate_planner = true;
      else if (arg == "--tpb-sweep") {
        std::string list = next();
        for (std::size_t pos = 0; pos <= list.size();) {
          const std::size_t comma = std::min(list.find(',', pos), list.size());
          opt.tpb_sweep.push_back(
              gm::bench::parse_int(arg, list.substr(pos, comma - pos), 1, 1 << 16));
          pos = comma + 1;
        }
      }
      else if (arg == "--shard-sweep") {
        // "1..8" sweeps the whole range; "1,2,4,8" names the counts.
        const std::string list = next();
        const std::size_t dots = list.find("..");
        if (dots != std::string::npos) {
          const int lo = gm::bench::parse_int(arg, list.substr(0, dots), 1, 1 << 10);
          const int hi =
              gm::bench::parse_int(arg, list.substr(dots + 2), lo, 1 << 10);
          for (int n = lo; n <= hi; ++n) opt.shard_sweep.push_back(n);
        } else {
          for (std::size_t pos = 0; pos <= list.size();) {
            const std::size_t comma = std::min(list.find(',', pos), list.size());
            opt.shard_sweep.push_back(
                gm::bench::parse_int(arg, list.substr(pos, comma - pos), 1, 1 << 10));
            pos = comma + 1;
          }
        }
      }
      else if (arg == "--min-efficiency")
        opt.min_efficiency = gm::bench::parse_double(arg, next(), 0.0, 1.0);
      else if (arg == "--devices") opt.devices = gm::bench::parse_int(arg, next(), 1, 1 << 10);
      else if (arg == "--max-regret")
        opt.max_regret = gm::bench::parse_double(arg, next(), 1.0, 1000.0);
      else if (arg == "--json") opt.json_path = next();
      else if (arg == "--calibration") opt.calibration_path = next();
      else if (arg == "--fit-calibration") opt.fit_path = next();
      else if (arg == "--semantics") {
        const std::string name = next();
        if (name == "contig") opt.semantics = gm::core::Semantics::kContiguousRestart;
        else if (name != "subseq") {
          std::cerr << "unknown semantics: " << name << "\n";
          return 2;
        }
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return 2;
      }
    }
  } catch (const gm::PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (opt.level > opt.alphabet) {
    std::cerr << "invalid configuration: --level exceeds --alphabet\n";
    return 2;
  }
  // Fitting runs the same plan-and-measure loop validation does.
  if (!opt.fit_path.empty()) opt.validate_planner = true;
  if (opt.validate_planner && !opt.shard_sweep.empty()) {
    std::cerr << "--validate-planner and --shard-sweep are separate modes\n";
    return 2;
  }
  if (!opt.validate_planner &&
      (opt.max_regret > 0 || !opt.tpb_sweep.empty() || !opt.calibration_path.empty() ||
       opt.devices > 0)) {
    std::cerr << "--max-regret/--tpb-sweep/--calibration/--devices only apply with "
                 "--validate-planner\n";
    return 2;
  }
  if (!opt.json_path.empty() && !opt.validate_planner && opt.shard_sweep.empty()) {
    std::cerr << "--json only applies with --validate-planner or --shard-sweep\n";
    return 2;
  }
  if (opt.min_efficiency > 0 && opt.shard_sweep.empty()) {
    std::cerr << "--min-efficiency only applies with --shard-sweep\n";
    return 2;
  }

  const gm::core::Alphabet alphabet(opt.alphabet);
  gm::Rng rng(opt.seed);
  const auto db = opt.zipf > 0.0
                      ? gm::data::zipf_database(alphabet, opt.db_size, opt.zipf, rng())
                      : gm::data::uniform_database(alphabet, opt.db_size, rng());

  if (opt.validate_planner) try {
    return run_planner_validation(opt, alphabet, db, rng);
  } catch (const gm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (!opt.shard_sweep.empty()) try {
    return run_shard_sweep(opt, alphabet, db, rng);
  } catch (const gm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const auto episodes =
      random_episodes(alphabet, opt.episodes, opt.level, opt.prefix_pool, rng);

  gm::core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.semantics = opt.semantics;
  request.expiry = gm::core::ExpiryPolicy{opt.expiry};

  std::cout << "backend shootout: db=" << opt.db_size << " alphabet=" << opt.alphabet
            << " episodes=" << opt.episodes << " level=" << opt.level
            << " expiry=" << opt.expiry << " semantics=" << to_string(opt.semantics)
            << " repeat=" << opt.repeat << "\n\n";

  std::vector<std::int64_t> reference;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool all_agree = true;
  double single_scan_ms = 0.0;

  std::printf("%-20s %12s %10s %10s\n", "backend", "best ms", "vs serial", "agrees");
  for (const auto name : {"cpu-serial", "cpu-parallel", "cpu-single-scan", "cpu-lane-scan"}) {
    gm::service::BackendSpec spec;
    spec.name = name;
    spec.threads = opt.threads;
    const auto backend = gm::service::make_backend(spec);

    double best_ms = 0.0;
    gm::core::CountResult result;
    try {
      for (int r = 0; r < opt.repeat; ++r) {
        result = backend->count(request);
        best_ms = (r == 0) ? result.host_ms : std::min(best_ms, result.host_ms);
      }
    } catch (const gm::Error& e) {
      // A backend that cannot serve this shape (the lane engine under
      // expiry or above its level cap) says why and sits the race out.
      if (e.code() != gm::ErrorCode::kCapability) throw;
      std::printf("%-20s %12s  (skipped: %s)\n", name, "-", e.what());
      continue;
    }

    bool agrees = true;
    if (reference.empty()) {
      reference = result.counts;  // cpu-serial runs first: it is the reference
      serial_ms = best_ms;
    } else {
      agrees = result.counts == reference;
      all_agree = all_agree && agrees;
    }
    if (std::string(name) == "cpu-parallel") parallel_ms = best_ms;
    if (std::string(name) == "cpu-single-scan") single_scan_ms = best_ms;
    std::printf("%-20s %12.2f %9.2fx %10s\n", backend->name().c_str(), best_ms,
                best_ms > 0 ? serial_ms / best_ms : 0.0, agrees ? "yes" : "NO");
  }

  if (opt.gpu) try {
    // Every simulated-GPU formulation end to end through the functional
    // engine.  Exact against the serial reference except algorithms 3/4
    // under expiry (documented overlap-rescan approximation -> "approx").
    std::printf("\ngpusim on %s, %d threads/block:\n", opt.card.c_str(), opt.tpb);
    for (const gm::kernels::Algorithm algorithm : gm::kernels::all_algorithms()) {
      const std::string label =
          "gpusim-algo" + std::to_string(gm::kernels::algorithm_number(algorithm));
      if (gm::kernels::is_block_level(algorithm) &&
          static_cast<std::int64_t>(opt.tpb) > opt.db_size) {
        std::printf("%-20s %12s  (skipped: --tpb exceeds --db)\n", label.c_str(), "-");
        continue;
      }
      gm::service::BackendSpec spec;
      spec.name = "gpusim";
      spec.card = opt.card;
      spec.launch.algorithm = algorithm;
      spec.launch.threads_per_block = opt.tpb;
      const auto backend = gm::service::make_backend(spec);

      double best_ms = 0.0;
      gm::core::CountResult result;
      for (int r = 0; r < opt.repeat; ++r) {
        result = backend->count(request);
        best_ms = (r == 0) ? result.host_ms : std::min(best_ms, result.host_ms);
      }
      const bool approximate =
          request.expiry.enabled() && gm::kernels::is_block_level(algorithm);
      const bool agrees = result.counts == reference;
      if (!approximate) all_agree = all_agree && agrees;
      std::printf("%-20s %12.2f %9.2fx %10s\n", label.c_str(), best_ms,
                  best_ms > 0 ? serial_ms / best_ms : 0.0,
                  approximate ? (agrees ? "yes*" : "approx") : (agrees ? "yes" : "NO"));
    }
    if (request.expiry.enabled()) {
      std::printf("(*/approx: block-level expiry rows use the overlap-rescan approximation)\n");
    }
  } catch (const gm::Error& e) {
    // An unknown --card or an unsupportable --level/--tpb for the GPU
    // formulations (including DeviceError for launches the card cannot
    // host, e.g. --tpb beyond the device's block limit) is a bad
    // invocation, not a backend disagreement.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (parallel_ms > 0 && single_scan_ms > 0) {
    std::printf("\nsingle-scan vs episode-parallel: %.2fx\n", parallel_ms / single_scan_ms);
  }
  if (!all_agree) {
    std::cerr << "\nERROR: backend disagreement against the serial reference\n";
    return 1;
  }
  return 0;
}
