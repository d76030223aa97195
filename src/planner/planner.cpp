#include "planner/planner.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/cpu_backend.hpp"
#include "core/lane_counter.hpp"
#include "distrib/distrib_backend.hpp"
#include "distrib/scale_model.hpp"
#include "kernels/gpu_backend.hpp"
#include "kernels/workload_model.hpp"

namespace gm::planner {
namespace {

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ms < 10.0 ? "%.3f" : "%.2f", ms);
  return buf;
}

ScoredCandidate score_cpu(const Workload& w, BackendKind kind, int threads,
                          const PlannerOptions& options) {
  ScoredCandidate c;
  c.config.kind = kind;
  c.config.threads = threads;
  // Capability gates first, in the order a user could fix them.
  if (kind == BackendKind::kCpuLaneScan && w.expiry.enabled()) {
    c.reason = "no expiry support (episode lanes carry no match age)";
    return c;
  }
  if (kind == BackendKind::kCpuLaneScan && w.level > core::kLaneMaxLevel) {
    c.reason = "backend max_level " + std::to_string(core::kLaneMaxLevel) +
               " < requested level " + std::to_string(w.level) + " (unrolled symbol columns)";
    return c;
  }
  return price_candidate(w, c.config, options);
}

/// One distrib-gpu candidate per card count: the cheapest price over the
/// launch sweep, so the candidate carries the launch each card would
/// actually run.
ScoredCandidate score_distrib(const Workload& w, int devices, const PlannerOptions& options) {
  ScoredCandidate c;
  c.config.kind = BackendKind::kDistrib;
  c.config.threads = devices;
  if (w.level > kernels::kMaxLevel) {
    c.reason = "backend max_level " + std::to_string(kernels::kMaxLevel) +
               " < requested level " + std::to_string(w.level) +
               " (frame-register episode staging)";
    return c;
  }
  // Counts come from the host fold (always exact); the launch only shapes
  // the simulated card time, so no exactness gate applies here.
  ScoredCandidate best;
  for (const kernels::Algorithm algorithm : kernels::all_algorithms()) {
    for (const int tpb : options.tpb_sweep) {
      if (tpb > options.device.max_threads_per_block) continue;
      CandidateConfig config = c.config;
      config.algorithm = algorithm;
      config.threads_per_block = tpb;
      try {
        ScoredCandidate priced = price_candidate(w, config, options);
        if (!best.feasible || priced.predicted_ms < best.predicted_ms) best = std::move(priced);
      } catch (const gm::Error&) {
        // This (algorithm, tpb) cannot run on the stream chunks; skip it.
      }
    }
  }
  if (!best.feasible) {
    c.reason = "no launch in the sweep fits the stream chunks";
    return c;
  }
  return best;
}

ScoredCandidate score_gpu(const Workload& w, kernels::Algorithm algorithm, int tpb,
                          bool trie_buckets, const PlannerOptions& options) {
  ScoredCandidate c;
  c.config.kind = BackendKind::kGpuSim;
  c.config.algorithm = algorithm;
  c.config.threads_per_block = tpb;
  c.config.trie_buckets = trie_buckets;

  // Capability gates, checked in the order a user could fix them; the
  // catch-all below keeps any further kernel-layer precondition from
  // escaping as an exception instead of a rejection.
  if (w.level > kernels::kMaxLevel) {
    c.reason = "backend max_level " + std::to_string(kernels::kMaxLevel) +
               " < requested level " + std::to_string(w.level) +
               " (frame-register episode staging)";
    return c;
  }
  if (tpb > options.device.max_threads_per_block) {
    c.reason = "threads_per_block " + std::to_string(tpb) + " exceeds the device limit " +
               std::to_string(options.device.max_threads_per_block);
    return c;
  }
  if (kernels::is_block_level(algorithm) && tpb > w.db_size) {
    c.reason = "block-level chunking needs threads_per_block <= |DB| (" +
               std::to_string(w.db_size) + ")";
    return c;
  }
  if (w.expiry.enabled() && kernels::is_block_level(algorithm)) {
    c.reason = "inexact under expiry (overlap-rescan approximation)";
    return c;
  }
  try {
    return price_candidate(w, c.config, options);
  } catch (const gm::Error& e) {
    c.reason = e.what();
  }
  return c;
}

}  // namespace

PlannerOptions::PlannerOptions() : device(gpusim::geforce_gtx_280()) {}

double bias_for(const PlannerOptions& options, const CandidateConfig& config) {
  if (options.measured_bias.empty()) return 1.0;
  auto it = options.measured_bias.find(config.label());
  if (it == options.measured_bias.end()) {
    it = options.measured_bias.find(std::string(backend_kind_name(config.kind)));
  }
  return it == options.measured_bias.end() ? 1.0 : it->second;
}

kernels::WorkloadSpec gpu_workload_spec(const Workload& w, kernels::Algorithm algorithm,
                                        int tpb, bool trie_buckets) {
  kernels::WorkloadSpec spec;
  spec.db_size = w.db_size;
  spec.episode_count = w.episode_count;
  spec.level = w.level;
  spec.alphabet_size = w.alphabet_size;
  if (kernels::is_bucketed(algorithm)) {
    spec.symbol_freq = w.symbol_freq;
    spec.prefix_compression = w.prefix_compression;
  }
  spec.params.algorithm = algorithm;
  spec.params.threads_per_block = tpb;
  spec.params.semantics = w.semantics;
  spec.params.expiry = w.expiry;
  spec.params.trie_buckets = trie_buckets;
  return spec;
}

ScoredCandidate price_candidate(const Workload& w, const CandidateConfig& config,
                                const PlannerOptions& options) {
  ScoredCandidate c;
  c.config = config;
  c.feasible = true;
  const CpuCostConstants& cpu = options.cpu_constants;
  switch (config.kind) {
    case BackendKind::kCpuSerial:
      c.predicted_ms = predict_cpu_serial_ms(w, cpu);
      c.reason = "single-core reference scan";
      break;
    case BackendKind::kCpuParallel:
      c.predicted_ms = predict_cpu_parallel_ms(w, config.threads, cpu);
      c.reason = "stream-chunk map, exact fold";
      break;
    case BackendKind::kCpuSingleScan:
      c.predicted_ms = predict_cpu_single_scan_ms(w, cpu);
      c.reason = w.semantics == core::Semantics::kContiguousRestart
                     ? "dense single scan (contiguous restart)"
                     : "bucket-indexed single scan";
      break;
    case BackendKind::kCpuLaneScan:
      c.predicted_ms = predict_cpu_lane_scan_ms(w, cpu);
      c.reason = "episode-lane SIMD scan";
      break;
    case BackendKind::kGpuSim: {
      const gpusim::CostModel model(options.cost_params);
      c.breakdown = kernels::predict_mining_time(
          options.device,
          gpu_workload_spec(w, config.algorithm, config.threads_per_block, config.trie_buckets),
          model, options.kernel_costs);
      c.predicted_ms = c.breakdown.total_ms;
      c.reason = "bound by " + c.breakdown.bound_by;
      if (config.trie_buckets) {
        char note[48];
        std::snprintf(note, sizeof(note), "; trie prefix mass %.2f", w.prefix_compression);
        c.reason += note;
      }
      break;
    }
    case BackendKind::kDistrib: {
      // What the cards bill (distrib::card_time_ms), on the simulated clock
      // only: the host map and fold that produce the counts are host time.
      const gpusim::CostModel model(options.cost_params);
      c.predicted_ms = distrib::card_time_ms(
          options.device, gpu_workload_spec(w, config.algorithm, config.threads_per_block),
          config.threads, model, options.kernel_costs);
      char note[64];
      std::snprintf(note, sizeof(note), "%d card(s) x %d chunks of algo%d/t%d", config.threads,
                    core::kChunksPerShard, kernels::algorithm_number(config.algorithm),
                    config.threads_per_block);
      c.reason = note;
      break;
    }
  }
  return c;
}

std::string_view backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCpuSerial: return "cpu-serial";
    case BackendKind::kCpuParallel: return "cpu-parallel";
    case BackendKind::kCpuSingleScan: return "cpu-single-scan";
    case BackendKind::kCpuLaneScan: return "cpu-lane-scan";
    case BackendKind::kGpuSim: return "gpusim";
    case BackendKind::kDistrib: return "distrib-gpu";
  }
  gm::raise_precondition("unknown backend kind");
}

std::string CandidateConfig::label() const {
  if (kind == BackendKind::kDistrib) return "distrib-gpu-x" + std::to_string(threads);
  if (kind == BackendKind::kGpuSim) {
    return "gpusim-algo" + std::to_string(kernels::algorithm_number(algorithm)) +
           (trie_buckets ? "-trie" : "") + "/t" + std::to_string(threads_per_block);
  }
  std::string name(backend_kind_name(kind));
  if (kind == BackendKind::kCpuParallel) name += "-x" + std::to_string(threads);
  return name;
}

Plan plan_level(const Workload& workload, const PlannerOptions& options) {
  gm::expects(workload.db_size > 0, "planner needs a non-empty database");
  gm::expects(workload.episode_count > 0, "planner needs at least one episode");
  gm::expects(workload.level >= 1, "planner needs a positive level");
  gm::expects(options.enable_cpu || options.enable_gpu,
              "planner needs at least one enabled candidate family");

  Plan plan;
  plan.workload = workload;

  if (options.enable_cpu) {
    const int threads = gm::resolved_thread_count(options.cpu_threads);
    plan.table.push_back(score_cpu(workload, BackendKind::kCpuSerial, 1, options));
    plan.table.push_back(score_cpu(workload, BackendKind::kCpuParallel, threads, options));
    plan.table.push_back(score_cpu(workload, BackendKind::kCpuSingleScan, 1, options));
    plan.table.push_back(score_cpu(workload, BackendKind::kCpuLaneScan, 1, options));
  }
  if (options.enable_gpu) {
    gm::expects(!options.tpb_sweep.empty(),
                "planner needs a non-empty threads-per-block sweep");
    for (const kernels::Algorithm algorithm : kernels::all_algorithms()) {
      for (const int tpb : options.tpb_sweep) {
        plan.table.push_back(score_gpu(workload, algorithm, tpb, false, options));
        // The block-bucketed kernel also runs in shared-prefix trie mode; a
        // second candidate per tpb lets the sort decide trie vs flat from the
        // workload's measured prefix mass.
        if (kernels::is_bucketed(algorithm)) {
          plan.table.push_back(score_gpu(workload, algorithm, tpb, true, options));
        }
      }
    }
  }
  // The card-count axis: one distrib-gpu candidate per sweep entry, so the
  // table answers "when does 2x card beat 1x card at this level".
  for (const int devices : options.device_sweep) {
    gm::expects(devices >= 1, "device_sweep entries must be positive");
    if (options.enable_gpu) plan.table.push_back(score_distrib(workload, devices, options));
  }

  // Fold in any online-feedback multipliers before ranking, and say so in
  // the note: a biased prediction should never read like a pure model value.
  for (ScoredCandidate& c : plan.table) {
    if (!c.feasible) continue;
    const double bias = bias_for(options, c.config);
    if (bias == 1.0) continue;
    gm::expects(bias > 0.0, "measured_bias multipliers must be positive");
    c.predicted_ms *= bias;
    char note[48];
    std::snprintf(note, sizeof(note), "; x%.2f measured bias", bias);
    c.reason += note;
  }

  // Feasible candidates first, fastest first; label as the deterministic
  // tie-break.  Rejected candidates keep enumeration order at the tail so
  // the table reads "ranking, then rejections".
  std::stable_sort(plan.table.begin(), plan.table.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     if (a.predicted_ms != b.predicted_ms) {
                       return a.predicted_ms < b.predicted_ms;
                     }
                     return a.config.label() < b.config.label();
                   });

  const std::size_t feasible = plan.feasible_count();
  if (feasible == 0) {
    gm::raise_precondition("planner found no feasible formulation for level " +
                           std::to_string(workload.level) + " (" +
                           std::to_string(plan.table.size()) + " candidates rejected)");
  }

  const ScoredCandidate& win = plan.table.front();
  plan.explanation = "picked " + win.config.label() + " (predicted " +
                     fmt_ms(win.predicted_ms) + " ms, " + win.reason + ")";
  if (feasible > 1) {
    const ScoredCandidate& runner_up = plan.table[1];
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2f",
                  win.predicted_ms > 0.0 ? runner_up.predicted_ms / win.predicted_ms : 0.0);
    plan.explanation += "; " + std::string(ratio) + "x ahead of runner-up " +
                        runner_up.config.label() + " (" + fmt_ms(runner_up.predicted_ms) +
                        " ms)";
  } else {
    plan.explanation += "; the only feasible candidate";
  }
  if (plan.table.size() > feasible) {
    plan.explanation +=
        "; rejected " + std::to_string(plan.table.size() - feasible) + " candidates";
  }
  return plan;
}

std::unique_ptr<core::CountingBackend> make_planned_backend(const CandidateConfig& config,
                                                            const PlannerOptions& options) {
  if (config.kind == BackendKind::kDistrib) {
    distrib::DistribOptions d;
    d.shards = config.threads;
    d.device = options.device;
    d.cost_params = options.cost_params;
    d.kernel_costs = options.kernel_costs;
    d.launch.algorithm = config.algorithm;
    d.launch.threads_per_block = config.threads_per_block;
    return std::make_unique<distrib::DistribBackend>(d);
  }
  if (config.kind == BackendKind::kGpuSim) {
    kernels::MiningLaunchParams params;
    params.algorithm = config.algorithm;
    params.threads_per_block = config.threads_per_block;
    params.trie_buckets = config.trie_buckets;
    return std::make_unique<kernels::SimGpuBackend>(options.device, params,
                                                    options.cost_params);
  }
  auto backend =
      core::make_cpu_backend(backend_kind_name(config.kind), config.threads);
  gm::ensure(backend != nullptr, "planner named an unknown CPU backend");
  return backend;
}

std::string format_plan(const Plan& plan) {
  const Workload& w = plan.workload;
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%.2f", w.prefix_compression);
  std::string out = "workload: |DB|=" + std::to_string(w.db_size) +
                    " |episodes|=" + std::to_string(w.episode_count) +
                    " level=" + std::to_string(w.level) +
                    " alphabet=" + std::to_string(w.alphabet_size) +
                    " prefix-mass=" + prefix +
                    " semantics=" + core::to_string(w.semantics) +
                    " expiry=" + std::to_string(w.expiry.window) + "\n";
  char row[256];
  std::snprintf(row, sizeof(row), "  %-24s %12s  %s\n", "candidate", "predicted ms",
                "note");
  out += row;
  for (const ScoredCandidate& c : plan.table) {
    if (c.feasible) {
      std::snprintf(row, sizeof(row), "  %-24s %12s  %s\n", c.config.label().c_str(),
                    fmt_ms(c.predicted_ms).c_str(), c.reason.c_str());
    } else {
      std::snprintf(row, sizeof(row), "  %-24s %12s  rejected: %s\n",
                    c.config.label().c_str(), "-", c.reason.c_str());
    }
    out += row;
  }
  out += "  => " + plan.explanation + "\n";
  return out;
}

}  // namespace gm::planner
