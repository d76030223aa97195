// paper_mine and paper_sim: cold mines of the paper's dense shape.
//
// A uniform 26-symbol stream mined up to level 3, so the levels hold 26, 676
// and 17,576 candidates.  The support threshold keeps every level-1 and
// level-2 episode and the kFrequentL3 most frequent level-3 ones: at support
// 0 all 17,576 survive, and the level-4 candidate generation after the last
// level (a 17,576 x 17,576 join whose candidates are never counted) takes
// about 85 % of a mine and swings with the host's memory system far more
// than counting does.  With the cut the mine is mostly level-3 counting, and
// the uncounted generation is still there, smaller, in the tail.
//
// Each mine runs through MiningSession::mine_with on a freshly reloaded
// session (the result cache starts empty) with a fresh backend (no planner
// feedback carried over):
//
//   paper_mine  a caller-owned planner::AutoBackend with the GPU family
//               disabled and a one-thread CPU budget;
//   paper_sim   the session's default backend spec, "auto" on the GTX 280,
//               whose picks run the functional GPU engine.
//
// The traced run wraps the backend in a TimedBackend.  Every count() call is
// one level, so a mine splits into: the session's work before level 1
// (unattributed), the count() calls, the gaps between them (elimination,
// next-level candidate generation, admission planning) and the tail after
// the last call (elimination plus generation of the level-4 candidates that
// are never counted).  Elimination and planning are then re-timed by calling
// eliminate_infrequent and plan_level on the same inputs after the mine.
#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/candidate_gen.hpp"
#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "data/generators.hpp"
#include "planner/auto_backend.hpp"
#include "service/backend_factory.hpp"
#include "service/result_cache.hpp"
#include "service/session.hpp"
#include "trace.hpp"

namespace pb {
namespace {

namespace core = gm::core;
namespace planner = gm::planner;
namespace service = gm::service;

constexpr int kAlphabet = 26;
constexpr int kMaxLevel = 3;
constexpr int kSetups = 200;  // a load takes well under a millisecond
constexpr std::ptrdiff_t kFrequentL3 = 2048;

std::uint64_t result_digest(const core::MiningResult& result) {
  service::Digest digest;
  for (const core::FrequentEpisode& f : result.frequent) digest.mix(f.episode).mix(f.count);
  return digest.value();
}

std::unique_ptr<core::CountingBackend> mine_backend(service::MiningSession& session,
                                                    bool simulated) {
  if (simulated) return session.new_backend();
  planner::PlannerOptions options = service::planner_options_for({.name = "auto", .threads = 1});
  options.enable_gpu = false;
  return std::make_unique<planner::AutoBackend>(std::move(options));
}

/// Where one traced mine's time went, in ms unless named otherwise.
struct LayerSample {
  double candgen = 0.0;
  double tail = 0.0;
  double count[kMaxLevel + 1] = {};
  double count_total = 0.0;
  double count_work = 0.0;  ///< events x episodes counted on the host
  double eliminate = 0.0;
  double plan = 0.0;
  double pred_ratio_l3 = 0.0;
  double sim_host = 0.0;
  double sim_kernel = 0.0;
  double unattributed = 0.0;
};

/// The support threshold that keeps the kFrequentL3 most frequent level-3
/// episodes of `events` (fewer on a tie at the cut).  On the full-size
/// stream every level-1 and level-2 count lies far above the cut, so the
/// levels still hold 26, 676 and 17,576 candidates.
double support_keeping_top_l3(const core::Sequence& events, const core::Alphabet& alphabet) {
  const std::vector<core::Episode> level3 = core::generate_candidates(
      core::generate_candidates(core::level1_candidates(alphabet), true), true);
  core::CountRequest request;
  request.database = events;
  request.episodes = level3;
  std::vector<std::int64_t> counts =
      core::make_cpu_backend("cpu-single-scan", 1)->count(request).counts;
  const auto cut = counts.begin() + std::min<std::ptrdiff_t>(kFrequentL3, std::ssize(counts) - 1);
  std::nth_element(counts.begin(), cut, counts.end(), std::greater<>());
  return static_cast<double>(*cut) / static_cast<double>(events.size());
}

template <typename F>
double time_ms(F&& f) {
  const auto start = Clock::now();
  f();
  return ms_since(start);
}

class PaperRun {
 public:
  PaperRun(const Options& options, bool simulated)
      : options_(options),
        simulated_(simulated),
        alphabet_(kAlphabet),
        events_(gm::data::uniform_database(alphabet_, options.tiny ? 2'000 : 50'000,
                                           options.seed)) {
    config_.support_threshold = support_keeping_top_l3(events_, alphabet_);
    config_.max_level = kMaxLevel;
  }

  Outcome run() {
    setup();
    if (options_.trace) {
      // A third of the run untraced, the rest traced: their ratio is the
      // tracing overhead.
      mine_for(options_.seconds / 3.0, false);
      mine_for(options_.seconds * 2.0 / 3.0, true);
      report_layers();
      trace_.write(output_path(options_, ".trace.json"));
    } else {
      mine_for(options_.seconds, false);
      report_latency(outcome_, ref_ms_, scan_ms_, walls_, "mines");
      outcome_.set("peak_rss_mb", peak_rss_mb());
    }
    check_against_oracle();
    std::string walls;
    for (const double ms : walls_) walls += std::to_string(static_cast<int>(ms)) + " ";
    for (const double ms : traced_walls_) walls += std::to_string(static_cast<int>(ms)) + "t ";
    outcome_.notes["mine_ms"] = walls;
    outcome_.notes["events"] = std::to_string(events_.size());
    return outcome_;
  }

 private:
  /// Load the stream into a session: setup_s is the median of several
  /// loads, and the last session is kept.  Every timed mine builds its own
  /// backend, so nothing else is built ahead; an untimed level-2 mine then
  /// warms the heap and caches.
  void setup() {
    std::vector<double> seconds;
    for (int i = 0; i < kSetups; ++i) {
      session_.reset();
      const auto start = Clock::now();
      session_ = std::make_unique<service::MiningSession>(gm::data::Dataset{alphabet_, events_});
      seconds.push_back(ms_since(start) / 1000.0);
    }
    outcome_.set("setup_s", median(seconds));
    service::MineRequest warm;
    warm.config = config_;
    warm.config.max_level = 2;
    if (!session_->mine_with(warm, *mine_backend(*session_, simulated_)).ok()) {
      throw std::runtime_error("warm-up mine was rejected");
    }
  }

  void mine_for(double seconds, bool traced) {
    service::MineRequest request;
    request.config = config_;
    const auto begin = Clock::now();
    do {
      // Untimed: a reload empties the result cache, so the mine is cold.
      session_->reload(gm::data::Dataset{alphabet_, events_});
      std::unique_ptr<core::CountingBackend> inner = mine_backend(*session_, simulated_);
      TimedBackend timed(*inner);
      core::CountingBackend& backend = traced ? timed : *inner;
      const double scan = scan_.run_ms();

      const auto start = Clock::now();
      const service::MineResponse response = session_->mine_with(request, backend);
      const auto end = Clock::now();

      ++outcome_.attempted;
      if (response.disposition != service::Disposition::kServed) {
        ++outcome_.failed;
        outcome_.notes["rejection"] = response.rejection.reason;
        continue;
      }
      (traced ? traced_walls_ : walls_).push_back(ms_between(start, end));
      if (!traced) {
        scan_ms_.push_back(scan);
        ref_ms_.push_back(at_reference_speed(ms_between(start, end), scan));
      }
      digests_.push_back(result_digest(response.result));
      if (traced) {
        attribute(start, end, timed.calls(), dynamic_cast<planner::AutoBackend&>(*inner),
                  response.result);
      }
    } while (ms_since(begin) < seconds * 1000.0);
  }

  /// Split one traced mine into layer spans and re-time its sub-steps.
  void attribute(Clock::time_point start, Clock::time_point end,
                 const std::vector<TimedBackend::Call>& calls,
                 const planner::AutoBackend& backend, const core::MiningResult& result) {
    if (calls.empty()) return;
    const std::vector<planner::Plan>& plans = backend.plans();
    LayerSample s;
    const std::int64_t mine = trace_.add("service.mine_with", start, end);
    s.unattributed = ms_between(start, calls.front().start);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const TimedBackend::Call& call = calls[i];
      const bool gpu = plans[i].winner().config.kind == planner::BackendKind::kGpuSim;
      const std::string level = std::to_string(call.level);
      trace_.add((gpu ? "sim.count.l" : "core.count.l") + level, call.start, call.end, mine);
      if (i > 0) {
        trace_.add("core.candgen.l" + level, calls[i - 1].end, call.start, mine);
        s.candgen += ms_between(calls[i - 1].end, call.start);
      }
      if (gpu) {
        s.sim_host += call.host_ms;
      } else {
        s.count_total += call.host_ms;
        s.count_work += static_cast<double>(events_.size()) * static_cast<double>(call.episodes);
        if (call.level <= kMaxLevel) s.count[call.level] = call.host_ms;
      }
      s.sim_kernel += call.simulated_kernel_ms;
      if (call.level == 3) {
        const double measured = gpu ? call.simulated_kernel_ms : call.host_ms;
        s.pred_ratio_l3 = measured / plans[i].winner().predicted_ms;
      }
    }
    trace_.add("core.miner_tail", calls.back().end, end, mine);
    s.tail = ms_between(calls.back().end, end);

    // Re-time what the gaps and count() calls contain, on the same inputs:
    // the AutoBackend's plan per level, the session's admission plan per
    // level, and the elimination step per level.
    const planner::PlannerOptions admission =
        service::planner_options_for(session_->options().backend);
    const std::vector<double> freq = session_->measured_frequencies();
    double gap_children = 0.0;
    std::vector<core::Episode> candidates = core::level1_candidates(alphabet_);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      s.plan += time_ms([&] { (void)planner::plan_level(plans[i].workload, backend.options()); });
      planner::Workload w;
      w.db_size = static_cast<std::int64_t>(events_.size());
      w.episode_count = static_cast<std::int64_t>(candidates.size());
      w.level = calls[i].level;
      w.alphabet_size = kAlphabet;
      w.symbol_freq = freq;
      const double admit = time_ms([&] { (void)planner::plan_level(w, admission); });
      s.plan += admit;
      if (i > 0) gap_children += admit;

      std::vector<std::size_t> keep;
      const double eliminate = time_ms([&] {
        keep = core::eliminate_infrequent(candidates, calls[i].counts,
                                          static_cast<std::int64_t>(events_.size()),
                                          config_.support_threshold);
      });
      s.eliminate += eliminate;
      if (i + 1 == calls.size()) break;  // the tail's candidates are never counted
      gap_children += eliminate;
      std::vector<core::Episode> frequent;
      frequent.reserve(keep.size());
      for (const std::size_t k : keep) frequent.push_back(candidates[k]);
      candidates = core::generate_candidates(frequent, config_.apriori_prune);
    }
    s.candgen = std::max(0.0, s.candgen - gap_children);
    levels_ = result.levels;
    picks_.clear();
    for (const planner::Plan& plan : plans) {
      if (!picks_.empty()) picks_ += ", ";
      picks_ += plan.winner().config.label();
    }
    samples_.push_back(s);
  }

  void report_layers() {
    // A member pointer or a function of one sample -> median over samples.
    const auto med = [this](auto field) {
      std::vector<double> values;
      for (const LayerSample& s : samples_) values.push_back(std::invoke(field, s));
      return median(values);
    };
    outcome_.set("core.candgen_ms", med(&LayerSample::candgen));
    outcome_.set("core.miner_tail_ms", med(&LayerSample::tail));
    outcome_.set("core.count_ms", med(&LayerSample::count_total));
    for (int l = 1; l <= kMaxLevel; ++l) {
      outcome_.set("core.count_ms.l" + std::to_string(l),
                   med([l](const LayerSample& s) { return s.count[l]; }));
    }
    for (const core::LevelReport& report : levels_) {
      outcome_.set("core.candidates.l" + std::to_string(report.level),
                   static_cast<double>(report.candidates));
    }
    outcome_.set("core.count_rate", med([](const LayerSample& s) {
                   return s.count_total > 0.0 ? s.count_work / (s.count_total / 1000.0) : 0.0;
                 }));
    outcome_.set("core.eliminate_ms", med(&LayerSample::eliminate));
    outcome_.set("planner.plan_ms", med(&LayerSample::plan));
    outcome_.set("planner.pred_ratio.l3", med(&LayerSample::pred_ratio_l3));
    outcome_.set("sim.host_ms", med(&LayerSample::sim_host));
    outcome_.set("kernels.sim_kernel_ms", med(&LayerSample::sim_kernel));
    outcome_.set("sim.host_per_sim_ms", med([](const LayerSample& s) {
                   return s.sim_kernel > 0.0 ? s.sim_host / s.sim_kernel : 0.0;
                 }));
    outcome_.set("trace.unattributed_ms", med(&LayerSample::unattributed));
    outcome_.set("trace.overhead_ratio", median(traced_walls_) / median(walls_));
    outcome_.notes["picks"] = picks_;
  }

  /// The frequent sets of every timed mine must equal a cpu-serial mine.
  /// Computed after the timed mines so it adds nothing to peak_rss_mb.
  void check_against_oracle() {
    const auto serial = core::make_cpu_backend("cpu-serial", 1);
    const std::uint64_t expected =
        result_digest(core::mine_frequent_episodes(events_, alphabet_, *serial, config_));
    for (const std::uint64_t digest : digests_) {
      if (digest != expected) {
        ++outcome_.mismatches;
        ++outcome_.failed;
      }
    }
  }

  const Options& options_;
  const bool simulated_;
  const core::Alphabet alphabet_;
  const core::Sequence events_;
  core::MinerConfig config_;
  std::unique_ptr<service::MiningSession> session_;

  Outcome outcome_;
  Trace trace_;
  ReferenceScan scan_;
  std::vector<double> walls_;
  std::vector<double> scan_ms_;  ///< of the untraced mines in walls_
  std::vector<double> ref_ms_;   ///< likewise
  std::vector<double> traced_walls_;
  std::vector<std::uint64_t> digests_;
  std::vector<LayerSample> samples_;
  std::vector<core::LevelReport> levels_;
  std::string picks_;
};

}  // namespace

Outcome run_paper(const Options& options, bool simulated) {
  return PaperRun(options, simulated).run();
}

}  // namespace pb
