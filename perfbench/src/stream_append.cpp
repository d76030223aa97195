// stream_append: the session's write path.
//
// One producer thread calls MiningSession::append_events back to back with
// fixed-size batches; the session has kMonitors StreamingMonitors registered
// (level 2-3 episodes, an expiry window, thresholds placed so they are
// crossed mid-stream).  append_events returns the alerts its batch fired, so
// its latency is the append-to-alert latency.  A round is one fresh session
// fed the same batches; rounds repeat until time is up, so the exact
// counts (alerts, new occurrences) repeat from round to round and memory
// stays bounded.
//
// Oracle: each monitor's final counts must equal a full serial recount of
// the round's stream, computed before the timed rounds.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "service/session.hpp"
#include "service/streaming_monitor.hpp"
#include "trace.hpp"

namespace pb {
namespace {

namespace core = gm::core;
namespace service = gm::service;

constexpr int kAlphabet = 26;
constexpr int kMonitors = 4;
constexpr int kEpisodesPerMonitor = 24;
constexpr std::int64_t kExpiryWindow = 32;

struct RoundLog {
  std::vector<double> append_ms;
  std::vector<double> monitor_ms;
  std::vector<double> upkeep_ms;
  std::vector<double> unattributed_ms;
  std::int64_t alerts = 0;
  std::int64_t new_occurrences = 0;
};

/// Every round of one phase: the append latencies sampled, each round's mean
/// append latency at reference speed, the traced per-batch figures kept
/// whole (traced runs do not report peak_rss_mb).
struct PhaseLog {
  explicit PhaseLog(std::uint64_t seed) : append_ms(kLatencySamples, seed) {}

  Reservoir append_ms;
  std::vector<double> scan_ms;
  std::vector<double> ref_ms;
  RoundLog traced;
};

class StreamAppendRun {
 public:
  explicit StreamAppendRun(const Options& options) : options_(options) {
    const core::Alphabet alphabet(kAlphabet);
    const std::int64_t batch_size = options.tiny ? 300 : 1'500;
    const int batches = options.tiny ? 10 : 200;
    initial_ = gm::data::uniform_database(alphabet, options.tiny ? 2'000 : 20'000, options.seed);
    gm::Rng rng(options.seed ^ 0xA99E5DULL);
    core::Sequence full = initial_;
    for (int b = 0; b < batches; ++b) {
      batches_.push_back(gm::data::uniform_database(alphabet, batch_size, rng()));
      full.insert(full.end(), batches_.back().begin(), batches_.back().end());
    }
    for (int m = 0; m < kMonitors; ++m) {
      service::MonitorSpec spec;
      spec.name = "monitor-" + std::to_string(m);
      for (int e = 0; e < kEpisodesPerMonitor; ++e) {
        std::vector<core::Symbol> symbols(2 + rng.below(2));
        for (core::Symbol& s : symbols) s = static_cast<core::Symbol>(rng.below(kAlphabet));
        spec.episodes.emplace_back(std::move(symbols));
      }
      spec.expiry = {kExpiryWindow};
      const auto before = core::count_all(spec.episodes, initial_, spec.semantics, spec.expiry);
      oracle_.push_back(core::count_all(spec.episodes, full, spec.semantics, spec.expiry));
      // Halfway between the busiest episode's count before and after the
      // round: it, and any episode close to it, alerts mid-stream.
      const std::int64_t low = *std::max_element(before.begin(), before.end());
      const std::int64_t high = *std::max_element(oracle_.back().begin(), oracle_.back().end());
      spec.threshold = low + std::max<std::int64_t>(1, (high - low) / 2);
      specs_.push_back(std::move(spec));
    }
  }

  Outcome run() {
    (void)round(false);  // warm-up, untimed
    if (options_.trace) {
      const PhaseLog plain = rounds_for(options_.seconds / 3.0, false, 1);
      const PhaseLog phase = rounds_for(options_.seconds * 2.0 / 3.0, true, 2);
      const RoundLog& traced = phase.traced;
      outcome_.set("stream.monitor_ms", median(traced.monitor_ms));
      outcome_.set("stream.upkeep_ms", median(traced.upkeep_ms));
      outcome_.set("stream.alerts", static_cast<double>(traced.alerts));
      outcome_.set("stream.new_occurrences", static_cast<double>(traced.new_occurrences));
      outcome_.set("trace.unattributed_ms", median(traced.unattributed_ms));
      outcome_.set("trace.overhead_ratio",
                   median(phase.append_ms.values()) / median(plain.append_ms.values()));
      trace_.write(output_path(options_, ".trace.json"));
    } else {
      const PhaseLog log = rounds_for(options_.seconds, false, 1);
      report_latency(outcome_, log.ref_ms, log.scan_ms, log.append_ms.values(),
                     "sampled appends");
      outcome_.set("peak_rss_mb", peak_rss_mb());
    }
    outcome_.set("setup_s", median(setup_s_));
    return outcome_;
  }

 private:
  /// Rounds until `seconds` have passed, each after a reference scan.  The
  /// per-round exact counts are the same every round, so the log keeps one
  /// round's worth.
  PhaseLog rounds_for(double seconds, bool traced, std::uint64_t phase) {
    const auto extend = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    const auto begin = Clock::now();
    PhaseLog all(options_.seed * 1000 + phase);
    do {
      const double scan = scan_.run_ms();
      const RoundLog log = round(traced);
      double total_ms = 0.0;
      for (const double ms : log.append_ms) {
        all.append_ms.add(ms);
        total_ms += ms;
      }
      all.scan_ms.push_back(scan);
      all.ref_ms.push_back(
          at_reference_speed(total_ms / static_cast<double>(log.append_ms.size()), scan));
      extend(all.traced.monitor_ms, log.monitor_ms);
      extend(all.traced.upkeep_ms, log.upkeep_ms);
      extend(all.traced.unattributed_ms, log.unattributed_ms);
      all.traced.alerts = log.alerts;
      all.traced.new_occurrences = log.new_occurrences;
    } while (ms_since(begin) < seconds * 1000.0);
    return all;
  }

  /// One fresh session fed every batch.  The set-up (session construction
  /// and monitor registration, which scans the initial stream) is timed as a
  /// setup_s sample.  A traced round also feeds replica monitors and times
  /// them apart from the append.
  RoundLog round(bool traced) {
    RoundLog log;
    const auto setup_start = Clock::now();
    service::MiningSession session(
        gm::data::Dataset{core::Alphabet(kAlphabet), initial_},
        service::SessionOptions{.backend = {.name = "cpu-single-scan", .threads = 1}});
    for (const service::MonitorSpec& spec : specs_) (void)session.register_monitor(spec);
    setup_s_.push_back(ms_since(setup_start) / 1000.0);

    std::vector<service::StreamingMonitor> replicas;
    std::vector<service::Alert> replica_alerts;
    if (traced) {
      for (const service::MonitorSpec& spec : specs_) {
        replicas.emplace_back(spec).on_append(initial_, 1, replica_alerts);
      }
    }

    auto previous = Clock::now();
    for (const core::Sequence& batch : batches_) {
      const auto start = Clock::now();
      const service::MiningSession::AppendOutcome appended = session.append_events(batch);
      const auto end = Clock::now();
      ++outcome_.attempted;
      log.append_ms.push_back(ms_between(start, end));
      log.alerts += static_cast<std::int64_t>(appended.alerts.size());
      if (!traced) continue;

      const std::int64_t append = trace_.add("service.append_events", start, end);
      const auto replica_start = Clock::now();
      for (service::StreamingMonitor& replica : replicas) {
        replica.on_append(batch, appended.generation, replica_alerts);
      }
      const auto replica_end = Clock::now();
      trace_.add("stream.monitor_replica", replica_start, replica_end, append);
      const double monitor = ms_between(replica_start, replica_end);
      log.monitor_ms.push_back(monitor);
      log.upkeep_ms.push_back(ms_between(start, end) - monitor);
      log.unattributed_ms.push_back(ms_between(previous, start) +
                                    ms_between(end, replica_start));
      previous = replica_end;
    }
    for (const service::StreamingMonitor& replica : replicas) {
      const std::vector<service::MonitorTick>& ticks = replica.ticks();
      // Tick 0 is the registration scan of the initial stream.
      for (std::size_t t = 1; t < ticks.size(); ++t) {
        log.new_occurrences += ticks[t].new_occurrences;
      }
    }

    for (std::size_t m = 0; m < specs_.size(); ++m) {
      if (session.monitor_counts(specs_[m].name) != oracle_[m]) {
        ++outcome_.mismatches;
        ++outcome_.failed;
      }
    }
    return log;
  }

  const Options& options_;
  core::Sequence initial_;
  std::vector<core::Sequence> batches_;
  std::vector<service::MonitorSpec> specs_;
  std::vector<std::vector<std::int64_t>> oracle_;
  std::vector<double> setup_s_;
  ReferenceScan scan_;
  Outcome outcome_;
  Trace trace_;
};

}  // namespace

Outcome run_stream_append(const Options& options) { return StreamAppendRun(options).run(); }

}  // namespace pb
