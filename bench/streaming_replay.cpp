// streaming_replay — append-heavy replay: incremental monitors vs full recount.
//
// A MiningSession starts from a seeded prefix, registers M streaming monitors
// (random episode sets with thresholds placed so crossings happen mid-stream),
// then replays B append batches.  Two lanes are timed per batch:
//
//   incremental — session.append_events(): every monitor advances by exactly
//                 the batch (plus the session's digest/frequency upkeep);
//   full recount — count_all() over the entire stream so far for every
//                 monitor's episode set, the cost a non-resumable engine
//                 would pay to answer the same "what are the counts now?".
//
// After every batch the incremental counts are checked bit-for-bit against
// the recount, so the measured speedup is between two provably identical
// answers.  Alert latency is the wall clock from batch arrival to the alert
// surfacing out of append_events, reported as p50/p99/max.  An optional
// shard-fold lane re-assembles the whole stream from cold-scanned chunks
// delivered in a shuffled order (distrib::StreamAssembler) and cross-checks
// the final counts, reporting the fold's rescanned-symbol overhead.
//
//   streaming_replay [options]
//     --db <n>            seeded prefix size          (default 4000)
//     --alphabet <k>      alphabet size               (default 12)
//     --batches <b>       append batches              (default 30)
//     --batch-size <s>    events per batch            (default 200)
//     --monitors <m>      streaming monitors          (default 2)
//     --episodes <e>      episodes per monitor        (default 12)
//     --max-level <L>     episode level cap           (default 3)
//     --expiry <w>        expiry window, 0 = off      (default 7)
//     --semantics <s>     nonoverlap | contig         (default nonoverlap)
//     --shard-chunks <n>  out-of-order fold lane, 0 = off (default 8)
//     --seed <s>          replay seed                 (default 42)
//     --out <file>        artifact path               (default BENCH_streaming.json)
//     --min-speedup <x>   gate: incremental must beat full recount by >= x
//                         (0 = report only)
//
// Exit status: 0 on success; 1 when any batch's incremental counts differ
// from the recount, when the shard-fold lane disagrees, or when the
// --min-speedup gate fails.  CI runs this under the bench job and uploads
// BENCH_streaming.json.  Monitors count on the episode lanes (levels up to
// 8 always fit them), so the output names the lane kernel the CPU runs, as
// `lane_isa` in the JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/json.hpp"
#include "common/rng.hpp"
#include "core/lane_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "distrib/stream_fold.hpp"
#include "service/session.hpp"
#include "service/streaming_monitor.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::int64_t db_size = 4'000;
  int alphabet = 12;
  int batches = 30;
  std::int64_t batch_size = 200;
  int monitors = 2;
  int episodes = 12;
  int max_level = 3;
  std::int64_t expiry = 7;
  gm::core::Semantics semantics = gm::core::Semantics::kNonOverlappedSubsequence;
  int shard_chunks = 8;
  std::uint64_t seed = 42;
  std::string out = "BENCH_streaming.json";
  double min_speedup = 0.0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--db N] [--alphabet K] [--batches B] [--batch-size S]\n"
               "       [--monitors M] [--episodes E] [--max-level L] [--expiry W]\n"
               "       [--semantics nonoverlap|contig]\n"
               "       [--shard-chunks N] [--seed S] [--out FILE] [--min-speedup X]\n",
               argv0);
  return 2;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gm;

  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw bench::UsageError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--db") opt.db_size = bench::parse_int64(arg, next(), 1, 1'000'000'000);
      else if (arg == "--alphabet") opt.alphabet = bench::parse_int(arg, next(), 1, 255);
      else if (arg == "--batches") opt.batches = bench::parse_int(arg, next(), 1, 100'000);
      else if (arg == "--batch-size")
        opt.batch_size = bench::parse_int64(arg, next(), 1, 100'000'000);
      else if (arg == "--monitors") opt.monitors = bench::parse_int(arg, next(), 1, 64);
      else if (arg == "--episodes") opt.episodes = bench::parse_int(arg, next(), 1, 4096);
      else if (arg == "--max-level") opt.max_level = bench::parse_int(arg, next(), 1, 8);
      else if (arg == "--expiry") opt.expiry = bench::parse_int64(arg, next(), 0, INT64_MAX);
      else if (arg == "--semantics") {
        const std::string value = next();
        if (value == "contig") opt.semantics = core::Semantics::kContiguousRestart;
        else if (value == "nonoverlap")
          opt.semantics = core::Semantics::kNonOverlappedSubsequence;
        else return usage(argv[0]);
      } else if (arg == "--shard-chunks")
        opt.shard_chunks = bench::parse_int(arg, next(), 0, 4096);
      else if (arg == "--seed")
        opt.seed = static_cast<std::uint64_t>(bench::parse_int64(arg, next(), 0, INT64_MAX));
      else if (arg == "--out") opt.out = next();
      else if (arg == "--min-speedup")
        opt.min_speedup = bench::parse_double(arg, next(), 0.0, 1e9);
      else if (arg == "--help" || arg == "-h") {
        (void)usage(argv[0]);
        return 0;
      }
      else return usage(argv[0]);
    }
  } catch (const gm::PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  }

  try {
    data::Dataset dataset{core::Alphabet(opt.alphabet), {}};
    dataset.events = data::uniform_database(dataset.alphabet, opt.db_size, opt.seed);
    std::vector<core::Symbol> full = dataset.events;  // the recount lane's stream

    // Monitor specs: random episode sets, thresholds placed above the prefix
    // counts so crossings happen mid-replay and the alert lane has work.
    Rng rng(opt.seed ^ 0x57123A11ULL);
    const std::int64_t total_append = static_cast<std::int64_t>(opt.batches) * opt.batch_size;
    std::vector<service::MonitorSpec> specs;
    for (int m = 0; m < opt.monitors; ++m) {
      service::MonitorSpec spec;
      spec.name = "monitor-" + std::to_string(m);
      for (int e = 0; e < opt.episodes; ++e) {
        const int level = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(opt.max_level)));
        std::vector<core::Symbol> symbols;
        for (int s = 0; s < level; ++s) {
          symbols.push_back(
              static_cast<core::Symbol>(rng.below(static_cast<std::uint64_t>(opt.alphabet))));
        }
        spec.episodes.emplace_back(std::move(symbols));
      }
      spec.semantics = opt.semantics;
      spec.expiry = {opt.expiry};
      const auto initial = core::count_all(spec.episodes, full, spec.semantics, spec.expiry);
      const std::int64_t peak = *std::max_element(initial.begin(), initial.end());
      // Halfway up the busiest episode's expected growth over the replay.
      spec.threshold =
          peak + std::max<std::int64_t>(1, peak * total_append / (2 * opt.db_size));
      specs.push_back(std::move(spec));
    }

    service::MiningSession session(
        std::move(dataset), service::SessionOptions{.backend = {.name = "serial"}});
    std::int64_t alerts_fired = 0;
    for (const service::MonitorSpec& spec : specs) {
      alerts_fired += static_cast<std::int64_t>(session.register_monitor(spec).size());
    }

    // Pre-generate every batch so RNG cost stays out of both timed lanes.
    std::vector<std::vector<core::Symbol>> batches;
    for (int b = 0; b < opt.batches; ++b) {
      batches.push_back(data::uniform_database(core::Alphabet(opt.alphabet), opt.batch_size, rng()));
    }

    std::vector<double> incremental_ms, recount_ms, alert_latency_ms;
    std::int64_t mismatches = 0;
    for (int b = 0; b < opt.batches; ++b) {
      const Clock::time_point inc_start = Clock::now();
      const service::MiningSession::AppendOutcome outcome = session.append_events(batches[b]);
      const double inc = ms_since(inc_start);
      incremental_ms.push_back(inc);
      // Detection latency: the alert surfaced `inc` ms after its batch arrived.
      for (std::size_t a = 0; a < outcome.alerts.size(); ++a) alert_latency_ms.push_back(inc);
      alerts_fired += static_cast<std::int64_t>(outcome.alerts.size());

      full.insert(full.end(), batches[b].begin(), batches[b].end());
      const Clock::time_point re_start = Clock::now();
      std::vector<std::vector<std::int64_t>> recounts;
      for (const service::MonitorSpec& spec : specs) {
        recounts.push_back(core::count_all(spec.episodes, full, spec.semantics, spec.expiry));
      }
      recount_ms.push_back(ms_since(re_start));

      for (std::size_t m = 0; m < specs.size(); ++m) {
        if (session.monitor_counts(specs[m].name) != recounts[m]) {
          ++mismatches;
          std::fprintf(stderr, "MISMATCH: batch %d monitor %s diverged from recount\n", b,
                       specs[m].name.c_str());
        }
      }
    }

    double incremental_total = 0.0, recount_total = 0.0;
    for (const double t : incremental_ms) incremental_total += t;
    for (const double t : recount_ms) recount_total += t;
    const double speedup = incremental_total > 0.0 ? recount_total / incremental_total : 0.0;

    // Out-of-order shard-fold lane: cold-scan uneven chunks tiling the whole
    // stream, deliver shuffled, and the assembled counts must equal both the
    // recount and the live session.
    std::int64_t fold_rescanned = -1;
    double fold_wall_ms = 0.0;
    bool fold_exact = true;
    if (opt.shard_chunks > 0) {
      const service::MonitorSpec& spec = specs.front();
      std::vector<std::pair<std::int64_t, std::int64_t>> extents;  // [begin, end)
      const auto total = static_cast<std::int64_t>(full.size());
      std::int64_t at = 0;
      for (int c = 0; c < opt.shard_chunks && at < total; ++c) {
        const std::int64_t even = (total - at) / (opt.shard_chunks - c);
        const std::int64_t size = c + 1 == opt.shard_chunks
                                      ? total - at
                                      : std::max<std::int64_t>(1, even / 2 + static_cast<std::int64_t>(
                                                                                rng.below(static_cast<std::uint64_t>(even) + 1)));
        extents.emplace_back(at, std::min(at + size, total));
        at = extents.back().second;
      }
      for (std::size_t i = extents.size() - 1; i > 0; --i) {
        std::swap(extents[i], extents[rng.below(i + 1)]);
      }
      const Clock::time_point fold_start = Clock::now();
      distrib::StreamAssembler assembler(spec.episodes, spec.semantics, spec.expiry);
      for (const auto& [begin, end] : extents) {
        assembler.deliver(distrib::cold_scan_chunk(
            spec.episodes, spec.semantics, spec.expiry,
            {full.begin() + begin, full.begin() + end}, begin));
      }
      fold_wall_ms = ms_since(fold_start);
      fold_rescanned = assembler.rescanned_symbols();
      fold_exact = assembler.high_water() == total &&
                   assembler.counts() == session.monitor_counts(spec.name);
      if (!fold_exact) {
        std::fprintf(stderr, "MISMATCH: shard-fold lane diverged from the live session\n");
      }
    }

    std::sort(incremental_ms.begin(), incremental_ms.end());
    std::sort(recount_ms.begin(), recount_ms.end());
    std::sort(alert_latency_ms.begin(), alert_latency_ms.end());

    std::printf("streaming_replay: %d batches x %lld events onto %lld, %d monitors x %d episodes\n",
                opt.batches, static_cast<long long>(opt.batch_size),
                static_cast<long long>(opt.db_size), opt.monitors, opt.episodes);
    std::printf("  lane engine: %s kernel\n", std::string(core::lane_isa()).c_str());
    std::printf("  incremental %.2f ms  full recount %.2f ms  speedup %.1fx\n", incremental_total,
                recount_total, speedup);
    std::printf("  alerts %lld  latency ms: p50 %.3f  p99 %.3f  max %.3f\n",
                static_cast<long long>(alerts_fired), percentile(alert_latency_ms, 0.50),
                percentile(alert_latency_ms, 0.99),
                alert_latency_ms.empty() ? 0.0 : alert_latency_ms.back());
    if (fold_rescanned >= 0) {
      std::printf("  shard fold: %d chunks shuffled, %.2f ms, rescanned %lld symbols, %s\n",
                  opt.shard_chunks, fold_wall_ms, static_cast<long long>(fold_rescanned),
                  fold_exact ? "exact" : "MISMATCH");
    }

    bench::JsonWriter json;
    json.begin_object();
    json.field("schema", "gm-bench-streaming/1");
    json.field("driver", "streaming_replay");
    json.key("workload").begin_object();
    json.field("db_size", opt.db_size)
        .field("alphabet", opt.alphabet)
        .field("batches", opt.batches)
        .field("batch_size", opt.batch_size)
        .field("monitors", opt.monitors)
        .field("episodes_per_monitor", opt.episodes)
        .field("max_level", opt.max_level)
        .field("expiry", opt.expiry)
        .field("semantics", std::string(core::to_string(opt.semantics)))
        .field("seed", static_cast<std::int64_t>(opt.seed));
    json.end_object();
    json.key("incremental_ms")
        .begin_object()
        .field("total", incremental_total)
        .field("p50", percentile(incremental_ms, 0.50))
        .field("p99", percentile(incremental_ms, 0.99))
        .end_object();
    json.key("full_recount_ms")
        .begin_object()
        .field("total", recount_total)
        .field("p50", percentile(recount_ms, 0.50))
        .field("p99", percentile(recount_ms, 0.99))
        .end_object();
    json.field("speedup", speedup);
    json.key("alerts")
        .begin_object()
        .field("fired", alerts_fired)
        .field("latency_p50_ms", percentile(alert_latency_ms, 0.50))
        .field("latency_p99_ms", percentile(alert_latency_ms, 0.99))
        .field("latency_max_ms", alert_latency_ms.empty() ? 0.0 : alert_latency_ms.back())
        .end_object();
    json.key("shard_fold")
        .begin_object()
        .field("chunks", opt.shard_chunks)
        .field("wall_ms", fold_wall_ms)
        .field("rescanned_symbols", fold_rescanned)
        .field("exact", fold_exact)
        .end_object();
    json.field("count_mismatches", mismatches);
    json.field("min_speedup_gate", opt.min_speedup);
    json.field("lane_isa", core::lane_isa());
    json.end_object();
    json.write_file(opt.out);
    std::printf("wrote %s\n", opt.out.c_str());

    if (mismatches > 0) {
      std::fprintf(stderr, "FAIL: %lld batches diverged from the full recount\n",
                   static_cast<long long>(mismatches));
      return 1;
    }
    if (!fold_exact) {
      std::fprintf(stderr, "FAIL: shard-fold lane diverged\n");
      return 1;
    }
    if (opt.min_speedup > 0.0 && speedup < opt.min_speedup) {
      std::fprintf(stderr, "FAIL: incremental speedup %.2fx < gate %.2fx\n", speedup,
                   opt.min_speedup);
      return 1;
    }
    return 0;
  } catch (const gm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
