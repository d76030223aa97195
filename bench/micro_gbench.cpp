// Microbenchmarks of the substrate, in two tiers.
//
// The counting lane (`--counting`) is the regression-gated hot-path
// microbench: it races the flat SoA single-scan engine, the episode-lane
// SIMD engine and the tracked lanes (LaneCounter, the resumable kernel behind
// StreamScan) against the serial per-episode oracle across alphabet size x
// expiry x prefix mass, plus the
// paper's dense shape (26 symbols, all 17,576 level-3 episodes), cross-checks
// every engine's counts against the oracle before reporting any timing, and
// emits a schema-stamped BENCH_counting.json so the events/sec trajectory is
// tracked commit over commit.  The lane engine has no expiry, so its column
// is empty on the expiry shapes; the tracked lanes count every shape.  Both
// rates depend on the vector width the CPU runs, which the table header and
// the JSON (`lane_isa`) name.  No gate reads the tracked column.  CI gates
// the reference shape (large alphabet, no expiry) on a relative floor
// (optimized >= 2x serial) and an absolute events/sec floor; a gated run
// (--min-speedup set) also holds the lane engine to kDenseLaneGate x flat
// single-scan on the dense shape.  All three reproduce locally with one
// command:
//
//   micro_gbench --counting --out BENCH_counting.json --min-speedup 2
//                --min-events-per-sec 2e7   (one line)
//
// The lane is self-timed (std::chrono, best of --repeat runs) so it builds
// and gates everywhere; the Google Benchmark micro suite below rides along
// only when the package exists (run with no arguments or gbench flags).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/json.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/episode_trie.hpp"
#include "core/lane_counter.hpp"
#include "core/multi_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"

namespace {

using gm::core::Alphabet;
using gm::core::Episode;
using gm::core::ExpiryPolicy;
using gm::core::Semantics;
using gm::core::Symbol;

struct CountingOptions {
  std::string out = "BENCH_counting.json";
  std::int64_t db_size = 200'000;
  int episodes = 256;
  int level = 3;
  int repeat = 3;
  std::uint64_t seed = 2009;
  double min_speedup = 0.0;         ///< gate: flat vs serial on the reference shape
  double min_events_per_sec = 0.0;  ///< gate: absolute flat floor on the reference shape
};

/// Gated runs require the lane engine at this multiple of flat single-scan on
/// the dense shape (measured on a 4-vCPU x86-64 host, GCC 12 -O3: 1.7-2.4x
/// with 16-byte lanes, 3.8-5.3x with the AVX2 kernel).
constexpr double kDenseLaneGate = 1.5;

/// Stream length of the dense paper shape (the paper_mine benchmark's), or
/// --db when that is shorter: the serial oracle steps all 17,576 automata
/// over every event.
constexpr std::int64_t kDenseEvents = 50'000;

/// One point of the shape grid.  `prefix_pool` 0 draws fully random episodes;
/// P > 0 draws each episode's (level-1)-prefix from a pool of P (the
/// shared-prefix shape of an apriori candidate set).  A dense shape
/// instead counts every level-3 episode over its alphabet.
struct Shape {
  int alphabet = 26;
  std::int64_t expiry = 0;
  int prefix_pool = 0;
  bool reference = false;  ///< the gated large-alphabet shape
  bool dense = false;      ///< the gated paper shape
};

std::vector<Episode> make_episodes(const Shape& shape, const CountingOptions& opt,
                                   gm::Rng& rng) {
  if (shape.dense) {
    const Alphabet alphabet(shape.alphabet);
    return gm::core::generate_candidates(
        gm::core::generate_candidates(gm::core::level1_candidates(alphabet), false), false);
  }
  const auto symbol = [&] {
    return static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(shape.alphabet)));
  };
  std::vector<std::vector<Symbol>> prefixes;
  for (int p = 0; p < shape.prefix_pool; ++p) {
    std::vector<Symbol> prefix;
    for (int i = 0; i + 1 < opt.level; ++i) prefix.push_back(symbol());
    prefixes.push_back(std::move(prefix));
  }
  std::vector<Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(opt.episodes));
  for (int e = 0; e < opt.episodes; ++e) {
    std::vector<Symbol> symbols;
    if (!prefixes.empty() && opt.level > 1) {
      symbols = prefixes[static_cast<std::size_t>(e) % prefixes.size()];
      symbols.push_back(symbol());
    } else {
      for (int i = 0; i < opt.level; ++i) symbols.push_back(symbol());
    }
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

/// Best-of-N wall clock of `fn` (which returns the counts it produced, so the
/// work cannot be optimized away and every run is cross-checked).
template <typename Fn>
double best_seconds(int repeat, std::vector<std::int64_t>& counts, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    counts = fn();
    best = std::min(best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

int run_counting_lane(const CountingOptions& opt) {
  // The alphabet axis tops out at 250: symbols are dense 8-bit ids, so the
  // "large alphabet" reference shape is the widest the layout supports.
  std::vector<Shape> shapes = {
      {4, 0, 0, false},    {4, 17, 0, false},    {64, 0, 0, false},  {64, 17, 0, false},
      {64, 0, 8, false},   {250, 0, 0, true},    {250, 17, 0, false}, {250, 0, 8, false},
  };
  shapes.push_back({.alphabet = 26, .dense = true});

  gm::bench::JsonWriter json;
  json.begin_object();
  json.field("schema", "gm-bench-counting/3");
  json.field("db_size", opt.db_size);
  json.field("episodes", opt.episodes);
  json.field("level", opt.level);
  json.field("repeat", opt.repeat);
  json.field("seed", static_cast<std::int64_t>(opt.seed));
  json.field("min_speedup_gate", opt.min_speedup);
  json.field("events_per_sec_floor", opt.min_events_per_sec);
  json.field("lane_isa", gm::core::lane_isa());
  json.key("shapes").begin_array();

  bool gate_failed = false;
  std::printf("lane engine: %s kernel\n", std::string(gm::core::lane_isa()).c_str());
  std::printf("%9s %7s %12s %6s %8s | %11s %11s %11s %11s | %8s %8s\n", "alphabet", "expiry",
              "prefix_pool", "rho", "episodes", "serial_ev/s", "flat_ev/s", "lane_ev/s",
              "tracked_ev/s", "flat_x", "lane_x");
  for (const Shape& shape : shapes) {
    gm::Rng rng(opt.seed + static_cast<std::uint64_t>(shape.alphabet) * 1000 +
                static_cast<std::uint64_t>(shape.expiry) * 7 +
                static_cast<std::uint64_t>(shape.prefix_pool));
    const Alphabet alphabet(shape.alphabet);
    const std::int64_t events = shape.dense ? std::min(opt.db_size, kDenseEvents) : opt.db_size;
    const auto db = gm::data::uniform_database(alphabet, events, opt.seed + 1);
    const std::vector<Episode> episodes = make_episodes(shape, opt, rng);
    const double rho = gm::core::prefix_compression(episodes);
    const ExpiryPolicy expiry{shape.expiry};
    const Semantics semantics = Semantics::kNonOverlappedSubsequence;

    std::vector<std::int64_t> oracle;
    std::vector<std::int64_t> flat;
    std::vector<std::int64_t> lane;
    std::vector<std::int64_t> tracked;
    const double serial_s = best_seconds(opt.repeat, oracle, [&] {
      return gm::core::count_all(episodes, db, semantics, expiry);
    });
    const double flat_s = best_seconds(opt.repeat, flat, [&] {
      return gm::core::count_all_single_scan(episodes, db, semantics, expiry);
    });
    // The lane engine refuses expiry: its cells stay NaN (null in the JSON).
    double lane_s = std::numeric_limits<double>::quiet_NaN();
    if (!expiry.enabled()) {
      lane_s = best_seconds(opt.repeat, lane, [&] {
        return gm::core::count_all_lanes(episodes, db, semantics);
      });
    }
    const double tracked_s = best_seconds(opt.repeat, tracked, [&] {
      gm::core::LaneCounter counter(episodes, semantics, expiry);
      counter.advance_batch(db, 0);
      return counter.counts();
    });
    if (flat != oracle || tracked != oracle || (!expiry.enabled() && lane != oracle)) {
      std::fprintf(stderr,
                   "FAIL: engine counts diverge from the serial oracle "
                   "(alphabet %d, expiry %lld, prefix_pool %d, episodes %zu)\n",
                   shape.alphabet, static_cast<long long>(shape.expiry), shape.prefix_pool,
                   episodes.size());
      return 1;
    }

    const double db_events = static_cast<double>(events);
    const double serial_eps = db_events / serial_s;
    const double flat_eps = db_events / flat_s;
    const double lane_eps = db_events / lane_s;
    const double tracked_eps = db_events / tracked_s;
    const double flat_speedup = serial_s / flat_s;
    const double lane_speedup = serial_s / lane_s;
    const double lane_vs_flat = flat_s / lane_s;
    std::printf("%9d %7lld %12d %6.3f %8zu | %11.3e %11.3e %11.3e %11.3e | %8.2f %8.2f\n",
                shape.alphabet, static_cast<long long>(shape.expiry), shape.prefix_pool, rho,
                episodes.size(), serial_eps, flat_eps, lane_eps, tracked_eps, flat_speedup,
                lane_speedup);

    json.begin_object();
    json.field("alphabet", shape.alphabet);
    json.field("expiry", shape.expiry);
    json.field("prefix_pool", shape.prefix_pool);
    json.field("prefix_compression", rho);
    json.field("episodes", static_cast<std::int64_t>(episodes.size()));
    json.field("events", events);
    json.field("reference", shape.reference);
    json.field("dense", shape.dense);
    json.field("serial_events_per_sec", serial_eps);
    json.field("flat_events_per_sec", flat_eps);
    json.field("lane_events_per_sec", lane_eps);
    json.field("tracked_events_per_sec", tracked_eps);
    json.field("flat_speedup_vs_serial", flat_speedup);
    json.field("lane_speedup_vs_serial", lane_speedup);
    json.field("lane_speedup_vs_flat", lane_vs_flat);
    json.end_object();

    if (shape.dense && opt.min_speedup > 0.0 && !(lane_vs_flat >= kDenseLaneGate)) {
      std::fprintf(stderr,
                   "GATE FAIL: lane engine %.2fx flat single-scan on the dense shape, "
                   "gate requires >= %.2fx\n",
                   lane_vs_flat, kDenseLaneGate);
      gate_failed = true;
    }

    if (shape.reference) {
      if (opt.min_speedup > 0.0 && flat_speedup < opt.min_speedup) {
        std::fprintf(stderr,
                     "GATE FAIL: flat single-scan %.2fx serial on the reference shape, "
                     "gate requires >= %.2fx\n",
                     flat_speedup, opt.min_speedup);
        gate_failed = true;
      }
      if (opt.min_events_per_sec > 0.0 && flat_eps < opt.min_events_per_sec) {
        std::fprintf(stderr,
                     "GATE FAIL: flat single-scan %.3e events/sec on the reference shape, "
                     "floor is %.3e\n",
                     flat_eps, opt.min_events_per_sec);
        gate_failed = true;
      }
    }
  }
  json.end_array();
  json.end_object();
  json.write_file(opt.out);
  std::printf("wrote %s\n", opt.out.c_str());
  return gate_failed ? 1 : 0;
}

constexpr const char* kUsage =
    "usage: micro_gbench --counting [--out FILE] [--db N] [--episodes N] [--level L]\n"
    "                    [--repeat R] [--seed S] [--min-speedup X]\n"
    "                    [--min-events-per-sec F]\n"
    "       micro_gbench [google-benchmark flags]   (micro suite, when built in)\n";

}  // namespace

#ifdef GM_HAVE_GBENCH
#include <benchmark/benchmark.h>

#include <memory>
#include <type_traits>

#include "core/scan_checkpoint.hpp"
#include "core/segment_counter.hpp"
#include "kernels/cost_constants.hpp"
#include "kernels/mining_kernels.hpp"
#include "kernels/workload_model.hpp"
#include "service/session.hpp"
#include "sim/engine.hpp"

namespace {

const Alphabet kAlphabet = Alphabet::english_uppercase();

void BM_AutomatonScan(benchmark::State& state) {
  const auto db = gm::data::uniform_database(kAlphabet, 100'000, 3);
  const Episode episode = Episode::from_text(kAlphabet, "ABC");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_occurrences(episode, db, Semantics::kNonOverlappedSubsequence));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_AutomatonScan);

void BM_SingleScanLargeAlphabet(benchmark::State& state) {
  const Alphabet alphabet(250);
  const auto db = gm::data::uniform_database(alphabet, 100'000, 3);
  gm::Rng rng(11);
  CountingOptions opt;
  opt.episodes = 256;
  const std::vector<Episode> episodes = make_episodes({250, 0, 0, false}, opt, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gm::core::count_all_single_scan(
        episodes, db, Semantics::kNonOverlappedSubsequence));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SingleScanLargeAlphabet);

void BM_ChunkedComposition(benchmark::State& state) {
  const auto db = gm::data::uniform_database(kAlphabet, 100'000, 3);
  const Episode episode = Episode::from_text(kAlphabet, "ABC");
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_chunked(episode, db, static_cast<int>(state.range(0)),
                                           Semantics::kNonOverlappedSubsequence, {},
                                           gm::core::SpanningFix::kStateComposition));
  }
}
BENCHMARK(BM_ChunkedComposition)->Arg(8)->Arg(64);

// One shared counter's engine work in `gpusim-algo5-trie` at the paper's
// level 3, which the kernel repeats for each of its 288 groups of 8 threads
// (18 blocks of 16 groups): the first 64 lexicographic episodes, AAA..ACL, as
// 8 groups of kBucketEpisodesPerThread, counted over the 50k-event stream in
// staged-buffer batches.
void BM_TrieKernelGroupSlice(benchmark::State& state) {
  const auto db = gm::data::uniform_database(kAlphabet, kDenseEvents, 1);
  std::vector<Episode> episodes;
  for (int e = 0; e < static_cast<int>(gm::core::TrieCounter::kMaxEpisodes); ++e) {
    episodes.push_back(Episode({0, static_cast<Symbol>(e / 26), static_cast<Symbol>(e % 26)}));
  }
  const std::vector<std::size_t> groups(
      gm::core::TrieCounter::kMaxEpisodes / gm::kernels::kBucketEpisodesPerThread,
      gm::kernels::kBucketEpisodesPerThread);
  const auto batch = static_cast<std::size_t>(gm::kernels::kDefaultBufferBytes);
  for (auto _ : state) {
    gm::core::TrieCounter counter(episodes, groups, Semantics::kNonOverlappedSubsequence, {},
                                  kDenseEvents);
    for (std::size_t base = 0; base < db.size(); base += batch) {
      counter.advance_batch(std::span<const Symbol>(db).subspan(
                                base, std::min(batch, db.size() - base)),
                            static_cast<std::int64_t>(base));
    }
    benchmark::DoNotOptimize(counter.ops(groups.size() - 1));
  }
  state.SetItemsProcessed(state.iterations() * kDenseEvents);
}
BENCHMARK(BM_TrieKernelGroupSlice);

// An incremental engine fed 1,500-event append batches at increasing
// absolute positions, expiry 32: StreamScan counts on LaneCounter whenever
// every episode is at most kLaneMaxLevel long, and MultiCounter is the flat
// scan it falls back to otherwise.  The StreamScan row is a monitor's whole
// feed: its LaneCounter plus StreamScan's bookkeeping (the session, not the
// scan, digests each batch; see BM_SessionAppend).  Args:
// episodes, alphabet, longest level (levels are drawn from 2..longest).
// {24, 26, 3} is perfbench stream_append's monitor shape; {4096, 250, 3}, a
// large set over a large alphabet, is where the flat scan's bucket index
// still wins.
template <class Counter>
void BM_StreamScanFeed(benchmark::State& state) {
  constexpr std::size_t kBatch = 1'500;
  const auto count = static_cast<int>(state.range(0));
  const Alphabet alphabet(static_cast<int>(state.range(1)));
  const auto longest = static_cast<std::uint64_t>(state.range(2));
  gm::Rng rng(0xA99E5D);
  std::vector<Episode> episodes;
  for (int e = 0; e < count; ++e) {
    std::vector<Symbol> symbols(2 + rng.below(longest - 1));
    for (Symbol& s : symbols) {
      s = static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(alphabet.size())));
    }
    episodes.emplace_back(std::move(symbols));
  }
  const auto stream = gm::data::uniform_database(alphabet, 64 * kBatch, 1);
  Counter counter(episodes, Semantics::kNonOverlappedSubsequence, ExpiryPolicy{32});
  std::int64_t pos = 0;
  for (auto _ : state) {
    const auto at = static_cast<std::size_t>(pos) % stream.size();
    const auto batch = std::span<const Symbol>(stream).subspan(at, kBatch);
    if constexpr (std::is_same_v<Counter, gm::core::StreamScan>) {
      counter.feed(batch);  // at its own high-water mark, which is pos
    } else {
      counter.advance_batch(batch, pos);
    }
    pos += static_cast<std::int64_t>(kBatch);
  }
  benchmark::DoNotOptimize(counter.counts());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK_TEMPLATE(BM_StreamScanFeed, gm::core::MultiCounter)
    ->Args({24, 26, 3})
    ->Args({4096, 250, 3});
BENCHMARK_TEMPLATE(BM_StreamScanFeed, gm::core::LaneCounter)
    ->Args({24, 26, 3})
    ->Args({4096, 250, 3});
BENCHMARK_TEMPLATE(BM_StreamScanFeed, gm::core::StreamScan)->Args({24, 26, 3});

// MiningSession::append_events of 1,500-event batches on a 20k-event,
// 26-symbol session watched by Arg monitors of perfbench stream_append's
// shape: 24 level-2/3 episodes each, expiry 32.  The session validates,
// counts and digests each batch once whatever the monitor count, so the
// slope per monitor is one monitor's feed.  Every 200 batches the session is
// rebuilt outside the timed region, which bounds the stream it holds.
void BM_SessionAppend(benchmark::State& state) {
  constexpr std::int64_t kBatch = 1'500;
  constexpr int kBatchesPerSession = 200;
  constexpr int kEpisodesPerMonitor = 24;
  gm::Rng rng(0x5E55A99E);
  const auto initial = gm::data::uniform_database(kAlphabet, 20'000, rng());
  std::vector<gm::core::Sequence> batches;
  for (int b = 0; b < kBatchesPerSession; ++b) {
    batches.push_back(gm::data::uniform_database(kAlphabet, kBatch, rng()));
  }
  std::vector<gm::service::MonitorSpec> specs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t m = 0; m < specs.size(); ++m) {
    specs[m].name = "monitor-" + std::to_string(m);
    for (int e = 0; e < kEpisodesPerMonitor; ++e) {
      std::vector<Symbol> symbols(2 + rng.below(2));
      for (Symbol& s : symbols) {
        s = static_cast<Symbol>(rng.below(static_cast<std::uint64_t>(kAlphabet.size())));
      }
      specs[m].episodes.emplace_back(std::move(symbols));
    }
    specs[m].expiry = {32};
  }
  const auto fresh_session = [&] {
    auto session = std::make_unique<gm::service::MiningSession>(
        gm::data::Dataset{kAlphabet, initial},
        gm::service::SessionOptions{.backend = {.name = "cpu-single-scan", .threads = 1}});
    for (const gm::service::MonitorSpec& spec : specs) (void)session->register_monitor(spec);
    return session;
  };
  auto session = fresh_session();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == batches.size()) {
      state.PauseTiming();
      session = fresh_session();
      next = 0;
      state.ResumeTiming();
    }
    const auto outcome = session->append_events(batches[next++]);
    benchmark::DoNotOptimize(outcome.database_size);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SessionAppend)->Arg(0)->Arg(1)->Arg(4);

void BM_FunctionalEngineLaunch(benchmark::State& state) {
  gpusim::EngineOptions opts;
  opts.host_threads = 1;
  const gpusim::Engine engine(gpusim::geforce_8800_gts_512(), opts);
  const auto db = gm::data::uniform_database(kAlphabet, 2'000, 3);
  const auto episodes = gm::core::all_distinct_episodes(kAlphabet, 1);
  gm::kernels::MiningLaunchParams params;
  params.algorithm = gm::kernels::Algorithm::kThreadTexture;
  params.threads_per_block = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gm::kernels::run_mining_kernel(engine, db, episodes, params));
  }
  state.SetItemsProcessed(state.iterations() * 26 * 2'000);  // lane-chars simulated
}
BENCHMARK(BM_FunctionalEngineLaunch);

void BM_AnalyticModelFullScale(benchmark::State& state) {
  const auto device = gpusim::geforce_gtx_280();
  const gpusim::CostModel model;
  gm::kernels::WorkloadSpec spec;
  spec.db_size = gm::data::kPaperDatabaseSize;
  spec.episode_count = 15'600;
  spec.level = 3;
  spec.params.algorithm = gm::kernels::Algorithm::kBlockBuffered;
  spec.params.threads_per_block = 512;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_mining_time(device, spec, model));
  }
}
BENCHMARK(BM_AnalyticModelFullScale);

void BM_SpikeTrainGeneration(benchmark::State& state) {
  const std::vector<Episode> planted = {Episode::from_text(kAlphabet, "ABC")};
  gm::data::SpikeTrainConfig config;
  config.size = 50'000;
  for (auto _ : state) {
    config.seed += 1;
    benchmark::DoNotOptimize(gm::data::spike_train(kAlphabet, planted, config));
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_SpikeTrainGeneration);

}  // namespace
#endif  // GM_HAVE_GBENCH

int main(int argc, char** argv) {
  bool counting = false;
  CountingOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto next = [&]() -> std::string_view {
        if (i + 1 >= argc) throw gm::bench::UsageError(std::string(arg) + " needs a value");
        return argv[++i];
      };
      if (arg == "--counting") {
        counting = true;
      } else if (arg == "--out") {
        opt.out = std::string(next());
      } else if (arg == "--db") {
        opt.db_size = gm::bench::parse_int64(arg, next(), 1, 1'000'000'000);
      } else if (arg == "--episodes") {
        opt.episodes = gm::bench::parse_int(arg, next(), 1, 1'000'000);
      } else if (arg == "--level") {
        opt.level = gm::bench::parse_int(arg, next(), 1, 16);
      } else if (arg == "--repeat") {
        opt.repeat = gm::bench::parse_int(arg, next(), 1, 100);
      } else if (arg == "--seed") {
        opt.seed = static_cast<std::uint64_t>(
            gm::bench::parse_int64(arg, next(), 0, std::numeric_limits<std::int64_t>::max()));
      } else if (arg == "--min-speedup") {
        opt.min_speedup = gm::bench::parse_double(arg, next(), 0.0, 1e9);
      } else if (arg == "--min-events-per-sec") {
        opt.min_events_per_sec = gm::bench::parse_double(arg, next(), 0.0, 1e18);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("%s", kUsage);
        return 0;
      } else if (!counting) {
        break;  // not a counting-lane flag: hand the whole line to gbench
      } else {
        throw gm::bench::UsageError("unknown flag '" + std::string(arg) + "'");
      }
    }
    if (counting) return run_counting_lane(opt);
  } catch (const gm::bench::UsageError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), kUsage);
    return 2;
  }
#ifdef GM_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "built without Google Benchmark; only the counting lane is available\n%s",
               kUsage);
  return 2;
#endif
}
