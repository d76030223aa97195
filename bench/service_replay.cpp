// service_replay — multithreaded traffic replay against the mining service.
//
// C closed-loop client threads replay a seeded mix of MineRequests (drawn
// from a small pool of templates, so repeats hit the result cache) and
// CountRequests (drawn from a pool of episode sets, so concurrent submissions
// batch) against a MiningService.  Every successful response (and every
// level a budget-truncated mine counted) is checked bit-for-bit against a
// direct, uncached oracle (mine_frequent_episodes /
// SerialCpuBackend) computed up front — the replay measures throughput and
// latency *of answers that are provably identical to unserviced mining*.
//
//   service_replay [options]
//     --db <n>              database size             (default 20000)
//     --alphabet <k>        alphabet size             (default 16)
//     --clients <c>         client threads            (default 4)
//     --requests <r>        requests per client       (default 50)
//     --workers <w>         service worker threads    (default 4)
//     --backend <name>      session backend           (default cpu-single-scan)
//     --threads <n>         CPU backend threads       (default 2)
//     --mine-templates <t>  distinct mine shapes      (default 3)
//     --count-templates <t> distinct episode sets     (default 6)
//     --mine-frac <f>       fraction of mine traffic  (default 0.4)
//     --max-batch <b>       service batch limit       (default 16)
//     --budget-ms <ms>      per-request latency budget, 0 = off (default 0)
//     --support <alpha>     template support base     (default 0.002)
//     --max-level <L>       template level cap        (default 3)
//     --seed <s>            replay seed               (default 42)
//     --out <file>          artifact path             (default BENCH_service.json)
//     --min-cache-hits <n>  gate: fail unless the session cache served >= n
//
// Exit status: 0 on success; 1 when any response mismatches its oracle, when
// a request is rejected for a reason other than the configured budget, or
// when the --min-cache-hits gate fails.  CI runs this under the bench job
// and uploads BENCH_service.json (throughput, p50/p99 latency, cache and
// batching counters, plus each count template's measured prefix-compression
// factor and the planner's trie-vs-flat pick tally for those templates —
// even-numbered templates share an apriori-style prefix, odd ones are fully
// random, so both regimes appear in every replay).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/json.hpp"
#include "common/rng.hpp"
#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "data/generators.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::int64_t db_size = 20'000;
  int alphabet = 16;
  int clients = 4;
  int requests = 50;
  int workers = 4;
  std::string backend = "cpu-single-scan";
  int threads = 2;
  int mine_templates = 3;
  int count_templates = 6;
  double mine_frac = 0.4;
  int max_batch = 16;
  double budget_ms = 0.0;
  double support = 0.002;
  int max_level = 3;
  std::uint64_t seed = 42;
  std::string out = "BENCH_service.json";
  std::int64_t min_cache_hits = 0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--db N] [--alphabet K] [--clients C] [--requests R]\n"
               "       [--workers W] [--backend NAME] [--threads N] [--mine-templates T]\n"
               "       [--count-templates T] [--mine-frac F] [--max-batch B] [--budget-ms MS]\n"
               "       [--support A] [--max-level L] [--seed S] [--out FILE]\n"
               "       [--min-cache-hits N]\n",
               argv0);
  return 2;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
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
      else if (arg == "--clients") opt.clients = bench::parse_int(arg, next(), 1, 256);
      else if (arg == "--requests") opt.requests = bench::parse_int(arg, next(), 1, 1'000'000);
      else if (arg == "--workers") opt.workers = bench::parse_int(arg, next(), 1, 256);
      else if (arg == "--backend") opt.backend = next();
      else if (arg == "--threads") opt.threads = bench::parse_int(arg, next(), 0, 1 << 10);
      else if (arg == "--mine-templates") opt.mine_templates = bench::parse_int(arg, next(), 1, 64);
      else if (arg == "--count-templates")
        opt.count_templates = bench::parse_int(arg, next(), 1, 256);
      else if (arg == "--mine-frac") opt.mine_frac = bench::parse_double(arg, next(), 0.0, 1.0);
      else if (arg == "--max-batch") opt.max_batch = bench::parse_int(arg, next(), 1, 1 << 10);
      else if (arg == "--budget-ms") opt.budget_ms = bench::parse_double(arg, next(), 0.0, 1e9);
      else if (arg == "--support") opt.support = bench::parse_double(arg, next(), 0.0, 1.0);
      else if (arg == "--max-level") opt.max_level = bench::parse_int(arg, next(), 1, 8);
      else if (arg == "--seed")
        opt.seed = static_cast<std::uint64_t>(bench::parse_int64(arg, next(), 0, INT64_MAX));
      else if (arg == "--out") opt.out = next();
      else if (arg == "--min-cache-hits")
        opt.min_cache_hits = bench::parse_int64(arg, next(), 0, INT64_MAX);
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

    // Request templates.  A small pool replayed by many clients is the
    // repeated-query traffic the cache exists for.
    Rng rng(opt.seed ^ 0x5e51ce5eed5ULL);
    std::vector<service::MineRequest> mine_pool;
    for (int t = 0; t < opt.mine_templates; ++t) {
      service::MineRequest request;
      request.config.support_threshold = opt.support * static_cast<double>(1 + t);
      request.config.max_level = opt.max_level;
      if (t % 3 == 1) request.config.semantics = core::Semantics::kContiguousRestart;
      if (t % 3 == 2) request.config.expiry = {static_cast<std::int64_t>(4 + t)};
      request.limits.latency_budget_ms = opt.budget_ms;
      mine_pool.push_back(std::move(request));
    }
    std::vector<service::CountRequest> count_pool;
    for (int t = 0; t < opt.count_templates; ++t) {
      service::CountRequest request;
      const int level = 1 + static_cast<int>(rng.below(3));
      const int episodes = 8 + static_cast<int>(rng.below(24));
      // Even templates share one (level-1)-symbol prefix across their whole
      // episode set, the shape an apriori join produces — real prefix mass
      // for the shared-prefix trie formulations to react to.  Odd templates
      // stay fully random.
      std::vector<core::Symbol> shared;
      if (t % 2 == 0) {
        for (int s = 0; s + 1 < level; ++s) {
          shared.push_back(
              static_cast<core::Symbol>(rng.below(static_cast<std::uint64_t>(opt.alphabet))));
        }
      }
      for (int e = 0; e < episodes; ++e) {
        std::vector<core::Symbol> symbols = shared;
        while (static_cast<int>(symbols.size()) < level) {
          symbols.push_back(
              static_cast<core::Symbol>(rng.below(static_cast<std::uint64_t>(opt.alphabet))));
        }
        request.episodes.emplace_back(std::move(symbols));
      }
      if (t % 2 == 1) request.expiry = {6};
      request.limits.latency_budget_ms = opt.budget_ms;
      count_pool.push_back(std::move(request));
    }

    // Shared-prefix telemetry: every count template's measured prefix mass,
    // and the formulation the planner picks for its workload (the same
    // plan_level call an `auto` backend makes per count).
    planner::PlannerOptions plan_options;
    plan_options.cpu_threads = opt.threads;
    std::vector<double> template_prefix_mass;
    int trie_picks = 0;
    int flat_picks = 0;
    double mean_prefix_mass = 0.0;
    for (const service::CountRequest& request : count_pool) {
      core::CountRequest raw;
      raw.database = dataset.events;
      raw.episodes = request.episodes;
      raw.semantics = request.semantics;
      raw.expiry = request.expiry;
      const planner::Workload workload = planner::workload_of(raw, opt.alphabet);
      template_prefix_mass.push_back(workload.prefix_compression);
      mean_prefix_mass +=
          workload.prefix_compression / static_cast<double>(count_pool.size());
      const planner::Plan plan = planner::plan_level(workload, plan_options);
      const bool trie_pick =
          plan.winner().config.label().find("trie") != std::string::npos;
      (trie_pick ? trie_picks : flat_picks) += 1;
    }

    // Uncached oracles, computed before the service sees any traffic.
    std::vector<core::MiningResult> mine_oracle;
    for (const service::MineRequest& request : mine_pool) {
      core::SerialCpuBackend serial;
      mine_oracle.push_back(core::mine_frequent_episodes(dataset.events, dataset.alphabet, serial,
                                                         request.config));
    }
    std::vector<std::vector<std::int64_t>> count_oracle;
    for (const service::CountRequest& request : count_pool) {
      core::SerialCpuBackend serial;
      core::CountRequest raw;
      raw.database = dataset.events;
      raw.episodes = request.episodes;
      raw.semantics = request.semantics;
      raw.expiry = request.expiry;
      count_oracle.push_back(serial.count(raw).counts);
    }

    auto session = std::make_shared<service::MiningSession>(
        dataset,
        service::SessionOptions{.backend = {.name = opt.backend, .threads = opt.threads}});
    service::MiningService service(
        session, {.workers = opt.workers,
                  .max_queue = static_cast<std::size_t>(opt.clients) *
                               static_cast<std::size_t>(opt.requests),
                  .max_batch = static_cast<std::size_t>(opt.max_batch)});

    // Closed-loop replay: each client submits, waits, verifies, repeats.
    std::mutex merge_mutex;
    std::vector<double> latencies_ms;
    std::int64_t mismatches = 0;
    std::int64_t unexpected_rejections = 0;
    std::int64_t budget_rejections = 0;
    std::int64_t truncated = 0;

    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(opt.clients));
    for (int c = 0; c < opt.clients; ++c) {
      clients.emplace_back([&, c] {
        Rng client_rng(opt.seed + 1000 + static_cast<std::uint64_t>(c));
        std::vector<double> local_lat;
        std::int64_t local_mismatch = 0, local_unexpected = 0, local_budget = 0, local_trunc = 0;
        for (int r = 0; r < opt.requests; ++r) {
          const Clock::time_point start = Clock::now();
          if (client_rng.chance(opt.mine_frac)) {
            const auto t = static_cast<std::size_t>(client_rng.below(mine_pool.size()));
            const service::MineResponse response = service.submit(mine_pool[t]).get();
            local_lat.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - start).count());
            if (response.disposition == service::Disposition::kRejected) {
              if (response.rejection.code == ErrorCode::kAdmissionRejected) ++local_budget;
              else ++local_unexpected;
            } else {
              // A run the budget truncated counted its levels completely: its
              // answer is the oracle's first levels.
              const bool cut = response.disposition == service::Disposition::kTruncated;
              local_trunc += cut ? 1 : 0;
              const core::MiningResult& want = mine_oracle[t];
              const core::MiningResult& got = response.result;
              std::int64_t expected = want.total_frequent();
              if (cut) {
                expected = 0;
                for (std::size_t l = 0; l < got.levels.size() && l < want.levels.size(); ++l) {
                  expected += want.levels[l].frequent;
                }
              }
              bool same = got.total_frequent() == expected;
              for (std::size_t i = 0; same && i < got.frequent.size(); ++i) {
                same = got.frequent[i].episode == want.frequent[i].episode &&
                       got.frequent[i].count == want.frequent[i].count;
              }
              local_mismatch += same ? 0 : 1;
            }
          } else {
            const auto t = static_cast<std::size_t>(client_rng.below(count_pool.size()));
            const service::CountResponse response = service.submit(count_pool[t]).get();
            local_lat.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - start).count());
            if (response.disposition == service::Disposition::kRejected) {
              if (response.rejection.code == ErrorCode::kAdmissionRejected) ++local_budget;
              else ++local_unexpected;
            } else {
              local_mismatch += response.counts == count_oracle[t] ? 0 : 1;
            }
          }
        }
        const std::scoped_lock lock(merge_mutex);
        latencies_ms.insert(latencies_ms.end(), local_lat.begin(), local_lat.end());
        mismatches += local_mismatch;
        unexpected_rejections += local_unexpected;
        budget_rejections += local_budget;
        truncated += local_trunc;
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    const service::ServiceStats stats = service.stats();
    const service::CacheStats mine_cache = session->mine_cache_stats();
    const service::CacheStats count_cache = session->count_cache_stats();
    const std::int64_t cache_hits =
        static_cast<std::int64_t>(mine_cache.hits + count_cache.hits);

    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double total = static_cast<double>(latencies_ms.size());
    double mean = 0.0;
    for (const double l : latencies_ms) mean += l / std::max(total, 1.0);
    const double p50 = percentile(latencies_ms, 0.50);
    const double p99 = percentile(latencies_ms, 0.99);
    const double throughput = total / (wall_ms / 1000.0);

    std::printf("service_replay: %d clients x %d requests, %d workers, backend=%s\n",
                opt.clients, opt.requests, opt.workers, opt.backend.c_str());
    std::printf("  wall %.1f ms  throughput %.1f req/s\n", wall_ms, throughput);
    std::printf("  latency ms: mean %.3f  p50 %.3f  p99 %.3f  max %.3f\n", mean, p50, p99,
                latencies_ms.empty() ? 0.0 : latencies_ms.back());
    std::printf("  served %llu  cached %llu  truncated %llu  rejected %llu  batched %llu\n",
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.cached),
                static_cast<unsigned long long>(stats.truncated),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.batched));
    std::printf("  cache hits %lld (mine %llu / count %llu)  mismatches %lld\n",
                static_cast<long long>(cache_hits),
                static_cast<unsigned long long>(mine_cache.hits),
                static_cast<unsigned long long>(count_cache.hits),
                static_cast<long long>(mismatches));
    std::printf("  count templates: mean prefix mass %.2f, planner picks %d trie / %d flat\n",
                mean_prefix_mass, trie_picks, flat_picks);

    bench::JsonWriter json;
    json.begin_object();
    json.field("schema", "gm-bench-service/1");
    json.field("driver", "service_replay");
    json.key("workload").begin_object();
    json.field("db_size", opt.db_size)
        .field("alphabet", opt.alphabet)
        .field("clients", opt.clients)
        .field("requests_per_client", opt.requests)
        .field("workers", opt.workers)
        .field("backend", opt.backend)
        .field("mine_templates", opt.mine_templates)
        .field("count_templates", opt.count_templates)
        .field("mine_frac", opt.mine_frac)
        .field("max_batch", opt.max_batch)
        .field("budget_ms", opt.budget_ms)
        .field("seed", static_cast<std::int64_t>(opt.seed));
    json.end_object();
    json.field("wall_ms", wall_ms);
    json.field("throughput_rps", throughput);
    json.key("latency_ms")
        .begin_object()
        .field("mean", mean)
        .field("p50", p50)
        .field("p99", p99)
        .field("max", latencies_ms.empty() ? 0.0 : latencies_ms.back())
        .end_object();
    json.key("service")
        .begin_object()
        .field("submitted", static_cast<std::int64_t>(stats.submitted))
        .field("served", static_cast<std::int64_t>(stats.served))
        .field("cached", static_cast<std::int64_t>(stats.cached))
        .field("truncated", static_cast<std::int64_t>(stats.truncated))
        .field("rejected", static_cast<std::int64_t>(stats.rejected))
        .field("batched", static_cast<std::int64_t>(stats.batched))
        .end_object();
    json.key("cache")
        .begin_object()
        .field("mine_hits", static_cast<std::int64_t>(mine_cache.hits))
        .field("mine_misses", static_cast<std::int64_t>(mine_cache.misses))
        .field("count_hits", static_cast<std::int64_t>(count_cache.hits))
        .field("count_misses", static_cast<std::int64_t>(count_cache.misses))
        .end_object();
    json.key("prefix_compression").begin_array();
    for (const double mass : template_prefix_mass) json.value(mass);
    json.end_array();
    json.key("planner")
        .begin_object()
        .field("trie_picks", trie_picks)
        .field("flat_picks", flat_picks)
        .field("mean_prefix_compression", mean_prefix_mass)
        .end_object();
    json.field("budget_rejections", budget_rejections);
    json.field("truncated_runs", truncated);
    json.field("oracle_mismatches", mismatches);
    json.field("unexpected_rejections", unexpected_rejections);
    json.field("min_cache_hits_gate", opt.min_cache_hits);
    json.end_object();
    json.write_file(opt.out);
    std::printf("wrote %s\n", opt.out.c_str());

    if (mismatches > 0) {
      std::fprintf(stderr, "FAIL: %lld responses differed from the uncached oracle\n",
                   static_cast<long long>(mismatches));
      return 1;
    }
    if (unexpected_rejections > 0) {
      std::fprintf(stderr, "FAIL: %lld rejections with codes other than the configured budget\n",
                   static_cast<long long>(unexpected_rejections));
      return 1;
    }
    if (cache_hits < opt.min_cache_hits) {
      std::fprintf(stderr, "FAIL: %lld cache hits < gate %lld\n",
                   static_cast<long long>(cache_hits),
                   static_cast<long long>(opt.min_cache_hits));
      return 1;
    }
    return 0;
  } catch (const gm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
