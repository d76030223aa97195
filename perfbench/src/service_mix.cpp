// service_mix: a closed loop of count requests through MiningService.
//
// kClients client threads (the main thread is one of them) each submit a
// CountRequest, wait for its future, and submit the next; one worker serves
// them with cpu-single-scan, so clients + worker fit in the four cores and
// queued requests with the same batch key (level, semantics, expiry) are
// merged into one backend call.  Half the requests repeat one of kTemplates
// episode sets drawn by Zipf popularity (cache hits once warmed); the other
// half are fresh seeded sets (misses, which batch).  Sets hold level 1-3
// episodes; half share an apriori prefix and half use an expiry window.
//
// The serial oracle counts every episode a request can name (all 26^L
// episodes of levels 1-3, with and without expiry) before the loop, so each
// answer is checked by lookup right after its latency is taken.
#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "service/backend_factory.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace pb {
namespace {

namespace core = gm::core;
namespace service = gm::service;

constexpr int kAlphabet = 26;
constexpr int kClients = 3;
constexpr int kWorkers = 1;
constexpr int kTemplates = 64;
constexpr double kTemplateShare = 0.5;
constexpr std::int64_t kExpiryWindow = 24;
constexpr int kSetups = 15;
constexpr double kSliceSeconds = 0.25;
/// Fresh requests the traced run re-counts to measure core.count_rate.
constexpr std::size_t kRateSamples = 256;

/// Serial counts of every level-1..3 episode, indexed by its symbols read as
/// a base-26 number, for both expiry settings.
class Oracle {
 public:
  explicit Oracle(const core::Sequence& events) {
    for (int expiry = 0; expiry < 2; ++expiry) {
      for (int level = 1; level <= 3; ++level) {
        std::vector<core::Episode> all;
        enumerate(level, {}, all);
        table_[expiry][level] =
            core::count_all(all, events, core::Semantics::kNonOverlappedSubsequence,
                            {expiry == 1 ? kExpiryWindow : 0});
      }
    }
  }

  [[nodiscard]] std::vector<std::int64_t> expected(const service::CountRequest& request) const {
    const auto& table = table_[request.expiry.enabled() ? 1 : 0];
    std::vector<std::int64_t> counts;
    counts.reserve(request.episodes.size());
    for (const core::Episode& episode : request.episodes) {
      std::size_t index = 0;
      for (const core::Symbol s : episode.symbols()) index = index * kAlphabet + s;
      counts.push_back(table[static_cast<std::size_t>(episode.level())][index]);
    }
    return counts;
  }

 private:
  static void enumerate(int level, std::vector<core::Symbol> prefix,
                        std::vector<core::Episode>& out) {
    if (static_cast<int>(prefix.size()) == level) {
      out.emplace_back(prefix);
      return;
    }
    for (int s = 0; s < kAlphabet; ++s) {
      prefix.push_back(static_cast<core::Symbol>(s));
      enumerate(level, prefix, out);
      prefix.pop_back();
    }
  }

  std::vector<std::int64_t> table_[2][4];
};

/// One fresh episode set: distinct episodes of one level, half of the sets
/// sharing a common (level-1)-symbol prefix, half with expiry.
service::CountRequest fresh_request(gm::Rng& rng) {
  service::CountRequest request;
  const int level = 1 + static_cast<int>(rng.below(3));
  const bool shared_prefix = rng.chance(0.5);
  if (rng.chance(0.5)) request.expiry = {kExpiryWindow};
  const auto size = static_cast<std::size_t>(rng.between(8, 40));
  std::vector<core::Symbol> prefix;
  for (int i = 0; i + 1 < level; ++i) {
    prefix.push_back(static_cast<core::Symbol>(rng.below(kAlphabet)));
  }
  // A shared prefix (or level 1) leaves only kAlphabet distinct episodes.
  const std::size_t wanted =
      shared_prefix || level == 1 ? std::min<std::size_t>(size, kAlphabet) : size;
  std::vector<core::Episode> episodes;
  while (episodes.size() < wanted) {
    std::vector<core::Symbol> symbols;
    if (shared_prefix) {
      symbols = prefix;
      symbols.push_back(static_cast<core::Symbol>(rng.below(kAlphabet)));
    } else {
      for (int i = 0; i < level; ++i) {
        symbols.push_back(static_cast<core::Symbol>(rng.below(kAlphabet)));
      }
    }
    core::Episode episode(std::move(symbols));
    if (std::find(episodes.begin(), episodes.end(), episode) == episodes.end()) {
      episodes.push_back(std::move(episode));
    }
  }
  request.episodes = std::move(episodes);
  return request;
}

/// Per-client request stream: Zipf-popular templates mixed with fresh sets.
class RequestStream {
 public:
  RequestStream(const std::vector<service::CountRequest>& templates, std::uint64_t seed)
      : templates_(templates), rng_(seed) {
    double total = 0.0;
    for (int k = 0; k < kTemplates; ++k) {
      total += 1.0 / (k + 1.0);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// The next request, and whether it is fresh.
  std::pair<service::CountRequest, bool> next() {
    if (rng_.chance(kTemplateShare)) {
      const double u = rng_.unit();
      const auto k = static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                              cdf_.begin());
      return {templates_[std::min<std::size_t>(k, templates_.size() - 1)], false};
    }
    return {fresh_request(rng_), true};
  }

 private:
  const std::vector<service::CountRequest>& templates_;
  gm::Rng rng_;
  std::vector<double> cdf_;
};

struct ClientLog {
  explicit ClientLog(std::uint64_t seed) : latency_ms(kLatencySamples, seed ^ 0x9E3779B97F4A7C15ULL) {}

  Reservoir latency_ms;
  double slice_ms = 0.0;  ///< latency total of the current slice
  std::int64_t slice_requests = 0;
  // Traced runs only, which do not report peak_rss_mb.
  std::vector<double> queue_wait_ms;
  std::vector<double> session_ms;
  std::vector<double> unattributed_ms;
  std::vector<service::CountRequest> fresh_samples;
  std::size_t queue_depth_max = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
};

class ServiceMixRun {
 public:
  explicit ServiceMixRun(const Options& options)
      : options_(options),
        events_(gm::data::uniform_database(core::Alphabet(kAlphabet),
                                           options.tiny ? 3'000 : 20'000, options.seed)),
        oracle_(events_) {
    gm::Rng rng(options.seed ^ 0x5E4F1CE5ULL);
    for (int k = 0; k < kTemplates; ++k) templates_.push_back(fresh_request(rng));
  }

  Outcome run() {
    setup();
    if (options_.trace) {
      const std::vector<ClientLog> plain = loop(options_.seconds / 3.0, false, 1);
      const service::ServiceStats stats_before = service_->stats();
      const service::CacheStats cache_before = service_->session().count_cache_stats();
      const auto begin = Clock::now();
      const std::vector<ClientLog> traced = loop(options_.seconds * 2.0 / 3.0, true, 2);
      const auto end = Clock::now();
      const service::ServiceStats stats = service_->stats();
      const service::CacheStats cache = service_->session().count_cache_stats();
      trace_.add("service.closed_loop", begin, end);

      const std::uint64_t lookups = (cache.hits - cache_before.hits) +
                                    (cache.misses - cache_before.misses);
      const std::uint64_t served = stats.served - stats_before.served;
      outcome_.set("service.cache_hit_ratio",
                   static_cast<double>(cache.hits - cache_before.hits) /
                       static_cast<double>(std::max<std::uint64_t>(1, lookups)));
      outcome_.set("service.batched_ratio",
                   static_cast<double>(stats.batched - stats_before.batched) /
                       static_cast<double>(std::max<std::uint64_t>(1, served)));
      outcome_.set("service.queue_ms", median(merged(traced, &ClientLog::queue_wait_ms)));
      outcome_.set("service.session_ms", median(merged(traced, &ClientLog::session_ms)));
      std::size_t depth = 0;
      for (const ClientLog& log : traced) depth = std::max(depth, log.queue_depth_max);
      outcome_.set("service.queue_depth_max", static_cast<double>(depth));
      outcome_.set("trace.unattributed_ms", median(merged(traced, &ClientLog::unattributed_ms)));
      outcome_.set("trace.overhead_ratio",
                   median(merged_latency(traced)) / median(merged_latency(plain)));
      outcome_.set("core.count_rate", count_rate(traced));
      service_->stop();
      trace_.write(output_path(options_, ".trace.json"));
    } else {
      const std::vector<ClientLog> logs = loop(options_.seconds, false, 1);
      report_latency(outcome_, ref_ms_, scan_ms_, merged_latency(logs), "sampled requests");
      outcome_.set("peak_rss_mb", peak_rss_mb());
      service_->stop();
    }
    return outcome_;
  }

 private:
  /// Session + service + one pass over the templates, which fills the cache
  /// with them.  setup_s is the median of several; the last one is kept.
  void setup() {
    std::vector<double> seconds;
    for (int i = 0; i < kSetups; ++i) {
      service_.reset();
      const auto start = Clock::now();
      auto session = std::make_shared<service::MiningSession>(
          gm::data::Dataset{core::Alphabet(kAlphabet), events_},
          service::SessionOptions{.backend = {.name = "cpu-single-scan", .threads = 1}});
      service_ = std::make_unique<service::MiningService>(
          session, service::ServiceOptions{.workers = kWorkers});
      for (const service::CountRequest& request : templates_) {
        const service::CountResponse response = service_->submit(request).get();
        if (!response.ok() || response.counts != oracle_.expected(request)) {
          throw std::runtime_error("template warm-up failed its oracle check");
        }
      }
      seconds.push_back(ms_since(start) / 1000.0);
    }
    outcome_.set("setup_s", median(seconds));
  }

  /// The closed loop for `seconds`, in slices of kSliceSeconds.  Each slice
  /// follows a reference scan run while the clients wait, and its mean
  /// request latency at reference speed is one latency_ref_ms sample.
  std::vector<ClientLog> loop(double seconds, bool traced, std::uint64_t phase) {
    std::vector<ClientLog> logs;
    std::vector<RequestStream> streams;
    for (int c = 0; c < kClients; ++c) {
      const std::uint64_t seed =
          options_.seed * 1000 + phase * 100 + static_cast<std::uint64_t>(c);
      logs.emplace_back(seed);
      streams.emplace_back(templates_, seed);
    }
    const auto client = [&](int c, Clock::time_point deadline) {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      RequestStream& stream = streams[static_cast<std::size_t>(c)];
      do {
        auto [request, fresh] = stream.next();
        const std::vector<std::int64_t> expected = oracle_.expected(request);
        if (traced && fresh && c == 0 && log.fresh_samples.size() < kRateSamples) {
          log.fresh_samples.push_back(request);
        }
        const auto start = Clock::now();
        std::future<service::CountResponse> future = service_->submit(std::move(request));
        if (traced) log.queue_depth_max = std::max(log.queue_depth_max, service_->queue_depth());
        const service::CountResponse response = future.get();
        const auto end = Clock::now();
        ++log.attempted;
        const double latency = ms_between(start, end);
        log.latency_ms.add(latency);
        log.slice_ms += latency;
        ++log.slice_requests;
        if (!response.ok()) {
          ++log.failed;
          continue;
        }
        if (response.counts != expected) {
          ++log.mismatches;
          ++log.failed;
        }
        if (traced) {
          trace_.add("service.count_request", start, end);
          log.queue_wait_ms.push_back(response.timing.queue_ms - response.timing.service_ms);
          log.session_ms.push_back(response.timing.service_ms);
          log.unattributed_ms.push_back(latency - response.timing.queue_ms);
        }
      } while (Clock::now() < deadline);
    };
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSliceSeconds));
    const auto begin = Clock::now();
    do {
      const double scan = scan_.run_ms();
      const auto deadline = Clock::now() + slice;
      {
        std::vector<std::jthread> others;
        for (int c = 1; c < kClients; ++c) others.emplace_back(client, c, deadline);
        client(0, deadline);
      }
      double total_ms = 0.0;
      std::int64_t requests = 0;
      for (ClientLog& log : logs) {
        total_ms += std::exchange(log.slice_ms, 0.0);
        requests += std::exchange(log.slice_requests, 0);
      }
      scan_ms_.push_back(scan);
      ref_ms_.push_back(at_reference_speed(total_ms / static_cast<double>(requests), scan));
    } while (ms_since(begin) < seconds * 1000.0);
    for (const ClientLog& log : logs) {
      outcome_.attempted += log.attempted;
      outcome_.failed += log.failed;
      outcome_.mismatches += log.mismatches;
    }
    return logs;
  }

  /// Events x episodes per second of counting, re-counting sampled fresh
  /// requests alone with the service's backend.
  double count_rate(const std::vector<ClientLog>& logs) const {
    const auto backend = service::make_backend({.name = "cpu-single-scan", .threads = 1});
    double work = 0.0;
    double ms = 0.0;
    for (const service::CountRequest& request : logs.front().fresh_samples) {
      core::CountRequest counting;
      counting.database = events_;
      counting.episodes = request.episodes;
      counting.expiry = request.expiry;
      const auto start = Clock::now();
      const core::CountResult result = backend->count(counting);
      ms += ms_since(start);
      work += static_cast<double>(events_.size()) * static_cast<double>(request.episodes.size());
      if (result.counts != oracle_.expected(request)) {
        throw std::runtime_error("count-rate replica disagrees with the oracle");
      }
    }
    return ms > 0.0 ? work / (ms / 1000.0) : 0.0;
  }

  static std::vector<double> merged(const std::vector<ClientLog>& logs,
                                    std::vector<double> ClientLog::*field) {
    std::vector<double> all;
    for (const ClientLog& log : logs) {
      all.insert(all.end(), (log.*field).begin(), (log.*field).end());
    }
    return all;
  }

  static std::vector<double> merged_latency(const std::vector<ClientLog>& logs) {
    std::vector<double> all;
    for (const ClientLog& log : logs) {
      const std::vector<double> kept = log.latency_ms.values();
      all.insert(all.end(), kept.begin(), kept.end());
    }
    return all;
  }

  const Options& options_;
  const core::Sequence events_;
  const Oracle oracle_;
  std::vector<service::CountRequest> templates_;
  std::unique_ptr<service::MiningService> service_;
  ReferenceScan scan_;
  std::vector<double> scan_ms_;  ///< one per slice
  std::vector<double> ref_ms_;   ///< likewise
  Outcome outcome_;
  Trace trace_;
};

}  // namespace

Outcome run_service_mix(const Options& options) { return ServiceMixRun(options).run(); }

}  // namespace pb
