#include "service/session.hpp"

#include <chrono>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "core/scan_checkpoint.hpp"
#include "planner/auto_backend.hpp"

namespace gm::service {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

std::string fmt_ms(double ms) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << ms;
  return os.str();
}

/// "plan <label>, predicted <ms> ms <clock>", or "not priced (<reason>)".
/// gpusim and distrib-gpu picks predict simulated time, the others host time.
std::string price_note(const planner::ScoredCandidate& price) {
  if (!price.feasible) return "not priced (" + price.reason + ")";
  return "plan " + price.config.label() + ", predicted " + fmt_ms(price.predicted_ms) + " ms " +
         (price.config.simulated() ? "simulated" : "host");
}

/// Per-level budget enforcement + plan-note collection for one mining run:
/// each level is priced before it is counted, and once the accumulated price
/// exceeds the budget the run stops between levels, so every level that did
/// run is complete and exact.
struct BudgetObserver final : core::LevelObserver {
  bool on_level_start(int level, const core::CountRequest& request) override {
    const planner::ScoredCandidate priced = price(request);
    std::string note = "level " + std::to_string(level) + ": " +
                       std::to_string(request.episodes.size()) + " candidates, " +
                       price_note(priced);
    predicted_total_ms += priced.feasible ? priced.predicted_ms : 0.0;
    if (budget_ms > 0.0 && predicted_total_ms > budget_ms) {
      stop = {ErrorCode::kAdmissionRejected,
              "admission control: " + note + "; " + fmt_ms(predicted_total_ms) +
                  " ms through this level, over the " + fmt_ms(budget_ms) +
                  " ms latency budget"};
      notes.push_back(note + " — stopped: over budget");
      return false;
    }
    notes.push_back(std::move(note));
    return true;
  }

  void on_level_done(const core::LevelReport& report) override {
    notes.back() += " -> " + std::to_string(report.frequent) + " frequent (";
    if (report.simulated_kernel_ms > 0.0) {
      notes.back() += "simulated kernel " + fmt_ms(report.simulated_kernel_ms) + " ms, ";
    }
    notes.back() += "counted in " + fmt_ms(report.count_host_ms) + " ms host)";
  }

  std::function<planner::ScoredCandidate(const core::CountRequest&)> price;
  double budget_ms = 0.0;
  double predicted_total_ms = 0.0;
  std::vector<std::string> notes;
  Rejection stop;
};

/// What register_monitor and restore_monitor both require before the session
/// changes: a name no registered monitor has, at least one episode, every
/// symbol inside the session alphabet, and a threshold of at least 1.
void check_monitor_spec(const MonitorSpec& spec, const core::Alphabet& alphabet,
                        std::span<const StreamingMonitor> registered) {
  for (const StreamingMonitor& monitor : registered) {
    gm::expects(monitor.spec().name != spec.name,
                "a monitor with this name is already registered");
  }
  gm::expects(!spec.episodes.empty(), "monitor must watch at least one episode");
  for (const core::Episode& episode : spec.episodes) {
    for (const core::Symbol s : episode.symbols()) {
      gm::expects(alphabet.contains(s), "monitor episode symbol outside the session alphabet");
    }
  }
  gm::expects(spec.threshold >= 1, "monitor threshold must be at least 1");
}

}  // namespace

MiningSession::MiningSession(data::Dataset dataset, SessionOptions options)
    : options_(std::move(options)),
      planner_options_(planner_options_for(options_.backend)),
      mine_cache_(options_.mine_cache_capacity),
      count_cache_(options_.count_cache_capacity),
      backend_(make_backend(options_.backend)) {
  if (options_.backend.name != "auto") {
    fixed_ = candidate_for(options_.backend);
    fixed_name_ = backend_->name();
  }
  load_locked(std::move(dataset));
}

void MiningSession::load_locked(data::Dataset dataset) {
  gm::expects(!dataset.events.empty(), "session database must be non-empty");
  // One pass validates, digests and counts into locals, so a rejected
  // dataset leaves the session untouched.
  std::uint64_t digest = core::stream_digest_seed();
  std::vector<std::int64_t> counts(static_cast<std::size_t>(dataset.alphabet.size()), 0);
  for (const core::Symbol s : dataset.events) {
    gm::expects(dataset.alphabet.contains(s), "session database symbol outside its alphabet");
    digest = core::stream_digest_step(digest, s);
    ++counts[s];
  }
  dataset_ = std::move(dataset);
  ++generation_;
  stream_digest_ = digest;
  symbol_counts_ = std::move(counts);
  monitors_.clear();  // their scans describe the replaced stream
}

void MiningSession::reload(data::Dataset dataset) {
  std::unique_lock db_lock(db_mutex_);
  load_locked(std::move(dataset));
  std::lock_guard cache_lock(cache_mutex_);
  mine_cache_.clear();
  count_cache_.clear();
  mine_cache_.set_generation(generation_);
  count_cache_.set_generation(generation_);
}

MiningSession::AppendOutcome MiningSession::append_events(std::span<const core::Symbol> events) {
  gm::expects(!events.empty(), "append batch must carry at least one event");
  std::unique_lock db_lock(db_mutex_);
  for (const core::Symbol s : events) {
    gm::expects(dataset_.alphabet.contains(s), "append symbol outside the session alphabet");
  }
  dataset_.events.insert(dataset_.events.end(), events.begin(), events.end());
  ++generation_;
  std::uint64_t digest = stream_digest_;  // a local: the count stores may alias a member
  for (const core::Symbol s : events) {
    digest = core::stream_digest_step(digest, s);
    ++symbol_counts_[s];
  }
  stream_digest_ = digest;
  // Deliberately no cache clear: the new generation is mixed into every
  // future cache key, so stale entries can never hit again — they simply age
  // out of the LRU.  Telling the caches the new generation lets them book
  // those exits as stale_evictions instead of capacity pressure.
  {
    std::lock_guard cache_lock(cache_mutex_);
    mine_cache_.set_generation(generation_);
    count_cache_.set_generation(generation_);
  }
  AppendOutcome outcome;
  outcome.generation = generation_;
  outcome.database_size = static_cast<std::int64_t>(dataset_.events.size());
  for (StreamingMonitor& monitor : monitors_) {
    monitor.on_append(events, generation_, outcome.alerts);
  }
  return outcome;
}

std::vector<Alert> MiningSession::register_monitor(MonitorSpec spec) {
  std::unique_lock db_lock(db_mutex_);
  check_monitor_spec(spec, dataset_.alphabet, monitors_);
  StreamingMonitor monitor(std::move(spec));
  std::vector<Alert> alerts;
  monitor.on_append(dataset_.events, generation_, alerts);
  monitors_.push_back(std::move(monitor));
  return alerts;
}

std::vector<Alert> MiningSession::restore_monitor(const MonitorSnapshot& snapshot) {
  std::unique_lock db_lock(db_mutex_);
  check_monitor_spec(snapshot.spec, dataset_.alphabet, monitors_);
  const auto db_size = static_cast<std::int64_t>(dataset_.events.size());
  gm::expects(snapshot.checkpoint.high_water <= db_size,
              "monitor checkpoint is ahead of the loaded database");
  const std::span<const core::Symbol> prefix(
      dataset_.events.data(), static_cast<std::size_t>(snapshot.checkpoint.high_water));
  gm::expects(core::stream_digest_extend(core::stream_digest_seed(), prefix) ==
                  snapshot.checkpoint.prefix_digest,
              "monitor checkpoint does not match the loaded database prefix");
  StreamingMonitor monitor(snapshot.spec, snapshot.checkpoint);
  std::vector<Alert> alerts;
  const std::span<const core::Symbol> tail(
      dataset_.events.data() + snapshot.checkpoint.high_water,
      static_cast<std::size_t>(db_size - snapshot.checkpoint.high_water));
  if (!tail.empty()) monitor.on_append(tail, generation_, alerts);
  monitors_.push_back(std::move(monitor));
  return alerts;
}

std::vector<std::int64_t> MiningSession::monitor_counts(std::string_view name) const {
  std::shared_lock db_lock(db_mutex_);
  for (const StreamingMonitor& monitor : monitors_) {
    if (monitor.spec().name == name) return monitor.counts();
  }
  gm::raise_precondition("no monitor registered under '" + std::string(name) + "'");
}

std::vector<MonitorSnapshot> MiningSession::monitor_snapshots() const {
  std::shared_lock db_lock(db_mutex_);
  std::vector<MonitorSnapshot> snapshots;
  snapshots.reserve(monitors_.size());
  for (const StreamingMonitor& monitor : monitors_) {
    // Registration and restore feed a monitor to the stream's end, and every
    // append feeds every monitor, so each one's prefix is the whole stream.
    gm::expects(monitor.high_water() == static_cast<std::int64_t>(dataset_.events.size()),
                "monitor scan stopped short of the session stream");
    snapshots.push_back({monitor.spec(), monitor.checkpoint(generation_)});
    snapshots.back().checkpoint.prefix_digest = stream_digest_;
  }
  return snapshots;
}

std::vector<double> MiningSession::measured_frequencies() const {
  std::shared_lock db_lock(db_mutex_);
  // kernels::measured_symbol_freq's formula on integer counts (exact in a
  // double far past any real stream), so it agrees bit for bit.
  const double denom = static_cast<double>(dataset_.events.size()) +
                       static_cast<double>(dataset_.alphabet.size());
  std::vector<double> freq(symbol_counts_.size());
  for (std::size_t s = 0; s < symbol_counts_.size(); ++s) {
    freq[s] = (static_cast<double>(symbol_counts_[s]) + 1.0) / denom;
  }
  return freq;
}

planner::ScoredCandidate MiningSession::price(const core::CountRequest& request,
                                              core::CountingBackend& backend) const {
  planner::ScoredCandidate unpriced;
  try {
    if (auto* adaptive = dynamic_cast<planner::AutoBackend*>(&backend)) {
      return adaptive->plan(request).winner();
    }
    if (fixed_ && backend.name() == fixed_name_) {
      return planner::price_candidate(
          planner::workload_of(request, dataset_.alphabet.size()), *fixed_, planner_options_);
    }
    unpriced.reason = "backend '" + backend.name() + "' is neither auto nor the session's";
  } catch (const gm::Error& e) {
    unpriced.reason = e.what();  // the backend's count() reports any real failure
  }
  return unpriced;
}

std::uint64_t MiningSession::mine_key(const core::MinerConfig& config) const {
  return Digest()
      .mix(std::uint64_t{1})  // request-type tag
      .mix(generation_)
      .mix(stream_digest_)
      .mix(dataset_.alphabet.size())
      .mix(static_cast<int>(config.semantics))
      .mix(config.expiry.window)
      .mix(config.support_threshold)
      .mix(config.max_level)
      .mix(config.apriori_prune)
      .value();
}

std::uint64_t MiningSession::count_key(const CountRequest& request) const {
  Digest digest;
  digest.mix(std::uint64_t{2})
      .mix(generation_)
      .mix(stream_digest_)
      .mix(dataset_.alphabet.size())
      .mix(static_cast<int>(request.semantics))
      .mix(request.expiry.window)
      .mix(static_cast<std::int64_t>(request.episodes.size()));
  digest.mix_range(request.episodes);
  return digest.value();
}

std::uint64_t MiningSession::batch_key(const CountRequest& request) {
  const int level = request.episodes.empty() ? 0 : request.episodes.front().level();
  return Digest()
      .mix(level)
      .mix(static_cast<int>(request.semantics))
      .mix(request.expiry.window)
      .value();
}

std::unique_ptr<core::CountingBackend> MiningSession::new_backend() const {
  return make_backend(options_.backend);
}

MineResponse MiningSession::mine(const MineRequest& request) {
  std::lock_guard lock(backend_mutex_);
  return mine_with(request, *backend_);
}

CountResponse MiningSession::count(const CountRequest& request) {
  std::lock_guard lock(backend_mutex_);
  return count_with(request, *backend_);
}

MineResponse MiningSession::mine_with(const MineRequest& request,
                                      core::CountingBackend& backend) {
  const auto start = Clock::now();
  MineResponse response;

  std::shared_lock db_lock(db_mutex_);
  response.database_generation = generation_;

  try {
    core::validate_miner_config(request.config);
  } catch (const gm::Error& e) {
    response.rejection = {e.code(), e.what()};
    response.timing.service_ms = elapsed_ms(start);
    return response;
  }
  response.cache_key = mine_key(request.config);

  {
    std::lock_guard cache_lock(cache_mutex_);
    if (auto cached = mine_cache_.get(response.cache_key)) {
      response.disposition = Disposition::kCached;
      response.result = std::move(cached->result);
      response.plan_notes = std::move(cached->plan_notes);
      response.timing.predicted_ms = cached->predicted_ms;
      response.timing.service_ms = elapsed_ms(start);
      return response;
    }
  }

  BudgetObserver observer;
  observer.price = [&](const core::CountRequest& level) { return price(level, backend); };
  observer.budget_ms = request.limits.latency_budget_ms;
  core::MiningResult result;
  try {
    result = core::mine_frequent_episodes(dataset_.events, dataset_.alphabet, backend,
                                          request.config, &observer);
    if (result.truncated) response.rejection = observer.stop;
  } catch (const gm::Error& e) {
    response.rejection = {e.code(), e.what()};
  }
  response.plan_notes = std::move(observer.notes);
  response.timing.predicted_ms = observer.predicted_total_ms;
  if (response.rejection.code == ErrorCode::kUnknown) {
    response.disposition = Disposition::kServed;
    response.result = std::move(result);
    std::lock_guard cache_lock(cache_mutex_);
    mine_cache_.put(response.cache_key, CachedMine{response.result, response.plan_notes,
                                                  response.timing.predicted_ms});
  } else if (!result.levels.empty()) {
    // Stopped between levels; a budget blown at level 1 ran nothing and
    // stays a pure admission rejection.
    response.disposition = Disposition::kTruncated;
    response.result = std::move(result);
  }
  response.timing.service_ms = elapsed_ms(start);
  return response;
}

CountResponse MiningSession::count_with(const CountRequest& request,
                                        core::CountingBackend& backend) {
  return count_batch_with({&request, 1}, backend).front();
}

std::vector<CountResponse> MiningSession::count_batch_with(
    std::span<const CountRequest> requests, core::CountingBackend& backend) {
  const auto start = Clock::now();
  std::vector<CountResponse> responses(requests.size());

  std::shared_lock db_lock(db_mutex_);
  const auto core_request = [&](const CountRequest& r) {
    return core::CountRequest{dataset_.events, r.episodes, r.semantics, r.expiry};
  };

  // Per-request validation, cache lookup and admission; survivors join their
  // batch group (same level/semantics/expiry): request indices by batch key.
  std::map<std::uint64_t, std::vector<std::size_t>> groups;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CountRequest& request = requests[i];
    CountResponse& response = responses[i];
    response.database_generation = generation_;

    if (request.episodes.empty()) {
      response.rejection = {ErrorCode::kInvalidConfig, "count request carries no episodes"};
      continue;
    }
    const int level = requests[i].episodes.front().level();
    bool valid = level >= 1;
    for (const core::Episode& episode : request.episodes) {
      valid = valid && episode.level() == level;
      for (const core::Symbol s : episode.symbols()) {
        valid = valid && dataset_.alphabet.contains(s);
      }
    }
    if (!valid) {
      response.rejection = {ErrorCode::kInvalidConfig,
                            "count request episodes must all share one level >= 1 and use "
                            "only symbols inside the session alphabet (" +
                                std::to_string(dataset_.alphabet.size()) + " symbols)"};
      continue;
    }
    if (const int cap = backend.max_level(); cap > 0 && level > cap) {
      response.rejection = {ErrorCode::kCapability,
                            "backend '" + backend.name() + "' counts episodes only up to level " +
                                std::to_string(cap) + ", request is level " +
                                std::to_string(level)};
      continue;
    }

    response.cache_key = count_key(request);
    {
      std::lock_guard cache_lock(cache_mutex_);
      if (auto cached = count_cache_.get(response.cache_key)) {
        response.disposition = Disposition::kCached;
        response.counts = std::move(cached->counts);
        response.timing.predicted_ms = cached->predicted_ms;
        response.timing.service_ms = elapsed_ms(start);
        continue;
      }
    }

    const planner::ScoredCandidate priced = price(core_request(request), backend);
    if (priced.feasible) response.timing.predicted_ms = priced.predicted_ms;
    if (request.limits.latency_budget_ms > 0.0 &&
        response.timing.predicted_ms > request.limits.latency_budget_ms) {
      response.rejection = {ErrorCode::kAdmissionRejected,
                            "admission control: " + price_note(priced) + " for " +
                                std::to_string(request.episodes.size()) + " level-" +
                                std::to_string(level) + " episodes, over the " +
                                fmt_ms(request.limits.latency_budget_ms) +
                                " ms latency budget"};
      response.timing.service_ms = elapsed_ms(start);
      continue;
    }

    groups[batch_key(request)].push_back(i);
  }

  for (const auto& [key, members] : groups) {
    const auto group_start = Clock::now();
    // A request counted alone is counted as the very request admission
    // priced, so an AutoBackend runs the plan it priced with.
    core::CountRequest counting = core_request(requests[members.front()]);
    std::vector<core::Episode> combined;
    if (members.size() > 1) {
      for (const std::size_t i : members) {
        combined.insert(combined.end(), requests[i].episodes.begin(),
                        requests[i].episodes.end());
      }
      counting.episodes = combined;
    }

    core::CountResult counted;
    try {
      counted = backend.count(counting);
    } catch (const gm::Error& e) {
      for (const std::size_t i : members) {
        responses[i].rejection = {e.code(), e.what()};
        responses[i].timing.service_ms = elapsed_ms(group_start);
      }
      continue;
    }

    std::size_t offset = 0;
    for (const std::size_t i : members) {
      CountResponse& response = responses[i];
      const std::size_t n = requests[i].episodes.size();
      response.disposition = Disposition::kServed;
      response.counts.assign(counted.counts.begin() + static_cast<std::ptrdiff_t>(offset),
                             counted.counts.begin() + static_cast<std::ptrdiff_t>(offset + n));
      response.batched_with = static_cast<int>(members.size()) - 1;
      response.timing.service_ms = elapsed_ms(group_start);
      offset += n;
      std::lock_guard cache_lock(cache_mutex_);
      count_cache_.put(response.cache_key,
                       CachedCount{response.counts, response.timing.predicted_ms});
    }
  }

  return responses;
}

std::uint64_t MiningSession::generation() const {
  std::shared_lock lock(db_mutex_);
  return generation_;
}

std::int64_t MiningSession::database_size() const {
  std::shared_lock lock(db_mutex_);
  return static_cast<std::int64_t>(dataset_.events.size());
}

int MiningSession::alphabet_size() const {
  std::shared_lock lock(db_mutex_);
  return dataset_.alphabet.size();
}

CacheStats MiningSession::mine_cache_stats() const {
  std::lock_guard lock(cache_mutex_);
  return mine_cache_.stats();
}

CacheStats MiningSession::count_cache_stats() const {
  std::lock_guard lock(cache_mutex_);
  return count_cache_.stats();
}

}  // namespace gm::service
