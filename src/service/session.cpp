#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "core/scan_checkpoint.hpp"

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

/// Per-level budget enforcement + plan-note collection for one mining run.
/// Before each level is counted, the planner scores the level's actual
/// candidate set; once the accumulated prediction exceeds the budget the run
/// stops between levels, so every level that did run is complete and exact.
class BudgetObserver final : public core::LevelObserver {
 public:
  BudgetObserver(planner::Workload base, const planner::PlannerOptions& options,
                 double budget_ms)
      : base_(std::move(base)), options_(options), budget_ms_(budget_ms) {}

  bool on_level_start(int level, std::span<const core::Episode> candidates) override {
    base_.level = level;
    base_.episode_count = static_cast<std::int64_t>(candidates.size());
    std::string note = "level " + std::to_string(level) + ": " +
                       std::to_string(candidates.size()) + " candidates";
    double level_ms = 0.0;
    try {
      const planner::Plan plan = planner::plan_level(base_, options_);
      level_ms = plan.winner().predicted_ms;
      note += ", plan " + plan.winner().config.label() + ", predicted " + fmt_ms(level_ms) +
              " ms";
    } catch (const gm::Error&) {
      // No feasible formulation to predict with: count anyway (the backend
      // itself will surface a real capability failure).
      note += ", no feasible formulation to predict";
    }
    predicted_total_ms_ += level_ms;
    if (budget_ms_ > 0.0 && predicted_total_ms_ > budget_ms_) {
      stop_ = Rejection{
          ErrorCode::kAdmissionRejected,
          "admission control: planner predicts " + fmt_ms(predicted_total_ms_) +
              " ms through level " + std::to_string(level) + " (" +
              std::to_string(candidates.size()) + " candidates), over the " +
              fmt_ms(budget_ms_) + " ms latency budget"};
      notes_.push_back(note + " — stopped: over budget");
      return false;
    }
    notes_.push_back(std::move(note));
    return true;
  }

  void on_level_done(const core::LevelReport& report) override {
    notes_.back() += " -> " + std::to_string(report.frequent) + " frequent (counted in " +
                     fmt_ms(report.count_host_ms) + " ms)";
  }

  [[nodiscard]] double predicted_total_ms() const noexcept { return predicted_total_ms_; }
  [[nodiscard]] const Rejection& stop() const noexcept { return stop_; }
  [[nodiscard]] bool stopped() const noexcept { return stop_.code != ErrorCode::kUnknown; }
  [[nodiscard]] std::vector<std::string>&& take_notes() noexcept { return std::move(notes_); }

 private:
  planner::Workload base_;
  const planner::PlannerOptions& options_;
  double budget_ms_;
  double predicted_total_ms_ = 0.0;
  std::vector<std::string> notes_;
  Rejection stop_;
};

}  // namespace

MiningSession::MiningSession(data::Dataset dataset, SessionOptions options)
    : options_(std::move(options)),
      planner_options_(planner_options_for(options_.backend)),
      mine_cache_(options_.mine_cache_capacity),
      count_cache_(options_.count_cache_capacity),
      backend_(make_backend(options_.backend)) {
  load_locked(std::move(dataset));
}

void MiningSession::load_locked(data::Dataset dataset) {
  gm::expects(!dataset.events.empty(), "session database must be non-empty");
  // One pass validates, digests and counts into locals, so a rejected
  // dataset leaves the session untouched.
  Digest digest;
  digest.mix(static_cast<std::uint64_t>(dataset.alphabet.size()));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(dataset.alphabet.size()), 0);
  for (const core::Symbol s : dataset.events) {
    gm::expects(dataset.alphabet.contains(s), "session database symbol outside its alphabet");
    digest.mix(static_cast<std::uint64_t>(s));
    ++counts[s];
  }
  dataset_ = std::move(dataset);
  ++generation_;
  db_digest_state_ = digest;
  db_digest_ = digest.value();
  symbol_counts_ = std::move(counts);
  refresh_symbol_freq_locked();
  monitors_.clear();  // their scans describe the replaced stream
}

void MiningSession::refresh_symbol_freq_locked() {
  // Mirrors kernels::measured_symbol_freq bit-for-bit: counts accumulate as
  // integers (the double conversion is exact far past any real stream), so
  // the incremental path and a full re-measure agree exactly.
  const double denom = static_cast<double>(dataset_.events.size()) +
                       static_cast<double>(dataset_.alphabet.size());
  symbol_freq_.resize(symbol_counts_.size());
  for (std::size_t s = 0; s < symbol_counts_.size(); ++s) {
    symbol_freq_[s] = (static_cast<double>(symbol_counts_[s]) + 1.0) / denom;
  }
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
  for (const core::Symbol s : events) {
    db_digest_state_.mix(static_cast<std::uint64_t>(s));
    ++symbol_counts_[s];
  }
  db_digest_ = db_digest_state_.value();
  refresh_symbol_freq_locked();
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
  for (const StreamingMonitor& monitor : monitors_) {
    gm::expects(monitor.spec().name != spec.name,
                "a monitor with this name is already registered");
  }
  for (const core::Episode& episode : spec.episodes) {
    for (const core::Symbol s : episode.symbols()) {
      gm::expects(dataset_.alphabet.contains(s),
                  "monitor episode symbol outside the session alphabet");
    }
  }
  StreamingMonitor monitor(std::move(spec));
  std::vector<Alert> alerts;
  monitor.on_append(dataset_.events, generation_, alerts);
  monitors_.push_back(std::move(monitor));
  return alerts;
}

std::vector<Alert> MiningSession::restore_monitor(const MonitorSnapshot& snapshot) {
  std::unique_lock db_lock(db_mutex_);
  for (const StreamingMonitor& monitor : monitors_) {
    gm::expects(monitor.spec().name != snapshot.spec.name,
                "a monitor with this name is already registered");
  }
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
    snapshots.push_back({monitor.spec(), monitor.checkpoint(generation_)});
  }
  return snapshots;
}

std::vector<double> MiningSession::measured_frequencies() const {
  std::shared_lock db_lock(db_mutex_);
  return symbol_freq_;
}

planner::Workload MiningSession::level_workload(std::int64_t episode_count, int level,
                                                core::Semantics semantics,
                                                core::ExpiryPolicy expiry) const {
  planner::Workload w;
  w.db_size = static_cast<std::int64_t>(dataset_.events.size());
  w.episode_count = episode_count;
  w.level = level;
  w.alphabet_size = dataset_.alphabet.size();
  w.symbol_freq = symbol_freq_;
  w.semantics = semantics;
  w.expiry = expiry;
  return w;
}

std::uint64_t MiningSession::mine_key(const core::MinerConfig& config) const {
  return Digest()
      .mix(std::uint64_t{1})  // request-type tag
      .mix(generation_)
      .mix(db_digest_)
      .mix(static_cast<int>(config.semantics))
      .mix(config.expiry.window)
      .mix(config.support_threshold)
      .mix(config.max_level)
      .mix(config.apriori_prune)
      .mix(dataset_.alphabet.size())
      .value();
}

std::uint64_t MiningSession::count_key(const CountRequest& request) const {
  Digest digest;
  digest.mix(std::uint64_t{2})
      .mix(generation_)
      .mix(db_digest_)
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

  BudgetObserver observer(
      level_workload(dataset_.alphabet.size(), 1, request.config.semantics,
                     request.config.expiry),
      planner_options_, request.limits.latency_budget_ms);
  core::MiningResult result;
  try {
    result = core::mine_frequent_episodes(dataset_.events, dataset_.alphabet, backend,
                                          request.config, &observer);
  } catch (const gm::Error& e) {
    response.rejection = {e.code(), e.what()};
    response.plan_notes = observer.take_notes();
    response.timing.predicted_ms = observer.predicted_total_ms();
    response.timing.service_ms = elapsed_ms(start);
    return response;
  }

  response.plan_notes = observer.take_notes();
  response.timing.predicted_ms = observer.predicted_total_ms();
  if (result.truncated) {
    response.rejection = observer.stop();
    if (result.levels.empty()) {
      // Budget blown at level 1: nothing ran, a pure admission rejection.
      response.timing.service_ms = elapsed_ms(start);
      return response;
    }
    response.disposition = Disposition::kTruncated;
    response.result = std::move(result);
    response.timing.service_ms = elapsed_ms(start);
    return response;
  }

  response.disposition = Disposition::kServed;
  response.result = std::move(result);
  {
    std::lock_guard cache_lock(cache_mutex_);
    mine_cache_.put(response.cache_key, CachedMine{response.result, response.plan_notes,
                                                  response.timing.predicted_ms});
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

  // Per-request validation, cache lookup and admission; survivors join their
  // batch group (same level/semantics/expiry) for a shared backend call.
  struct Group {
    core::Semantics semantics;
    core::ExpiryPolicy expiry;
    std::vector<std::size_t> members;  ///< request indices
  };
  std::vector<std::pair<std::uint64_t, Group>> groups;

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

    try {
      const planner::Plan plan = planner::plan_level(
          level_workload(static_cast<std::int64_t>(request.episodes.size()), level,
                         request.semantics, request.expiry),
          planner_options_);
      response.timing.predicted_ms = plan.winner().predicted_ms;
    } catch (const gm::Error&) {
      // No feasible formulation to predict with; admission passes and the
      // backend call below decides.
    }
    if (request.limits.latency_budget_ms > 0.0 &&
        response.timing.predicted_ms > request.limits.latency_budget_ms) {
      response.rejection = {ErrorCode::kAdmissionRejected,
                            "admission control: planner predicts " +
                                fmt_ms(response.timing.predicted_ms) + " ms for " +
                                std::to_string(request.episodes.size()) +
                                " level-" + std::to_string(level) + " episodes, over the " +
                                fmt_ms(request.limits.latency_budget_ms) +
                                " ms latency budget"};
      response.timing.service_ms = elapsed_ms(start);
      continue;
    }

    const std::uint64_t key = batch_key(request);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [key](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.push_back({key, Group{request.semantics, request.expiry, {}}});
      it = groups.end() - 1;
    }
    it->second.members.push_back(i);
  }

  for (auto& [key, group] : groups) {
    const auto group_start = Clock::now();
    std::vector<core::Episode> combined;
    for (const std::size_t i : group.members) {
      combined.insert(combined.end(), requests[i].episodes.begin(),
                      requests[i].episodes.end());
    }

    core::CountRequest core_request;
    core_request.database = dataset_.events;
    core_request.episodes = combined;
    core_request.semantics = group.semantics;
    core_request.expiry = group.expiry;

    core::CountResult counted;
    try {
      counted = backend.count(core_request);
    } catch (const gm::Error& e) {
      for (const std::size_t i : group.members) {
        responses[i].rejection = {e.code(), e.what()};
        responses[i].timing.service_ms = elapsed_ms(group_start);
      }
      continue;
    }

    std::size_t offset = 0;
    for (const std::size_t i : group.members) {
      CountResponse& response = responses[i];
      const std::size_t n = requests[i].episodes.size();
      response.disposition = Disposition::kServed;
      response.counts.assign(counted.counts.begin() + static_cast<std::ptrdiff_t>(offset),
                             counted.counts.begin() + static_cast<std::ptrdiff_t>(offset + n));
      response.batched_with = static_cast<int>(group.members.size()) - 1;
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
