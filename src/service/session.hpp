// MiningSession: the long-lived object behind the service API.
//
// A session owns one loaded database (data::Dataset: events + Alphabet), the
// planner options a BackendSpec implies (including a fitted
// CalibrationProfile when configured), a default counting backend, and the
// result caches.  It serves MineRequest/CountRequest synchronously:
//
//   validate -> cache lookup -> admission -> count -> cache
//
// Admission prices a counting request on the backend that counts it: an
// AutoBackend's plan, which its count() then runs (each level is planned
// once), or price_candidate on a fixed spec's candidate_for() config; any
// other backend goes unpriced.  A request priced over its latency budget is
// rejected before any counting runs (ErrorCode::kAdmissionRejected), and a
// mine whose later levels blow the budget stops between levels, marked
// kTruncated.  Failures never escape as exceptions — they come back as
// structured Rejections.
//
// Concurrency: any number of threads may call mine/count concurrently.  A
// shared mutex guards the database (reload() takes it exclusively, so a
// reload waits for in-flight requests and atomically invalidates both
// caches); a plain mutex guards the caches; the built-in default backend is
// serialized by its own mutex.  Workers that want real parallelism call the
// *_with variants with a backend of their own (new_backend()), as
// MiningService does.
//
// Streaming: append_events() extends the database in place — generation
// bumps, the stream digest and symbol counts update incrementally, and
// registered StreamingMonitors advance by exactly the new events.  The
// session hashes each event once, in the loop that counts it: that one
// FNV-1a stream digest (core::stream_digest_step) keys the result caches and
// is stamped on every monitor checkpoint it hands out, so monitors spend
// their feed on counting alone.  Unlike reload(), an append does NOT clear
// the result caches: cache keys mix the generation, so entries for earlier
// generations can never be returned for a new request, yet a client that
// pinned an old response's cache key still observes it until LRU age-out.
// Monitors persist across restarts via monitor_snapshots()/restore_monitor()
// (service/checkpoint_store serializes them as gm-checkpoint/1 JSON).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/counting.hpp"
#include "data/dataset_io.hpp"
#include "planner/planner.hpp"
#include "service/api.hpp"
#include "service/backend_factory.hpp"
#include "service/checkpoint_store.hpp"
#include "service/result_cache.hpp"
#include "service/streaming_monitor.hpp"

namespace gm::service {

struct SessionOptions {
  /// Backend the session constructs for its own use and for new_backend().
  /// "auto" (the default) re-plans the formulation at every counting level.
  BackendSpec backend = {.name = "auto"};
  std::size_t mine_cache_capacity = 128;
  std::size_t count_cache_capacity = 512;
};

class MiningSession {
 public:
  /// Loads `dataset` as generation 1.  Throws gm::Error on an empty dataset
  /// or an unknown backend spec — construction failures are the caller's
  /// configuration bugs, not request-time rejections.
  explicit MiningSession(data::Dataset dataset, SessionOptions options = {});

  MiningSession(const MiningSession&) = delete;
  MiningSession& operator=(const MiningSession&) = delete;

  /// Swap in a new database: bumps the generation, re-counts the symbols,
  /// and invalidates both result caches.  Waits for in-flight requests to
  /// drain.  Registered monitors are dropped: their scans describe a stream
  /// that no longer exists.
  void reload(data::Dataset dataset);

  /// What one append did: the generation it created, the stream size after
  /// it, and every monitor alert the batch fired.
  struct AppendOutcome {
    std::uint64_t generation = 0;
    std::int64_t database_size = 0;
    std::vector<Alert> alerts;
  };

  /// Extend the database with a batch of new events (all inside the session
  /// alphabet).  Bumps the generation and incrementally updates the stream
  /// digest and symbol counts; still-cached results from earlier generations
  /// stay resident (their keys can no longer be produced) instead of being
  /// invalidated wholesale like reload() does.
  /// Every registered monitor advances over exactly this batch.
  AppendOutcome append_events(std::span<const core::Symbol> events);

  /// Register a streaming monitor.  Its scan consumes the current database
  /// immediately, so counts always cover the whole stream; episodes already
  /// at threshold fire their alerts in the returned list.  The spec needs a
  /// name unique within the session, at least one episode, only symbols
  /// inside the session alphabet and a threshold of at least 1; anything
  /// else throws gm::Error and leaves the session unchanged.
  std::vector<Alert> register_monitor(MonitorSpec spec);

  /// Resume a persisted monitor: refuses every spec register_monitor
  /// refuses, recomputes the digest of the checkpoint's stream prefix and
  /// refuses a mismatch (gm::Error, session unchanged), then scans only the
  /// events appended since the capture.  Alerts the catch-up fires are
  /// returned; episodes already at threshold at capture stay quiet.
  std::vector<Alert> restore_monitor(const MonitorSnapshot& snapshot);

  /// Current counts of a registered monitor (throws on unknown name).
  [[nodiscard]] std::vector<std::int64_t> monitor_counts(std::string_view name) const;

  /// Every registered monitor, captured for persistence.  Each embedded
  /// checkpoint covers the whole stream and carries the current generation
  /// and the session's stream digest as its prefix digest.
  [[nodiscard]] std::vector<MonitorSnapshot> monitor_snapshots() const;

  /// The smoothed symbol distribution of the loaded stream, computed from
  /// the per-symbol counts appends maintain (bit-identical to
  /// kernels::measured_symbol_freq over the full stream).
  [[nodiscard]] std::vector<double> measured_frequencies() const;

  /// Serve one request with the session's own backend (serialized).
  [[nodiscard]] MineResponse mine(const MineRequest& request);
  [[nodiscard]] CountResponse count(const CountRequest& request);

  /// Serve with a caller-owned backend (one per worker thread for real
  /// concurrency).  The backend must have been built for this session's
  /// database shape — new_backend() is the supported way to get one.
  [[nodiscard]] MineResponse mine_with(const MineRequest& request,
                                       core::CountingBackend& backend);
  [[nodiscard]] CountResponse count_with(const CountRequest& request,
                                         core::CountingBackend& backend);

  /// Serve several compatible count requests (same level, semantics and
  /// expiry — see batch_key) with one backend call: episodes are
  /// concatenated, counted together, and the counts split back per request.
  /// Requests that hit the cache or fail admission are handled individually;
  /// responses line up with `requests` by index.
  [[nodiscard]] std::vector<CountResponse> count_batch_with(
      std::span<const CountRequest> requests, core::CountingBackend& backend);

  /// A fresh backend per the session's spec, for worker threads.
  [[nodiscard]] std::unique_ptr<core::CountingBackend> new_backend() const;

  /// Two count requests may share a backend call iff their batch keys match
  /// (episode level, semantics, expiry window).
  [[nodiscard]] static std::uint64_t batch_key(const CountRequest& request);

  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::int64_t database_size() const;
  [[nodiscard]] int alphabet_size() const;
  [[nodiscard]] CacheStats mine_cache_stats() const;
  [[nodiscard]] CacheStats count_cache_stats() const;
  [[nodiscard]] const SessionOptions& options() const noexcept { return options_; }

 private:
  struct CachedMine {
    core::MiningResult result;
    std::vector<std::string> plan_notes;
    double predicted_ms = 0.0;
  };
  struct CachedCount {
    std::vector<std::int64_t> counts;
    double predicted_ms = 0.0;
  };

  void load_locked(data::Dataset dataset);

  /// Counting `request` on `backend`, priced: an AutoBackend's plan, else
  /// price_candidate on fixed_ if `backend` is named fixed_name_, else
  /// unpriced (feasible = false, with a reason).  Caller holds the db lock.
  [[nodiscard]] planner::ScoredCandidate price(const core::CountRequest& request,
                                               core::CountingBackend& backend) const;

  [[nodiscard]] std::uint64_t mine_key(const core::MinerConfig& config) const;
  [[nodiscard]] std::uint64_t count_key(const CountRequest& request) const;

  SessionOptions options_;
  planner::PlannerOptions planner_options_;
  std::optional<planner::CandidateConfig> fixed_;  ///< the spec's formulation, unless "auto"
  std::string fixed_name_;                         ///< name() of the backend fixed_ builds

  mutable std::shared_mutex db_mutex_;
  data::Dataset dataset_;
  std::uint64_t generation_ = 0;
  /// FNV-1a over the whole stream (core::stream_digest_step), extended by
  /// appends: cache keys mix it, and every monitor snapshot carries it.
  std::uint64_t stream_digest_ = 0;
  std::vector<std::int64_t> symbol_counts_;  ///< raw occurrence counts per symbol
  std::vector<StreamingMonitor> monitors_;

  mutable std::mutex cache_mutex_;
  ResultCache<CachedMine> mine_cache_;
  ResultCache<CachedCount> count_cache_;

  std::mutex backend_mutex_;
  std::unique_ptr<core::CountingBackend> backend_;
};

}  // namespace gm::service
