#include "planner/cpu_cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "kernels/workload_model.hpp"

namespace gm::planner {
namespace {

constexpr double kNsToMs = 1e-6;
constexpr double kUsToMs = 1e-3;

double checked_shape(const Workload& w) {
  gm::expects(w.db_size > 0, "cpu cost model needs a non-empty database");
  gm::expects(w.episode_count > 0, "cpu cost model needs at least one episode");
  gm::expects(w.level >= 1, "cpu cost model needs a positive level");
  return static_cast<double>(w.db_size) * static_cast<double>(w.episode_count);
}

/// Skew-aware per-position drain probability of one waiting automaton —
/// shared with the Algorithm-5 device model so host and device predictions
/// agree on what a Zipfian stream does to bucket occupancy.
double drain_rate(const Workload& w) {
  if (w.symbol_freq.empty()) return 1.0 / static_cast<double>(w.alphabet_size);
  return kernels::bucket_drain_rate(w.symbol_freq, w.level);
}

double spawn_ms(int workers, const CpuCostConstants& c) {
  return workers > 1 ? static_cast<double>(workers) * c.thread_spawn_us * kUsToMs : 0.0;
}

/// Expected fold fix-up of a `chunks`-way stream split: the twin replay per
/// (episode, interior boundary), bounded by the expiry window or the typical
/// automaton reset distance.
double fold_rescan_ms(const Workload& w, int chunks, const CpuCostConstants& c) {
  gm::expects(chunks >= 1, "cpu cost model needs a positive chunk count");
  // Under expiry the twin replay converges within the window (a live match
  // older than the window resets); without it, within roughly one automaton
  // reset distance (level * alphabet symbols between drains).  Both are
  // capped by the chunk itself.
  const double chunk_symbols =
      static_cast<double>(w.db_size) / static_cast<double>(chunks);
  const double reset_distance = w.expiry.enabled()
                                    ? static_cast<double>(w.expiry.window)
                                    : static_cast<double>(w.level) *
                                          static_cast<double>(w.alphabet_size);
  return static_cast<double>(w.episode_count) * static_cast<double>(chunks - 1) *
         std::min(reset_distance, chunk_symbols) * c.distrib_rescan_ns * kNsToMs;
}

}  // namespace

double predict_cpu_serial_ms(const Workload& w, const CpuCostConstants& c) {
  const double steps = checked_shape(w);
  // Expiry costs twice per scanned symbol (window tracking) plus deadline
  // bookkeeping per match start — except at level 1, where a single-symbol
  // occurrence can never expire mid-match (the same L > 1 guard the
  // Algorithm-5 device model applies to its heap term).
  const double step_ns = w.expiry.enabled() ? c.serial_expiry_step_ns : c.serial_step_ns;
  double ms = steps * step_ns * kNsToMs;
  if (w.expiry.enabled() && w.level > 1) {
    ms += steps * drain_rate(w) / static_cast<double>(w.level) * c.expiry_heap_ns * kNsToMs;
  }
  return ms;
}

double predict_cpu_parallel_ms(const Workload& w, int threads, const CpuCostConstants& c) {
  gm::expects(threads >= 1, "cpu cost model needs a positive thread count");
  const int chunks = threads * core::kChunksPerShard;
  // Map: the workers cold-scan equal chunks claimed on demand, so the
  // single-scan work divides evenly.
  const double map_ms = predict_cpu_single_scan_ms(w, c) / static_cast<double>(threads);
  // Reduce: one fold step per (episode, chunk) plus the expected boundary
  // rescans, split across the workers by episode.
  const double fold_ms = (static_cast<double>(w.episode_count) *
                              static_cast<double>(chunks) * c.distrib_merge_ns * kNsToMs +
                          fold_rescan_ms(w, chunks, c)) /
                         static_cast<double>(std::min<std::int64_t>(threads, w.episode_count));
  const double claim_ms = static_cast<double>(chunks) * c.distrib_steal_ns * kNsToMs;
  return map_ms + fold_ms + claim_ms + spawn_ms(threads, c);
}

double predict_cpu_single_scan_ms(const Workload& w, const CpuCostConstants& c) {
  const double steps = checked_shape(w);
  const double db = static_cast<double>(w.db_size);
  if (w.semantics == core::Semantics::kContiguousRestart) {
    // Dense fallback: mismatch edges mean every symbol can advance any
    // automaton, so the bucket index cannot skip work.
    return steps * c.scan_dense_step_ns * kNsToMs;
  }
  const double drains = steps * drain_rate(w);
  double ms = db * c.scan_probe_ns * kNsToMs + drains * c.scan_drain_ns * kNsToMs;
  if (w.expiry.enabled() && w.level > 1) {
    // One deadline push per match start (~drains / level) plus its pop;
    // level-1 occurrences cannot expire mid-match.
    ms += drains / static_cast<double>(w.level) * c.expiry_heap_ns * kNsToMs;
  }
  return ms;
}

double predict_cpu_lane_scan_ms(const Workload& w, const CpuCostConstants& c) {
  checked_shape(w);
  // Every event steps every register block once, whatever the alphabet,
  // semantics or level: the lanes never skip work, they only share it.
  const double units = std::ceil(static_cast<double>(w.episode_count) /
                                 static_cast<double>(kLanePriceEpisodes));
  return static_cast<double>(w.db_size) * units * c.lane_block_ns * kNsToMs;
}

}  // namespace gm::planner
