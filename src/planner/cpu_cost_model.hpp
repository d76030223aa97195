// Analytic cost curves of the CPU counting backends, the host-side
// counterpart of kernels/workload_model.hpp: given a workload shape, predict
// each backend's wall-clock in milliseconds from measured per-operation
// constants (the cost_constants.hpp calibration style, applied to host code).
//
// The curves mirror the complexity table in core/cpu_backend.hpp:
//
//   cpu-serial        |DB| * |eps| automaton steps
//   cpu-parallel      serial work / min(t, |eps|) + per-worker spawn cost
//   cpu-single-scan   |DB| probes + |DB| * |eps| * drain_rate drains
//                     (contiguous restart falls back to the dense scan)
//   cpu-lane-scan     |DB| * ceil(|eps| / 64) price units (episode-lane SIMD
//                     engine, priced at its 16-byte width on every host;
//                     alphabet- and semantics-blind, infeasible under
//                     expiry or above level 8)
//
// drain_rate is the same skew-aware bucket-occupancy term the Algorithm-5
// device model uses (kernels::bucket_drain_rate), so CPU and GPU predictions
// stay comparable on skewed streams.
#pragma once

#include "planner/workload.hpp"

namespace gm::planner {

/// Measured per-operation constants in nanoseconds (except the thread spawn
/// cost, in microseconds).  Defaults were calibrated against backend_shootout
/// wall-clock measurements on a contemporary x86-64 host at -O2 (see
/// bench/backend_shootout.cpp --validate-planner for the live residuals);
/// they are first-order inputs, not guarantees — the planner's regret gate
/// tolerates a 2x model error.
struct CpuCostConstants {
  /// One automaton step of count_occurrences (fetch + compare + advance).
  double serial_step_ns = 1.1;
  /// The same step with expiry enabled: the scan additionally tracks the
  /// match-start position and tests the window, roughly doubling the
  /// per-symbol cost (measured, not derived).
  double serial_expiry_step_ns = 2.0;
  /// Single-scan per-position bucket probe (flat bucket-vector load + a
  /// deadline-queue front check; the SoA arena has no hashing or heap peek).
  double scan_probe_ns = 2.0;
  /// Single-scan per drained automaton (swap-out, tight arena-pointer step,
  /// O(1) refile).  Slightly above the pre-SoA constant on paper because the
  /// old value was fitted against an engine whose per-position overheads hid
  /// in the probe term; refit with the arena layout (see calib/).
  double scan_drain_ns = 16.0;
  /// Dense contiguous-restart path: one automaton step per (symbol, episode),
  /// batched symbols-innermost so the episode stays register-resident.
  double scan_dense_step_ns = 1.2;
  /// Episode-lane engine: one event stepped through one kLanePriceEpisodes
  /// price unit, a 64-lane register block of the 16-byte baseline kernel
  /// (compare, advance and refill 4 x 16 uint8 lanes; the 255-event counter
  /// flush amortized in).  Fitted with `backend_shootout
  /// --fit-calibration --db 50000 --alphabet 26 --episodes 17576 --level 3
  /// --threads 1` (the paper's dense shape) on a shared 4-vCPU x86-64 host,
  /// GCC 12, -O3, SSE2 baseline: four runs gave 5.5-7.1 ns, and this is
  /// their median.  The refill unrolls one compare per symbol column, so the
  /// real cost grows with the level while the model's does not: the same
  /// runs measured 4-6.4 ns per block at level 1, 5.4-6.3 ns at level 2 and
  /// 6.3-10 ns at level 3.  Level-1 predictions can therefore run up to
  /// ~1.5x high and level-3 ones up to ~1.5x low.  AVX2 hosts run the
  /// 32-byte kernel, 128 lanes per block, about 1.9x under this price (dense
  /// level 3 on the same host: 46.5-58.0 ms against 91.4-115.3 ms at 16
  /// bytes).  The price stays at the baseline width on purpose: charged per
  /// 128-lane block it would predict 1.92 ms for paper_sim's level 2 and
  /// take it off the GTX 280 (2.00 ms); ROADMAP item 6 keeps the ISA-aware
  /// price open.
  double lane_block_ns = 6.4;
  /// Expiry bookkeeping per match start (monotone deadline-FIFO append +
  /// eventual pop-and-validate; was a binary heap before the SoA rewrite).
  double expiry_heap_ns = 25.0;
  /// Spawn + join cost per worker thread.
  double thread_spawn_us = 60.0;
  /// Distrib reduce: folding one (episode, chunk) cold outcome in chunk
  /// order (branch + count add; matches the scale model's merge charge).
  double distrib_merge_ns = 12.0;
  /// Distrib reduce: one serially re-stepped symbol when a chunk entered
  /// with live automaton state (twin-replay until convergence).
  double distrib_rescan_ns = 2.5;
  /// Distrib map: claiming one chunk (an atomic cursor bump in the host
  /// worker pool) plus dispatch into the worker closure.  The name predates
  /// the pool; gm-calibration/2 profiles serialize it as-is.
  double distrib_steal_ns = 400.0;
};

/// Episodes per lane price unit: one 16-byte-baseline register block, 4
/// vectors x 16 lanes.  The price keeps this unit on every host, whatever
/// width core::count_all_lanes runs there.
inline constexpr int kLanePriceEpisodes = 64;

/// Predicted wall-clock (ms) of one counting level on each CPU backend.
/// `threads` is the worker count the backend would actually use (callers
/// should pass gm::resolved_thread_count(requested)).  The constants
/// default to the shipped profile; pass a fitted CalibrationProfile's cpu
/// part (calib/) to predict for the measured host instead.
[[nodiscard]] double predict_cpu_serial_ms(const Workload& w, const CpuCostConstants& c = {});
[[nodiscard]] double predict_cpu_parallel_ms(const Workload& w, int threads,
                                             const CpuCostConstants& c = {});
[[nodiscard]] double predict_cpu_single_scan_ms(const Workload& w,
                                                const CpuCostConstants& c = {});
[[nodiscard]] double predict_cpu_lane_scan_ms(const Workload& w,
                                              const CpuCostConstants& c = {});

/// The distrib backend's host curve: the single-scan map split over `shards`
/// workers claiming chunks of the backend's own grid (shards x
/// distrib::kChunksPerShard chunks), plus the chunk-ordered fold, the
/// expected boundary rescans (bounded by the expiry window or the typical
/// automaton reset distance), and per-chunk claim overhead.
[[nodiscard]] double predict_cpu_distrib_ms(const Workload& w, int shards,
                                            const CpuCostConstants& c = {});

/// Expected host-fold boundary fix-up for a `chunks`-way database split: the
/// twin replay per (episode, interior boundary), bounded by the expiry
/// window or the typical automaton reset distance.  Charged by both distrib
/// flavors — counts always come from the host fold, so simulated-card
/// candidates pay it too.
[[nodiscard]] double distrib_rescan_ms(const Workload& w, int chunks,
                                       const CpuCostConstants& c = {});

}  // namespace gm::planner
