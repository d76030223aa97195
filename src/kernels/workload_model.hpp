// Closed-form workload models of the five mining kernels.
//
// `model_profile` computes, analytically, the KernelProfile the functional
// engine would measure for a given problem size and launch — the per-warp
// segment maxima, memory-operation counts and barrier structure of
// mining_kernels.cpp, without touching any data.  This is what lets the
// benchmark harnesses sweep the paper's full 393,019-symbol configuration
// space in milliseconds; tests/kernels/workload_model_test.cpp asserts exact
// field-for-field equality against the engine on adversarial small sizes.
//
// The paper's four formulations charge data-independently (the paper's C1
// constant-time-per-symbol observation), so their models are *exact*.  The
// bucketed formulation's drain work depends on the data; its model is exact
// for the dense contiguous-restart path and an expectation elsewhere: each
// automaton awaits exactly one symbol, so a uniform stream drains it with
// probability 1/|alphabet| per position, making the per-symbol work term
// scale with bucket occupancy |episodes|/|alphabet| instead of |episodes|.
// Expiry re-bucket traffic (also data-dependent) is a renewal expectation:
// attempts start at rate 1 / (1/q + E[min(T, W-1)]) per position (q the
// drain rate, T the completion time over L-1 geometric dwells), each
// charging a deadline push, a pop for the share whose deadline matures
// inside the stream, and — for the share that expires — the episode[0]
// re-file, state store and stale-entry drain; it converges to one push+pop
// per match start (rate drains/L) as the window widens, and is pinned
// against the engine across windows by kernels_workload_model_test.
#pragma once

#include <span>
#include <vector>

#include "kernels/mining_kernels.hpp"
#include "sim/cost_model.hpp"
#include "sim/device_spec.hpp"
#include "sim/profile.hpp"

namespace gm::kernels {

/// Problem shape (no data needed: kernel charges are data-independent,
/// matching the paper's C1 constant-time-per-symbol observation).
struct WorkloadSpec {
  std::int64_t db_size = 0;
  std::int64_t episode_count = 0;
  int level = 1;
  /// Bucketed formulation only: divisor of the expected bucket occupancy
  /// (|episodes|/|alphabet| automata await each scanned symbol on a uniform
  /// stream).  Defaults to the paper's 26-letter alphabet.
  int alphabet_size = 26;
  /// Bucketed formulation only: measured (or synthetic) symbol distribution
  /// of the stream, `alphabet_size` entries summing to 1.  Empty means
  /// uniform, which keeps the drain term at the exact |episodes|/|alphabet|
  /// occupancy the uniform-stream tests pin.  A skewed distribution lowers
  /// the expected drain rate (automata park in rare-symbol buckets), per
  /// `bucket_drain_rate`.
  std::vector<double> symbol_freq;
  /// Trie-bucketed formulation only: distinct-prefix mass of the candidate
  /// set — distinct nonempty prefixes over total episode symbols, in (0, 1] —
  /// measured from the actual candidates via core::prefix_compression.  1.0
  /// means no two candidates share a prefix (the trie degenerates to the flat
  /// engine); apriori level-L sets sit near 1/L plus the last-symbol fringe.
  /// Scales the trie drain/expiry terms: one token drain advances every
  /// episode sharing the prefix.
  double prefix_compression = 1.0;
  MiningLaunchParams params;
};

/// Expected per-position drain probability of one waiting automaton when the
/// stream draws symbols i.i.d. from `symbol_freq` and awaited symbols are
/// uniform over the alphabet.  An automaton's dwell time in the bucket of a
/// symbol with probability p is geometric with mean 1/p, so a level-L cycle
/// takes S = sum of L dwells and the automaton advances L/S times per
/// position; taking the expectation with a second-order Jensen correction
/// gives  (1 / mean_dwell) * (1 + cv^2 / level)  where cv is the coefficient
/// of variation of the dwell distribution.  Uniform frequencies make cv = 0
/// and recover exactly 1/|alphabet|.  Zero frequencies are allowed (their
/// buckets park automata for the rest of the stream) but make the rate 0, so
/// callers measuring from data should smooth (see `measured_symbol_freq`).
[[nodiscard]] double bucket_drain_rate(std::span<const double> symbol_freq, int level);

/// Empirical symbol distribution of a database with add-one (Laplace)
/// smoothing, so absent symbols keep a small positive frequency and
/// `bucket_drain_rate` stays finite.  Symbols >= alphabet_size are rejected.
[[nodiscard]] std::vector<double> measured_symbol_freq(std::span<const core::Symbol> database,
                                                       int alphabet_size);

/// The launch configuration run_mining_kernel would use for this spec.
[[nodiscard]] gpusim::LaunchConfig model_launch_config(const WorkloadSpec& spec);

/// The kernel profile the functional engine would measure for this spec.
/// `costs` supplies the per-loop instruction charges; the default profile
/// carries the shipped cost_constants.hpp values and predicts bit-identically
/// to the pre-profile code (pinned by test), while a fitted profile (see
/// calib/) adapts the model to a measured host.
[[nodiscard]] gpusim::KernelProfile model_profile(const gpusim::DeviceSpec& device,
                                                  const WorkloadSpec& spec,
                                                  const KernelCostProfile& costs = {});

/// Convenience: predicted kernel time for this spec on this card.
[[nodiscard]] gpusim::TimeBreakdown predict_mining_time(const gpusim::DeviceSpec& device,
                                                        const WorkloadSpec& spec,
                                                        const gpusim::CostModel& model,
                                                        const KernelCostProfile& costs = {});

}  // namespace gm::kernels
