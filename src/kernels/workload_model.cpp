#include "kernels/workload_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "core/segment_counter.hpp"

namespace gm::kernels {
namespace {

using gpusim::BlockProfile;
using gpusim::KernelProfile;
using gpusim::TexAccessKind;
using gpusim::TexturePattern;

/// Per-lane totals within one barrier-delimited segment.
struct LaneTotals {
  double instr = 0;
  double tex = 0;
  double shared = 0;
  double glob = 0;
  double glob_bytes = 0;

  LaneTotals& operator+=(const LaneTotals& o) {
    instr += o.instr;
    tex += o.tex;
    shared += o.shared;
    glob += o.glob;
    glob_bytes += o.glob_bytes;
    return *this;
  }
};

/// Accumulates a BlockProfile from per-lane segment descriptions, mirroring
/// the engine's warp aggregation (per-segment, per-field max over lanes).
class BlockModel {
 public:
  BlockModel(int threads, int warp_size) : threads_(threads), warp_size_(warp_size) {
    profile_.warps = (threads + warp_size - 1) / warp_size;
  }

  /// One segment: `lane_fn(lane)` gives that lane's totals.  A segment that
  /// `ends_with_sync` charges the barrier instruction to every lane and
  /// increments the block's barrier count.
  void segment(const std::function<LaneTotals(int)>& lane_fn, bool ends_with_sync) {
    LaneTotals segment_max;  // max over warps: the segment's critical path
    for (int w = 0; w * warp_size_ < threads_; ++w) {
      LaneTotals warp_max;
      for (int lane = w * warp_size_; lane < std::min(threads_, (w + 1) * warp_size_);
           ++lane) {
        LaneTotals lt = lane_fn(lane);
        if (ends_with_sync) lt.instr += 1;
        warp_max.instr = std::max(warp_max.instr, lt.instr);
        warp_max.tex = std::max(warp_max.tex, lt.tex);
        warp_max.shared = std::max(warp_max.shared, lt.shared);
        warp_max.glob = std::max(warp_max.glob, lt.glob);
        profile_.lane_instructions += lt.instr;
        profile_.tex_requests += lt.tex;
        profile_.shared_requests += lt.shared;
        profile_.global_requests += lt.glob;
        profile_.global_bytes += lt.glob_bytes;
      }
      profile_.warp_instructions += warp_max.instr;
      profile_.warp_tex_ops += warp_max.tex;
      profile_.warp_shared_ops += warp_max.shared;
      profile_.warp_global_ops += warp_max.glob;
      segment_max.instr = std::max(segment_max.instr, warp_max.instr);
      segment_max.tex = std::max(segment_max.tex, warp_max.tex);
      segment_max.shared = std::max(segment_max.shared, warp_max.shared);
      segment_max.glob = std::max(segment_max.glob, warp_max.glob);
    }
    profile_.path_instructions += segment_max.instr;
    profile_.path_tex_ops += segment_max.tex;
    profile_.path_shared_ops += segment_max.shared;
    profile_.path_global_ops += segment_max.glob;
    if (ends_with_sync) ++profile_.syncs;
  }

  [[nodiscard]] BlockProfile finish(const TexturePattern& pattern) {
    profile_.texture = pattern;
    return profile_;
  }

 private:
  int threads_;
  int warp_size_;
  BlockProfile profile_;
};

/// Elements lane `tid` copies in an interleaved load of `n` elements.
std::int64_t copy_count(std::int64_t n, int threads, int tid) {
  if (tid >= n) return 0;
  return (n - 1 - tid) / threads + 1;
}

/// Rescan window length around `bound` (expiry mode).
std::int64_t rescan_len(std::int64_t db_size, std::int64_t bound, std::int64_t window) {
  const std::int64_t lo = std::max<std::int64_t>(0, bound - window);
  const std::int64_t hi = std::min(db_size, bound + window);
  return hi - lo;
}

/// Steady-state expiry statistics of one bucketed automaton (subsequence
/// semantics, level L > 1) on a stream whose per-position drain probability
/// is `q`.
///
/// A match *attempt* starts when episode[0] drains (deadline heap push) and
/// ends either completed — T more positions, T = sum of L-1 Geom(q) dwells —
/// or expired at the deadline, W positions after the start, where the kernel
/// re-files the automaton under episode[0] (the re-bucket traffic this
/// models).  Expiry runs before the position's bucket dispatch, so
/// completion needs T <= W - 1.  The renewal cycle between consecutive
/// attempt starts is
///
///   C = 1/q + E[min(T, W - 1)],   E[min(T, M)] = sum_{w<M} P(T > w)
///
/// with P(T > w) = P(Binomial(w, q) < L - 1), evaluated incrementally and
/// truncated once the tail is negligible (windows beyond the stream clamp to
/// |DB| upstream).  As W grows, p -> 0 and C -> L/q, recovering exactly the
/// first-order "one heap push+pop per match start" term at rate q/L.
struct BucketExpiryStats {
  double attempts_per_position = 0.0;  ///< 1 / C
  double expiry_prob = 0.0;            ///< p = P(T > W - 1)
};

BucketExpiryStats bucket_expiry_stats(double q, int level, std::int64_t window) {
  BucketExpiryStats stats;
  if (q <= 0.0) return stats;  // dead buckets park automata forever
  const std::int64_t M = window - 1;
  // b[k] = P(Binomial(w, q) = k) for k < level - 1, advanced in w.
  std::vector<double> b(static_cast<std::size_t>(level - 1), 0.0);
  b[0] = 1.0;  // w = 0
  double tail = 1.0;  // P(T > 0): T >= level - 1 >= 1
  double e_min = 0.0;
  std::int64_t w = 0;
  while (w < M && tail > 1e-12) {
    e_min += tail;
    for (std::size_t k = b.size(); k-- > 0;) {
      b[k] = b[k] * (1.0 - q) + (k > 0 ? b[k - 1] * q : 0.0);
    }
    ++w;
    tail = 0.0;
    for (const double bk : b) tail += bk;
  }
  // Tail truncated before reaching M: the remaining summands are < 1e-12
  // each; p is effectively 0.
  const double p = w < M ? 0.0 : tail;
  stats.expiry_prob = p;
  stats.attempts_per_position = 1.0 / (1.0 / q + e_min);
  return stats;
}

// --------------------------------------------------------------------------
// Per-algorithm block models (mirrors of mining_kernels.cpp).
// --------------------------------------------------------------------------

BlockProfile algo1_block(const gpusim::DeviceSpec& dev, const WorkloadSpec& s, int t,
                         const KernelCostProfile& p) {
  const double N = static_cast<double>(s.db_size);
  BlockModel block(t, dev.warp_size);
  block.segment(
      [&](int) {
        LaneTotals lt;
        lt.instr = N * (p.unbuffered_scan_instr + 2) + 1;  // scan + fetch + ep load; store
        lt.tex = N;
        lt.glob = N + 1;
        lt.glob_bytes = N * 1 + 4;
        return lt;
      },
      /*ends_with_sync=*/false);
  return block.finish({TexAccessKind::kBroadcast, N, /*sharing_key=*/1});
}

BlockProfile algo2_block(const gpusim::DeviceSpec& dev, const WorkloadSpec& s, int t,
                         const KernelCostProfile& p) {
  const std::int64_t B = s.params.buffer_bytes;
  const int L = s.level;
  BlockModel block(t, dev.warp_size);

  bool first = true;
  for (std::int64_t base = 0; base < s.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, s.db_size - base);
    const bool upfront = first;
    first = false;
    // Load segment (plus the one-time episode staging in the first segment).
    block.segment(
        [&, n, upfront](int lane) {
          LaneTotals lt;
          if (upfront) {
            lt.instr += L;
            lt.glob += L;
            lt.glob_bytes += L;
          }
          const auto c = static_cast<double>(copy_count(n, t, lane));
          lt.instr += c * (p.buffer_copy_instr + 2);  // copy math + fetch + store
          lt.tex += c;
          lt.shared += c;
          return lt;
        },
        /*ends_with_sync=*/true);
    // Process segment: every thread scans the whole buffer.
    block.segment(
        [&, n](int) {
          LaneTotals lt;
          lt.instr = static_cast<double>(n) * (p.buffered_scan_instr + 1);
          lt.shared = static_cast<double>(n);
          return lt;
        },
        /*ends_with_sync=*/true);
  }
  // Final store.
  block.segment(
      [](int) {
        LaneTotals lt;
        lt.instr = 1;
        lt.glob = 1;
        lt.glob_bytes = 4;
        return lt;
      },
      /*ends_with_sync=*/false);
  return block.finish(
      {TexAccessKind::kCoalescedStream, static_cast<double>(s.db_size), /*sharing_key=*/2});
}

BlockProfile algo3_block(const gpusim::DeviceSpec& dev, const WorkloadSpec& s, int t,
                         const KernelCostProfile& p) {
  const int L = s.level;
  const bool expiry = s.params.expiry.enabled();
  const bool simple = expiry || L == 1;  // no composition machinery
  BlockModel block(t, dev.warp_size);

  // Map segment: episode staging + chunk scan (+ boundary rescan with
  // expiry) + outcome store, ending at the barrier.
  block.segment(
      [&](int lane) {
        LaneTotals lt;
        lt.instr += L;  // episode staging
        lt.glob += L;
        lt.glob_bytes += L;
        const core::ChunkRange chunk = core::chunk_range(s.db_size, t, lane);
        const auto c = static_cast<double>(chunk.size());
        if (!simple) {
          lt.instr += c * (p.block_scan_instr + 2 + L * p.automaton_step_instr);
          lt.tex += c;
          lt.glob += c;
          lt.glob_bytes += c;
          lt.instr += 2.0 * L;  // outcome packing + stores (device memory)
          lt.glob += L;
          lt.glob_bytes += 4.0 * L;
        } else {
          lt.instr += c * (p.block_scan_instr + 2 + p.automaton_step_instr);
          lt.tex += c;
          lt.glob += c;
          lt.glob_bytes += c;
          if (expiry && chunk.end < s.db_size) {
            const auto w = static_cast<double>(
                rescan_len(s.db_size, chunk.end, s.params.expiry.window));
            lt.instr += w * (p.rescan_instr + 1 + p.automaton_step_instr);
            lt.tex += w;
          }
          lt.instr += 2;  // outcome store
          lt.glob += 1;
          lt.glob_bytes += 4;
        }
        return lt;
      },
      /*ends_with_sync=*/true);
  // Fold segment: thread 0 only, reading the device-memory transfer table.
  block.segment(
      [&](int lane) {
        LaneTotals lt;
        if (lane == 0) {
          lt.instr = static_cast<double>(t) * (p.fold_step_instr + 1) + 1;
          lt.glob = static_cast<double>(t) + 1;
          lt.glob_bytes = 4.0 * t + 4;
        }
        return lt;
      },
      /*ends_with_sync=*/false);
  return block.finish(
      {TexAccessKind::kStridedPerLane, static_cast<double>(s.db_size), /*sharing_key=*/0});
}

BlockProfile algo4_block(const gpusim::DeviceSpec& dev, const WorkloadSpec& s, int t,
                         const KernelCostProfile& p) {
  const std::int64_t B = s.params.buffer_bytes;
  const int L = s.level;
  const bool expiry = s.params.expiry.enabled();
  const bool simple = expiry || L == 1;  // no composition machinery
  BlockModel block(t, dev.warp_size);

  bool first = true;
  for (std::int64_t base = 0; base < s.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, s.db_size - base);
    const bool upfront = first;
    first = false;
    // Load segment: (first) episode staging, (later, !expiry) thread-0 fold
    // of the previous iteration, cooperative copy.
    block.segment(
        [&, n, upfront](int lane) {
          LaneTotals lt;
          if (upfront) {
            lt.instr += L;
            lt.glob += L;
            lt.glob_bytes += L;
          } else if (!simple && lane == 0) {
            lt.instr += static_cast<double>(t) * (p.fold_step_instr + 1);
            lt.glob += static_cast<double>(t);
            lt.glob_bytes += 4.0 * t;
          }
          const auto c = static_cast<double>(copy_count(n, t, lane));
          lt.instr += c * (p.buffer_copy_instr + 2);
          lt.tex += c;
          lt.shared += c;
          return lt;
        },
        /*ends_with_sync=*/true);
    // Process segment.
    block.segment(
        [&, n, base](int lane) {
          LaneTotals lt;
          const core::ChunkRange slice = core::chunk_range(n, t, lane);
          const auto c = static_cast<double>(slice.size());
          if (!simple) {
            lt.instr += c * (p.block_scan_instr + 2 + L * p.automaton_step_instr);
            lt.shared += c;
            lt.glob += c;
            lt.glob_bytes += c;
            lt.instr += 2.0 * L;  // outcome stores to device memory
            lt.glob += L;
            lt.glob_bytes += 4.0 * L;
          } else {
            lt.instr += c * (p.block_scan_instr + 2 + p.automaton_step_instr);
            lt.shared += c;
            lt.glob += c;
            lt.glob_bytes += c;
            const std::int64_t bound = base + slice.end;
            if (expiry && bound < s.db_size) {
              const auto w = static_cast<double>(
                  rescan_len(s.db_size, bound, s.params.expiry.window));
              lt.instr += w * (p.rescan_instr + 1 + p.automaton_step_instr);
              lt.tex += w;
            }
          }
          return lt;
        },
        /*ends_with_sync=*/true);
  }

  if (!simple) {
    // Final fold + store (thread 0).
    block.segment(
        [&](int lane) {
          LaneTotals lt;
          if (lane == 0) {
            lt.instr = static_cast<double>(t) * (p.fold_step_instr + 1) + 1;
            lt.glob = static_cast<double>(t) + 1;
            lt.glob_bytes = 4.0 * t + 4;
          }
          return lt;
        },
        /*ends_with_sync=*/false);
  } else {
    // Outcome store, barrier, then thread-0 sum + store.
    block.segment(
        [](int) {
          LaneTotals lt;
          lt.instr = 2;
          lt.glob = 1;
          lt.glob_bytes = 4;
          return lt;
        },
        /*ends_with_sync=*/true);
    block.segment(
        [&](int lane) {
          LaneTotals lt;
          if (lane == 0) {
            lt.instr = static_cast<double>(t) * (p.fold_step_instr + 1) + 1;
            lt.glob = static_cast<double>(t) + 1;
            lt.glob_bytes = 4.0 * t + 4;
          }
          return lt;
        },
        /*ends_with_sync=*/false);
  }
  return block.finish(
      {TexAccessKind::kCoalescedStream, static_cast<double>(s.db_size), /*sharing_key=*/4});
}

// Mirror of algo5_kernel for a block owning `slots_in_block` episode slots
// (thread `lane` owns copy_count(slots_in_block, t, lane) of them).  Exact
// for the dense contiguous-restart path; expectation over a uniform stream
// for the bucketed path (see the header comment).
BlockProfile algo5_block(const gpusim::DeviceSpec& dev, const WorkloadSpec& s, int t,
                         std::int64_t slots_in_block, const KernelCostProfile& p) {
  const std::int64_t B = s.params.buffer_bytes;
  const int L = s.level;
  const double A = static_cast<double>(s.alphabet_size);
  const double drain_rate =
      s.symbol_freq.empty() ? 1.0 / A : bucket_drain_rate(s.symbol_freq, L);
  const bool dense = s.params.semantics == gm::core::Semantics::kContiguousRestart;
  // Trie-bucketed: token drains replace per-automaton drains, scaled by the
  // measured distinct-prefix mass; the dense contiguous-restart fallback
  // charges identically to the flat formulation (the kernel runs the same
  // per-automaton loop), so the flag is ignored there.
  const bool trie = s.params.trie_buckets && !dense;
  const double eps = s.prefix_compression;
  const bool expiry = s.params.expiry.enabled();
  // The kernel clamps deadlines the same way (windows beyond the stream are
  // indistinguishable from |DB|).
  const std::int64_t window = std::min(s.params.expiry.window, s.db_size);
  const BucketExpiryStats ex = (!dense && expiry && L > 1)
                                   ? bucket_expiry_stats(drain_rate, L, window)
                                   : BucketExpiryStats{};
  // A deadline pushed at position t only pops (and can only expire) if it
  // matures inside the stream, t + W < |DB|: the fraction of attempts whose
  // heap entry is ever revisited.
  const double mature_frac =
      s.db_size > window
          ? static_cast<double>(s.db_size - window) / static_cast<double>(s.db_size)
          : 0.0;
  BlockModel block(t, dev.warp_size);

  const auto owned_of = [&](int lane) {
    return static_cast<double>(copy_count(slots_in_block, t, lane));
  };

  bool first = true;
  for (std::int64_t base = 0; base < s.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, s.db_size - base);
    const bool upfront = first;
    first = false;
    // Load segment (+ one-time episode staging and initial bucket filing).
    block.segment(
        [&, n, upfront](int lane) {
          LaneTotals lt;
          if (upfront) {
            const double owned = owned_of(lane);
            lt.instr += owned * L;
            lt.glob += owned * L;
            lt.glob_bytes += owned * L;
            if (!dense) lt.instr += owned * p.bucket_file_instr;
          }
          const auto c = static_cast<double>(copy_count(n, t, lane));
          lt.instr += c * (p.buffer_copy_instr + 2);
          lt.tex += c;
          lt.shared += c;
          return lt;
        },
        /*ends_with_sync=*/true);
    // Scan segment: threads with no automata skip the whole buffer.
    block.segment(
        [&, n](int lane) {
          LaneTotals lt;
          const double owned = owned_of(lane);
          if (owned == 0) return lt;
          const auto N = static_cast<double>(n);
          lt.shared += N;
          if (dense) {
            lt.instr += N * (p.buffered_scan_instr + 1 + owned * p.automaton_step_instr);
          } else if (trie) {
            // Expectation, not exact: drain events shrink by the
            // distinct-prefix mass eps (one token per shared prefix), while
            // accept events stay per-episode — every occurrence of every
            // candidate still completes individually at rate q / L.  Each
            // token drain re-reads/writes one automaton record (2 global
            // ops, 8 bytes) like a flat drain.
            const double token_drains = owned * N * drain_rate * eps;
            const double accepts = owned * N * drain_rate / static_cast<double>(L);
            lt.instr += N * (p.bucket_probe_instr + 1) +
                        token_drains * (p.trie_drain_instr + p.bucket_file_instr + 2) +
                        accepts * p.trie_accept_instr;
            lt.glob += 2 * token_drains;
            lt.glob_bytes += 8 * token_drains;
            if (expiry && L > 1) {
              // The trie engine refreshes a token's deadline at every
              // surviving arrival (a push per token drain) and pops the
              // matured share of attempts, which also start per token.
              const double attempts = owned * N * ex.attempts_per_position * eps;
              lt.instr += (token_drains + attempts * mature_frac) * p.expiry_heap_instr;
            }
          } else {
            // Expected drains: every automaton awaits exactly one symbol, so
            // each position hits a given automaton's bucket w.p. 1/alphabet
            // on a uniform stream, or bucket_drain_rate under measured skew.
            const double drains = owned * N * drain_rate;
            lt.instr += N * (p.bucket_probe_instr + 1) +
                        drains * (p.bucket_drain_instr + p.automaton_step_instr +
                                  p.bucket_file_instr + 2);
            lt.glob += 2 * drains;
            lt.glob_bytes += 8 * drains;
            if (expiry && L > 1) {
              // One deadline push per attempt start plus a pop for the
              // matured share, at the renewal attempt rate (= drains / L
              // when the window is wide); the expired share additionally
              // re-files under episode[0], stores its reset state, and
              // leaves a stale bucket entry that later drains to a
              // generation-tag miss.
              const double attempts = owned * N * ex.attempts_per_position;
              const double expired = attempts * ex.expiry_prob * mature_frac;
              lt.instr += attempts * (1.0 + mature_frac) * p.expiry_heap_instr +
                          expired * (p.bucket_file_instr + p.bucket_drain_instr);
              lt.glob += expired;
              lt.glob_bytes += 4.0 * expired;
            }
          }
          return lt;
        },
        /*ends_with_sync=*/true);
  }
  // Final count stores.
  block.segment(
      [&](int lane) {
        LaneTotals lt;
        const double owned = owned_of(lane);
        lt.instr = 2 * owned;
        lt.glob = owned;
        lt.glob_bytes = 4 * owned;
        return lt;
      },
      /*ends_with_sync=*/false);
  return block.finish(
      {TexAccessKind::kCoalescedStream, static_cast<double>(s.db_size), /*sharing_key=*/5});
}

}  // namespace

double bucket_drain_rate(std::span<const double> symbol_freq, int level) {
  gm::expects(!symbol_freq.empty(), "drain rate needs at least one symbol frequency");
  gm::expects(level >= 1, "drain rate needs a positive level");
  double total = 0.0;
  double mean_dwell = 0.0;
  double mean_dwell_sq = 0.0;
  const double n = static_cast<double>(symbol_freq.size());
  for (const double p : symbol_freq) {
    gm::expects(p >= 0.0, "symbol frequencies must be non-negative");
    total += p;
    if (p <= 0.0) return 0.0;  // a dead bucket parks every automaton reaching it
    mean_dwell += (1.0 / p) / n;
    mean_dwell_sq += (1.0 / (p * p)) / n;
  }
  gm::expects(std::abs(total - 1.0) < 1e-6, "symbol frequencies must sum to 1");
  const double variance = std::max(0.0, mean_dwell_sq - mean_dwell * mean_dwell);
  const double cv_sq = variance / (mean_dwell * mean_dwell);
  return (1.0 / mean_dwell) * (1.0 + cv_sq / static_cast<double>(level));
}

std::vector<double> measured_symbol_freq(std::span<const core::Symbol> database,
                                         int alphabet_size) {
  gm::expects(alphabet_size >= 1, "alphabet must be non-empty");
  std::vector<double> freq(static_cast<std::size_t>(alphabet_size), 0.0);
  for (const core::Symbol s : database) {
    gm::expects(static_cast<int>(s) < alphabet_size, "database symbol outside alphabet");
    freq[static_cast<std::size_t>(s)] += 1.0;
  }
  const double denom =
      static_cast<double>(database.size()) + static_cast<double>(alphabet_size);
  for (double& f : freq) f = (f + 1.0) / denom;
  return freq;
}

gpusim::LaunchConfig model_launch_config(const WorkloadSpec& spec) {
  const LaunchGeometry geo =
      launch_geometry(spec.params.algorithm, spec.episode_count, spec.level,
                      spec.params.threads_per_block, spec.params.buffer_bytes);
  gpusim::LaunchConfig config;
  config.grid = gpusim::Dim3(static_cast<int>(geo.blocks));
  config.block = gpusim::Dim3(spec.params.threads_per_block);
  config.shared_mem_per_block = geo.shared_mem_per_block;
  config.registers_per_thread = kRegistersPerThread;
  return config;
}

gpusim::KernelProfile model_profile(const gpusim::DeviceSpec& device, const WorkloadSpec& spec,
                                    const KernelCostProfile& costs) {
  gm::expects(spec.db_size > 0, "database must be non-empty");
  gm::expects(spec.episode_count > 0, "need at least one episode");
  validate_launch_params(spec.params, spec.level);

  const int t = spec.params.threads_per_block;
  const LaunchGeometry geo =
      launch_geometry(spec.params.algorithm, spec.episode_count, spec.level,
                      spec.params.threads_per_block, spec.params.buffer_bytes);
  KernelProfile profile;

  if (is_bucketed(spec.params.algorithm)) {
    gm::expects(spec.alphabet_size >= 1 && spec.alphabet_size <= 255,
                "bucketed model needs an alphabet size in [1, 255]");
    gm::expects(spec.symbol_freq.empty() ||
                    spec.symbol_freq.size() == static_cast<std::size_t>(spec.alphabet_size),
                "symbol_freq must be empty (uniform) or carry one entry per alphabet symbol");
    gm::expects(!spec.params.trie_buckets ||
                    (spec.prefix_compression > 0.0 && spec.prefix_compression <= 1.0),
                "trie model needs prefix_compression in (0, 1]");
    // Blocks own chunk_range slices of the episode list: the first
    // `extra` blocks carry one slot more than the rest.
    const std::int64_t base = spec.episode_count / geo.blocks;
    const std::int64_t extra = spec.episode_count % geo.blocks;
    if (extra > 0) profile.add_block(algo5_block(device, spec, t, base + 1, costs), extra);
    if (geo.blocks > extra) {
      profile.add_block(algo5_block(device, spec, t, base, costs), geo.blocks - extra);
    }
    return profile;
  }

  BlockProfile block;
  switch (spec.params.algorithm) {
    case Algorithm::kThreadTexture: block = algo1_block(device, spec, t, costs); break;
    case Algorithm::kThreadBuffered: block = algo2_block(device, spec, t, costs); break;
    case Algorithm::kBlockTexture: block = algo3_block(device, spec, t, costs); break;
    case Algorithm::kBlockBuffered: block = algo4_block(device, spec, t, costs); break;
    case Algorithm::kBlockBucketed: break;  // handled above
  }
  profile.add_block(block, geo.blocks);
  return profile;
}

gpusim::TimeBreakdown predict_mining_time(const gpusim::DeviceSpec& device,
                                          const WorkloadSpec& spec,
                                          const gpusim::CostModel& model,
                                          const KernelCostProfile& costs) {
  return model.predict(device, model_launch_config(spec), model_profile(device, spec, costs));
}

}  // namespace gm::kernels
