#include "kernels/mining_kernels.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>
#include <span>

#include "common/error.hpp"
#include "core/segment_counter.hpp"

namespace gm::kernels {
namespace {

using core::EpisodeAutomaton;
using core::Symbol;
using gpusim::TexAccessKind;
using gpusim::ThreadCtx;

/// Everything a kernel thread needs, copied by value into the coroutine
/// frame (safe against the enclosing lambda's lifetime).
struct Views {
  gpusim::TextureView<Symbol> db_tex;
  gpusim::GlobalView<Symbol> episodes;      ///< charged device accesses
  std::span<const Symbol> episodes_host;    ///< zero-cost host mirror
  gpusim::GlobalView<std::uint32_t> counts;
  /// Block-level (algorithms 3/4): transfer tables, blocks x threads x level
  /// entries (count<<8 | exit_state per entry).  Bucketed (algorithm 5): one
  /// automaton record per episode slot (state<<8 | awaited symbol), re-read
  /// and written back on every bucket drain.
  gpusim::GlobalView<std::uint32_t> scratch;
  std::int64_t db_size = 0;
  std::int64_t episode_count = 0;  ///< real episodes (bucketed slot range)
  int level = 1;
  core::Semantics semantics = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry = {};
  int buffer_bytes = kDefaultBufferBytes;
  bool trie_buckets = false;  ///< Algorithm 5: contiguous owned slices (MiningLaunchParams)
  /// Host counters threads of one block share, block-major: one per group of
  /// threads for Algorithm 5's shared-prefix token buckets, one per block for
  /// the buffered thread-level scans; null for the other formulations.
  DeviceProblem::CounterSlot* slots = nullptr;
};

static_assert(kMaxLevel == core::kLaneMaxLevel, "a block's lane counter counts every level");

/// Trie mode: consecutive threads of a block that share one host counter, one
/// group of at most kBucketEpisodesPerThread episodes per thread.
constexpr int kTrieGroupThreads =
    static_cast<int>(core::TrieCounter::kMaxEpisodes) / kBucketEpisodesPerThread;
static_assert(kTrieGroupThreads == 8, "a trie counter serves 8 threads of 8 episodes");

int trie_groups_per_block(int threads_per_block) {
  return (threads_per_block + kTrieGroupThreads - 1) / kTrieGroupThreads;
}

/// Whether a launch counts on one lane counter per block: Algorithm 2, and
/// Algorithm 5 under contiguous restart (its dense fallback).
bool counts_on_block_lanes(const MiningLaunchParams& params) {
  return params.algorithm == Algorithm::kThreadBuffered ||
         (params.algorithm == Algorithm::kBlockBucketed &&
          params.semantics == core::Semantics::kContiguousRestart);
}

/// Episode slot `s`, from the zero-cost host mirror: what a block's shared
/// host counter is built from.
core::Episode host_episode(const Views& v, std::int64_t s) {
  const auto level = static_cast<std::size_t>(v.level);
  const auto symbols = v.episodes_host.subspan(static_cast<std::size_t>(s) * level, level);
  return core::Episode(std::vector<Symbol>(symbols.begin(), symbols.end()));
}

/// The lane counter a block's buffered thread-level scan shares: one lane per
/// episode slot in `slots`, read by `readers` threads.
DeviceProblem::CounterSlot build_lane_slot(const Views& v, core::ChunkRange slots, int readers) {
  std::vector<core::Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(slots.size()));
  for (std::int64_t s = slots.begin; s < slots.end; ++s) episodes.push_back(host_episode(v, s));
  // A window <= 0 disables expiry, as it does for the automaton.
  const core::ExpiryPolicy expiry{v.expiry.enabled() ? v.expiry.window : 0};
  DeviceProblem::CounterSlot slot;
  slot.lanes = std::make_unique<core::LaneCounter>(episodes, v.semantics, expiry);
  slot.readers = readers;
  return slot;
}

/// Advance `slot`'s counter over staged positions [base, base + staged.size())
/// unless another thread past this barrier already has.
void advance_once(DeviceProblem::CounterSlot& slot, std::span<const Symbol> staged,
                  std::int64_t base) {
  if (slot.scanned != base) return;
  if (slot.trie) {
    slot.trie->advance_batch(staged, base);
  } else {
    slot.lanes->advance_batch(staged, base);
  }
  slot.scanned = base + static_cast<std::int64_t>(staged.size());
}

/// One reader is done with `slot`; the last frees its counter.
void release(DeviceProblem::CounterSlot& slot) {
  if (--slot.readers == 0) slot = {};
}

std::uint32_t pack_outcome(std::uint32_t count, int exit_state) {
  return (count << 8) | static_cast<std::uint32_t>(exit_state);
}

/// Count window-crossing occurrences around absolute boundary `bound` by
/// rescanning [bound-window, bound+window) through the texture path.  An
/// occurrence is attributed to the last boundary it crosses (end must fall
/// before `next_bound`).  Mirrors core's count_overlap_rescan exactly so CPU
/// reference and kernel agree.
std::uint32_t rescan_boundary(ThreadCtx& ctx, const Views& v, std::span<const Symbol> episode,
                              std::int64_t bound, std::int64_t next_bound,
                              std::int64_t window) {
  const std::int64_t lo = std::max<std::int64_t>(0, bound - window);
  const std::int64_t hi = std::min<std::int64_t>(v.db_size, bound + window);
  EpisodeAutomaton automaton(episode, v.semantics, v.expiry);
  std::uint32_t crossers = 0;
  for (std::int64_t i = lo; i < hi; ++i) {
    ctx.charge(kRescanInstr);
    const Symbol c = v.db_tex.fetch(ctx, static_cast<std::size_t>(i));
    ctx.charge(kAutomatonStepInstr);
    if (automaton.step(c, i) && i >= bound && i < next_bound &&
        automaton.first_match_pos() < bound) {
      ++crossers;
    }
  }
  return crossers;
}

// --------------------------------------------------------------------------
// Algorithm 1: thread-level, texture memory.
// --------------------------------------------------------------------------
gpusim::KernelTask algo1_kernel(ThreadCtx& ctx, Views v) {
  ctx.declare_texture_pattern(
      {TexAccessKind::kBroadcast, static_cast<double>(v.db_size), /*sharing_key=*/1});

  const std::int64_t ep = ctx.global_thread();
  const std::int64_t ep_off = ep * v.level;
  const std::span<const Symbol> episode =
      v.episodes_host.subspan(static_cast<std::size_t>(ep_off),
                              static_cast<std::size_t>(v.level));

  EpisodeAutomaton automaton(episode, v.semantics, v.expiry);
  std::uint32_t count = 0;
  for (std::int64_t i = 0; i < v.db_size; ++i) {
    ctx.charge(kUnbufferedScanInstr);
    const Symbol c = v.db_tex.fetch(ctx, static_cast<std::size_t>(i));
    // The episode symbol we wait for lives in spilled local memory and is
    // re-read every iteration (see cost_constants.hpp).
    (void)v.episodes.load(ctx, static_cast<std::size_t>(ep_off + automaton.state()));
    if (automaton.step(c, i)) ++count;
  }
  v.counts.store(ctx, static_cast<std::size_t>(ep), count);
  co_return;
}

// --------------------------------------------------------------------------
// Algorithm 2: thread-level, shared-memory buffering.
// --------------------------------------------------------------------------
gpusim::KernelTask algo2_kernel(ThreadCtx& ctx, Views v) {
  ctx.declare_texture_pattern(
      {TexAccessKind::kCoalescedStream, static_cast<double>(v.db_size), /*sharing_key=*/2});

  const int t = ctx.block_dim();
  const int tid = ctx.thread_idx();
  const std::int64_t ep = ctx.global_thread();
  const std::int64_t ep_off = ep * v.level;

  // Episode staged once into frame registers; the host counts from the
  // episodes' host mirror.
  for (int k = 0; k < v.level; ++k) {
    (void)v.episodes.load(ctx, static_cast<std::size_t>(ep_off + k));
  }

  gpusim::SharedArray<Symbol> buffer(ctx, static_cast<std::size_t>(v.buffer_bytes), 0);
  // The block's real episodes, one lane each of the counter its threads
  // share; padded sentinel threads own none.
  const std::int64_t first = ep - tid;
  const core::ChunkRange lanes{first, std::min(first + t, v.episode_count)};
  DeviceProblem::CounterSlot& block = v.slots[ctx.block_idx()];

  const std::int64_t B = v.buffer_bytes;
  for (std::int64_t base = 0; base < v.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, v.db_size - base);
    // Cooperative interleaved load: warp lanes fetch consecutive addresses.
    for (std::int64_t j = tid; j < n; j += t) {
      ctx.charge(kBufferCopyInstr);
      buffer.store(static_cast<std::size_t>(j),
                   v.db_tex.fetch(ctx, static_cast<std::size_t>(base + j)));
    }
    co_await ctx.syncthreads();
    // Every thread scans the whole buffer for its own episode.  Counters are
    // read only at barriers, so the buffer's per-symbol charges go in at once;
    // the first thread here steps every lane of the block over the buffer.
    const std::span<const Symbol> staged = buffer.load_span(0, static_cast<std::size_t>(n));
    ctx.charge(static_cast<std::uint64_t>(n * kBufferedScanInstr));
    if (!block.lanes) block = build_lane_slot(v, lanes, static_cast<int>(lanes.size()));
    advance_once(block, staged, base);
    co_await ctx.syncthreads();
  }
  std::uint32_t count = 0;
  if (ep < lanes.end) {
    count = static_cast<std::uint32_t>(block.lanes->counts()[static_cast<std::size_t>(tid)]);
    release(block);
  }
  v.counts.store(ctx, static_cast<std::size_t>(ep), count);
  co_return;
}

// --------------------------------------------------------------------------
// Algorithm 3: block-level, texture memory.
// --------------------------------------------------------------------------
gpusim::KernelTask algo3_kernel(ThreadCtx& ctx, Views v) {
  ctx.declare_texture_pattern(
      {TexAccessKind::kStridedPerLane, static_cast<double>(v.db_size), /*sharing_key=*/0});

  const int t = ctx.block_dim();
  const int tid = ctx.thread_idx();
  const std::int64_t ep = ctx.block_idx();
  const std::int64_t ep_off = ep * v.level;
  const int L = v.level;

  std::array<Symbol, kMaxLevel> ep_syms{};
  for (int k = 0; k < L; ++k) {
    ep_syms[static_cast<std::size_t>(k)] =
        v.episodes.load(ctx, static_cast<std::size_t>(ep_off + k));
  }
  const std::span<const Symbol> episode(ep_syms.data(), static_cast<std::size_t>(L));

  const core::ChunkRange chunk = core::chunk_range(v.db_size, t, tid);
  // Transfer table for this block lives in device memory.
  const std::size_t scratch_base =
      static_cast<std::size_t>(ep) * static_cast<std::size_t>(t) * static_cast<std::size_t>(L);

  // Level-1 occurrences are single symbols and can never span a chunk
  // boundary, so the transfer-function machinery is skipped (one automaton,
  // plain sum reduce) — likewise in expiry mode, where boundary rescans
  // replace composition.
  if (!v.expiry.enabled() && L > 1) {
    // Transfer-function scan: one automaton per entry state, single fetch
    // per symbol.
    std::vector<EpisodeAutomaton> automata;
    std::vector<std::uint32_t> found(static_cast<std::size_t>(L), 0);
    automata.reserve(static_cast<std::size_t>(L));
    for (int a = 0; a < L; ++a) {
      automata.emplace_back(episode, v.semantics, v.expiry);
      automata.back().restore(a, chunk.begin - 1);
    }
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      ctx.charge(kBlockScanInstr);
      const Symbol c = v.db_tex.fetch(ctx, static_cast<std::size_t>(i));
      (void)v.episodes.load(ctx,
                            static_cast<std::size_t>(ep_off + automata[0].state()));
      for (int a = 0; a < L; ++a) {
        ctx.charge(kAutomatonStepInstr);
        if (automata[static_cast<std::size_t>(a)].step(c, i)) {
          ++found[static_cast<std::size_t>(a)];
        }
      }
    }
    for (int a = 0; a < L; ++a) {
      ctx.charge(1);
      v.scratch.store(ctx,
                      scratch_base + static_cast<std::size_t>(tid) * L +
                          static_cast<std::size_t>(a),
                      pack_outcome(found[static_cast<std::size_t>(a)],
                                   automata[static_cast<std::size_t>(a)].state()));
    }
    co_await ctx.syncthreads();
    if (tid == 0) {
      std::uint32_t total = 0;
      int state = 0;
      for (int th = 0; th < t; ++th) {
        ctx.charge(kFoldStepInstr);
        const std::uint32_t o =
            v.scratch.load(ctx, scratch_base + static_cast<std::size_t>(th) * L +
                                    static_cast<std::size_t>(state));
        total += o >> 8;
        state = static_cast<int>(o & 0xFF);
      }
      v.counts.store(ctx, static_cast<std::size_t>(ep), total);
    }
    co_return;
  }

  // Simple mode (expiry or level 1): fresh scan per chunk + (expiry only)
  // boundary-window rescan.
  EpisodeAutomaton automaton(episode, v.semantics, v.expiry);
  std::uint32_t count = 0;
  for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
    ctx.charge(kBlockScanInstr);
    const Symbol c = v.db_tex.fetch(ctx, static_cast<std::size_t>(i));
    (void)v.episodes.load(ctx, static_cast<std::size_t>(ep_off + automaton.state()));
    ctx.charge(kAutomatonStepInstr);
    if (automaton.step(c, i)) ++count;
  }
  if (v.expiry.enabled() && chunk.end < v.db_size) {
    const std::int64_t next_bound = core::chunk_range(v.db_size, t, tid + 1).end;
    count += rescan_boundary(ctx, v, episode, chunk.end, next_bound, v.expiry.window);
  }
  ctx.charge(1);
  v.scratch.store(ctx, scratch_base + static_cast<std::size_t>(tid) * L, count);
  co_await ctx.syncthreads();
  if (tid == 0) {
    std::uint32_t total = 0;
    for (int th = 0; th < t; ++th) {
      ctx.charge(kFoldStepInstr);
      total += v.scratch.load(ctx, scratch_base + static_cast<std::size_t>(th) * L);
    }
    v.counts.store(ctx, static_cast<std::size_t>(ep), total);
  }
  co_return;
}

// --------------------------------------------------------------------------
// Algorithm 4: block-level, shared-memory buffering.
// --------------------------------------------------------------------------
gpusim::KernelTask algo4_kernel(ThreadCtx& ctx, Views v) {
  ctx.declare_texture_pattern(
      {TexAccessKind::kCoalescedStream, static_cast<double>(v.db_size), /*sharing_key=*/4});

  const int t = ctx.block_dim();
  const int tid = ctx.thread_idx();
  const std::int64_t ep = ctx.block_idx();
  const std::int64_t ep_off = ep * v.level;
  const int L = v.level;

  std::array<Symbol, kMaxLevel> ep_syms{};
  for (int k = 0; k < L; ++k) {
    ep_syms[static_cast<std::size_t>(k)] =
        v.episodes.load(ctx, static_cast<std::size_t>(ep_off + k));
  }
  const std::span<const Symbol> episode(ep_syms.data(), static_cast<std::size_t>(L));

  gpusim::SharedArray<Symbol> buffer(ctx, static_cast<std::size_t>(v.buffer_bytes), 0);
  const std::size_t scratch_base =
      static_cast<std::size_t>(ep) * static_cast<std::size_t>(t) * static_cast<std::size_t>(L);

  // Simple mode: expiry (rescan-based spanning fix) or level 1 (occurrences
  // cannot span a slice).
  const bool simple = v.expiry.enabled() || L == 1;
  const std::int64_t B = v.buffer_bytes;

  // Composition fold state (thread 0) / simple-mode partial count.
  std::uint32_t fold_total = 0;
  int fold_state = 0;
  EpisodeAutomaton simple_automaton(episode, v.semantics, v.expiry);
  std::uint32_t simple_count = 0;
  bool first_iteration = true;

  for (std::int64_t base = 0; base < v.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, v.db_size - base);

    // Between iterations, thread 0 folds the previous iteration's transfer
    // table while the other threads proceed into this load phase (the
    // regions are disjoint; the barrier below orders the phases).
    if (!simple && !first_iteration && tid == 0) {
      for (int th = 0; th < t; ++th) {
        ctx.charge(kFoldStepInstr);
        const std::uint32_t o =
            v.scratch.load(ctx, scratch_base + static_cast<std::size_t>(th) * L +
                                    static_cast<std::size_t>(fold_state));
        fold_total += o >> 8;
        fold_state = static_cast<int>(o & 0xFF);
      }
    }
    first_iteration = false;

    for (std::int64_t j = tid; j < n; j += t) {
      ctx.charge(kBufferCopyInstr);
      buffer.store(static_cast<std::size_t>(j),
                   v.db_tex.fetch(ctx, static_cast<std::size_t>(base + j)));
    }
    co_await ctx.syncthreads();

    // The slice is charged as one span: per symbol, loop control, the
    // discarded re-read of the awaited episode symbol (an index inside this
    // block's episode) and one automaton step per tracked entry state.
    const core::ChunkRange slice = core::chunk_range(n, t, tid);
    const std::span<const Symbol> staged = buffer.load_span(
        static_cast<std::size_t>(slice.begin), static_cast<std::size_t>(slice.size()));
    const auto steps = static_cast<std::uint64_t>(slice.size());
    v.episodes.discard_loads(ctx, static_cast<std::size_t>(ep_off),
                             static_cast<std::size_t>(ep_off + L), steps);
    const std::int64_t first = base + slice.begin;
    if (!simple) {
      ctx.charge(steps * static_cast<std::uint64_t>(kBlockScanInstr + L * kAutomatonStepInstr));
      // One automaton per entry state, each run over the whole slice.
      for (int a = 0; a < L; ++a) {
        EpisodeAutomaton automaton(episode, v.semantics, v.expiry);
        automaton.restore(a, first - 1);
        std::uint32_t found = 0;
        for (std::size_t j = 0; j < staged.size(); ++j) {
          if (automaton.step(staged[j], first + static_cast<std::int64_t>(j))) ++found;
        }
        ctx.charge(1);
        v.scratch.store(ctx,
                        scratch_base + static_cast<std::size_t>(tid) * L +
                            static_cast<std::size_t>(a),
                        pack_outcome(found, automaton.state()));
      }
    } else {
      ctx.charge(steps * static_cast<std::uint64_t>(kBlockScanInstr + kAutomatonStepInstr));
      for (std::size_t j = 0; j < staged.size(); ++j) {
        if (simple_automaton.step(staged[j], first + static_cast<std::int64_t>(j))) {
          ++simple_count;
        }
      }
      // Fresh automaton per slice: abandon carried progress to mirror the
      // independent-chunk map phase, then (expiry only) patch the slice's
      // end boundary.
      simple_automaton.reset();
      const std::int64_t bound = base + slice.end;
      if (v.expiry.enabled() && bound < v.db_size) {
        std::int64_t next_bound;
        if (tid < t - 1) {
          next_bound = base + core::chunk_range(n, t, tid + 1).end;
        } else {
          // Iteration edge: the next boundary is the first slice end of the
          // following staged buffer.
          const std::int64_t n2 = std::min<std::int64_t>(B, v.db_size - (base + n));
          next_bound = base + n + core::chunk_range(n2, t, 0).end;
        }
        simple_count += rescan_boundary(ctx, v, episode, bound, next_bound, v.expiry.window);
      }
    }
    co_await ctx.syncthreads();
  }

  if (!simple) {
    if (tid == 0) {
      for (int th = 0; th < t; ++th) {
        ctx.charge(kFoldStepInstr);
        const std::uint32_t o =
            v.scratch.load(ctx, scratch_base + static_cast<std::size_t>(th) * L +
                                    static_cast<std::size_t>(fold_state));
        fold_total += o >> 8;
        fold_state = static_cast<int>(o & 0xFF);
      }
      v.counts.store(ctx, static_cast<std::size_t>(ep), fold_total);
    }
  } else {
    ctx.charge(1);
    v.scratch.store(ctx, scratch_base + static_cast<std::size_t>(tid) * L, simple_count);
    co_await ctx.syncthreads();
    if (tid == 0) {
      std::uint32_t total = 0;
      for (int th = 0; th < t; ++th) {
        ctx.charge(kFoldStepInstr);
        total += v.scratch.load(ctx, scratch_base + static_cast<std::size_t>(th) * L);
      }
      v.counts.store(ctx, static_cast<std::size_t>(ep), total);
    }
  }
  co_return;
}

// --------------------------------------------------------------------------
// Algorithm 5: block-bucketed single-scan.
// --------------------------------------------------------------------------

/// One owned episode automaton, flattened for the bucket index.  `gen`
/// invalidates bucket entries left behind by expiry re-bucketing.
struct BucketOwned {
  std::span<const Symbol> episode;
  std::int64_t slot = 0;  ///< global episode slot (sorted order)
  std::int64_t first_pos = 0;
  std::uint64_t gen = 0;
  std::uint32_t count = 0;
  int state = 0;
};

struct BucketEntry {
  std::uint32_t u = 0;  ///< index into the thread's owned list
  std::uint64_t gen = 0;
};

/// Pending expiry deadline, validated on pop against the live first_pos.
struct BucketDeadline {
  std::int64_t at = 0;
  std::uint32_t u = 0;
  friend bool operator>(const BucketDeadline& a, const BucketDeadline& b) {
    return a.at > b.at;
  }
};

/// The automaton record word written back to device scratch per drain.
std::uint32_t bucket_state_word(const BucketOwned& o) {
  return (static_cast<std::uint32_t>(o.state) << 8) |
         o.episode[static_cast<std::size_t>(o.state)];
}

/// The counter threads [first, first + kTrieGroupThreads) of a block share:
/// group g is thread first + g's contiguous slice of the block's `slots`, the
/// episodes that thread owns.
DeviceProblem::CounterSlot build_trie_group(const Views& v, core::ChunkRange slots, int threads,
                                            int first) {
  std::vector<core::Episode> episodes;
  std::vector<std::size_t> sizes;
  int readers = 0;
  for (int th = first; th < std::min(first + kTrieGroupThreads, threads); ++th) {
    const core::ChunkRange sub = core::chunk_range(slots.size(), threads, th);
    sizes.push_back(static_cast<std::size_t>(sub.size()));
    readers += sub.size() > 0 ? 1 : 0;
    for (std::int64_t s = slots.begin + sub.begin; s < slots.begin + sub.end; ++s) {
      episodes.push_back(host_episode(v, s));
    }
  }
  DeviceProblem::CounterSlot slot;
  slot.trie =
      std::make_unique<core::TrieCounter>(episodes, sizes, v.semantics, v.expiry, v.db_size);
  slot.readers = readers;
  return slot;
}

// Device port of the host single-scan engine (core/multi_counter).  The
// block owns the contiguous slot range of the first-symbol-sorted episode
// list that launch_geometry assigned it, thread `tid` owns the interleaved
// sub-slice {begin+tid, begin+tid+t, ...}, and every owned automaton is
// filed in a bucket keyed by the symbol it currently awaits, so per-symbol
// work is proportional to bucket occupancy, not to the episode count.  The
// database is staged through shared memory in algorithm-2 fashion (every
// thread reads every symbol, so the buffered path wins for the same reason
// it does there).  Automaton records (state | awaited symbol) live in device
// scratch, one word per episode slot, fetched and written back per drain;
// bucket entry lists, generation tags and the expiry deadline heap live in
// the thread's frame ("local memory"), charged via the kBucket*/kExpiryHeap
// constants.  Expiry mirrors the host engine exactly: lazy deadlines on a
// min-heap, reset-and-re-bucket under episode[0] when a match can no longer
// finish, generation tags invalidating the stale entry left in the old
// bucket.  Trie mode files shared-prefix tokens instead: kTrieGroupThreads
// threads share one host core::TrieCounter, one group each, and each thread
// is charged its own group's op deltas, as a counter per thread would give.
// Contiguous-restart semantics fall back to a dense per-thread scan (its
// mismatch edges let any symbol transition any in-flight automaton, so a
// waiting-symbol index cannot skip work) — still one database pass, counted
// on the host by one lane counter per block, a lane per slot.
// Because the database is never chunked, counts are bit-exact against the
// serial oracle for both semantics and every expiry window.
gpusim::KernelTask algo5_kernel(ThreadCtx& ctx, Views v) {
  ctx.declare_texture_pattern(
      {TexAccessKind::kCoalescedStream, static_cast<double>(v.db_size), /*sharing_key=*/5});

  const int t = ctx.block_dim();
  const int tid = ctx.thread_idx();
  const int L = v.level;
  const core::ChunkRange slots =
      core::chunk_range(v.episode_count, ctx.grid_dim(), ctx.block_idx());
  const bool dense = v.semantics == core::Semantics::kContiguousRestart;

  // Deadlines are computed as first_pos + window; clamp huge windows to the
  // database size before they can overflow.  Any window >= |DB| behaves
  // identically (mirrors core::count_all_single_scan).
  core::ExpiryPolicy expiry = v.expiry;
  if (expiry.enabled()) {
    expiry.window = std::min(expiry.window, v.db_size);
  }

  // Stage owned episodes (device loads; symbol data through the host
  // mirror), then file each automaton under its first symbol.  Trie mode
  // takes a *contiguous* slice of the block's (lexicographically staged)
  // slot range so the owned episodes form runs of shared prefixes; the flat
  // formulation keeps the interleaved slice.  Both assignments give lane
  // `tid` the same owned count, so the workload model's occupancy math is
  // shared.
  const bool trie = v.trie_buckets && !dense;
  std::vector<BucketOwned> owned;
  const auto stage_slot = [&](std::int64_t s) {
    BucketOwned o;
    o.slot = s;
    const std::int64_t off = s * L;
    for (int k = 0; k < L; ++k) {
      (void)v.episodes.load(ctx, static_cast<std::size_t>(off + k));
    }
    o.episode = v.episodes_host.subspan(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(L));
    owned.push_back(o);
  };
  if (v.trie_buckets) {
    const core::ChunkRange sub = core::chunk_range(slots.size(), t, tid);
    for (std::int64_t s = slots.begin + sub.begin; s < slots.begin + sub.end; ++s) {
      stage_slot(s);
    }
  } else {
    for (std::int64_t s = slots.begin + tid; s < slots.end; s += t) stage_slot(s);
  }

  // Bucketed state: a direct-mapped table covers every 8-bit alphabet.
  std::vector<std::vector<BucketEntry>> buckets;
  std::priority_queue<BucketDeadline, std::vector<BucketDeadline>, std::greater<>>
      deadlines;
  std::vector<BucketEntry> drain;
  // The host counter this thread shares.  Dense fallback: the block's, where
  // this thread's episodes are lanes o.slot - slots.begin.  Trie mode: the
  // kTrieGroupThreads threads from `group_first` share the counter in
  // `group`, where this thread's episodes are group tid - group_first.
  const int group_first = tid - tid % kTrieGroupThreads;
  DeviceProblem::CounterSlot* group =
      dense  ? v.slots + ctx.block_idx()
      : trie ? v.slots + ctx.block_idx() * trie_groups_per_block(t) + tid / kTrieGroupThreads
             : nullptr;
  core::TrieCounter::Ops trie_prev{};
  if (trie) {
    // Initial idle filing under episode[0], one per owned slot — the same
    // upfront charge as the flat formulation's first-symbol bucketing.  The
    // counter's own `files` already holds one filing per root subtree, and
    // `trie_prev` starts at zero, so the first buffer charges those again.
    // Pinned simulated figures depend on both charges; they stay.
    ctx.charge(owned.size() * kBucketFileInstr);
  } else if (!dense) {
    buckets.resize(256);
    for (std::uint32_t u = 0; u < owned.size(); ++u) {
      ctx.charge(kBucketFileInstr);
      buckets[owned[u].episode[0]].push_back({u, 0});
    }
  }

  gpusim::SharedArray<Symbol> buffer(ctx, static_cast<std::size_t>(v.buffer_bytes), 0);
  const std::int64_t B = v.buffer_bytes;
  for (std::int64_t base = 0; base < v.db_size; base += B) {
    const std::int64_t n = std::min<std::int64_t>(B, v.db_size - base);
    for (std::int64_t j = tid; j < n; j += t) {
      ctx.charge(kBufferCopyInstr);
      buffer.store(static_cast<std::size_t>(j),
                   v.db_tex.fetch(ctx, static_cast<std::size_t>(base + j)));
    }
    co_await ctx.syncthreads();

    if (!owned.empty()) {
      // Counters are read only at barriers, so each branch charges the
      // staged buffer at once: one shared load per symbol, then the
      // per-symbol loop control in closed form.
      const std::span<const Symbol> staged = buffer.load_span(0, static_cast<std::size_t>(n));
      const auto symbols = static_cast<std::uint64_t>(n);
      if (dense) {
        // Plus one step per owned automaton; each automaton runs over the
        // whole buffer.  The first thread here steps every lane of the block.
        ctx.charge(symbols * (kBufferedScanInstr + owned.size() * kAutomatonStepInstr));
        if (!group->lanes) {
          const auto readers = static_cast<int>(std::min<std::int64_t>(t, slots.size()));
          *group = build_lane_slot(v, slots, readers);  // every thread owning a slot
        }
        advance_once(*group, staged, base);
      } else if (trie) {
        // The first of the group's threads here builds the shared counter
        // (once) and advances it over the buffer.  Each thread then charges
        // one probe per position (loop control, deadline peek, bucket-head
        // lookup — as on the flat path) and its group's op deltas: a token
        // drain re-reads and writes back one automaton record in device
        // scratch like a flat drain, but advances every episode sharing the
        // prefix.
        if (!group->trie) *group = build_trie_group(v, slots, t, group_first);
        advance_once(*group, staged, base);
        const core::TrieCounter::Ops& ops =
            group->trie->ops(static_cast<std::size_t>(tid - group_first));
        const auto delta = [](std::int64_t now, std::int64_t before) {
          return static_cast<std::uint64_t>(now - before);
        };
        const std::uint64_t drains = delta(ops.drains, trie_prev.drains);
        ctx.charge(symbols * kBucketProbeInstr + drains * kTrieDrainInstr +
                   delta(ops.files, trie_prev.files) * kBucketFileInstr +
                   delta(ops.accepts, trie_prev.accepts) * kTrieAcceptInstr +
                   delta(ops.heap_ops, trie_prev.heap_ops) * kExpiryHeapInstr);
        v.scratch.load_store(ctx, static_cast<std::size_t>(owned.front().slot), 0, drains);
        trie_prev = ops;
      } else {
        ctx.charge(symbols * kBucketProbeInstr);
        for (std::size_t j = 0; j < staged.size(); ++j) {
          const Symbol c = staged[j];
          const std::int64_t pos = base + static_cast<std::int64_t>(j);
          // Expire matches that can no longer finish by this position: the
          // serial automaton resets them at step time, so they must be back
          // in their episode[0] bucket before this symbol is dispatched.
          if (expiry.enabled()) {
            while (!deadlines.empty() && deadlines.top().at <= pos) {
              const BucketDeadline d = deadlines.top();
              deadlines.pop();
              ctx.charge(kExpiryHeapInstr);
              BucketOwned& o = owned[d.u];
              if (o.state > 0 && o.first_pos + expiry.window == d.at) {
                o.state = 0;
                ++o.gen;  // the entry filed under the old awaited symbol dies
                v.scratch.store(ctx, static_cast<std::size_t>(o.slot), bucket_state_word(o));
                ctx.charge(kBucketFileInstr);
                buckets[o.episode[0]].push_back({d.u, o.gen});
              }
            }
          }

          auto& bucket = buckets[c];
          if (bucket.empty()) continue;
          // Swap the bucket out before advancing: an automaton whose next
          // awaited symbol is also `c` (repeated-symbol episode) must re-file
          // for the NEXT occurrence, not be stepped twice on this one.
          drain.swap(bucket);
          for (const BucketEntry entry : drain) {
            ctx.charge(kBucketDrainInstr);
            BucketOwned& o = owned[entry.u];
            if (o.gen != entry.gen) continue;  // stale: expired/re-bucketed since
            (void)v.scratch.load(ctx, static_cast<std::size_t>(o.slot));
            if (o.state == 0) {
              o.first_pos = pos;
              // Level-1 episodes complete in this same step, so a deadline
              // could never fire usefully — don't flood the heap.
              if (expiry.enabled() && o.episode.size() > 1) {
                ctx.charge(kExpiryHeapInstr);
                deadlines.push({pos + expiry.window, entry.u});
              }
            }
            ctx.charge(kAutomatonStepInstr);
            ++o.state;
            ++o.gen;
            if (o.state == static_cast<int>(o.episode.size())) {
              ++o.count;
              o.state = 0;
            }
            v.scratch.store(ctx, static_cast<std::size_t>(o.slot), bucket_state_word(o));
            ctx.charge(kBucketFileInstr);
            buckets[o.episode[static_cast<std::size_t>(o.state)]].push_back(
                {entry.u, o.gen});
          }
          drain.clear();
        }
      }
    }
    co_await ctx.syncthreads();
  }

  if (group != nullptr && !owned.empty()) {
    // Lanes follow the block's slots; a trie group's counts list its
    // threads' episodes in thread order.
    const std::vector<std::int64_t> shared =
        dense ? group->lanes->counts() : group->trie->counts();
    const std::int64_t first =
        dense ? slots.begin : slots.begin + core::chunk_range(slots.size(), t, group_first).begin;
    for (BucketOwned& o : owned) {
      o.count = static_cast<std::uint32_t>(shared[static_cast<std::size_t>(o.slot - first)]);
    }
    release(*group);
  }
  for (const BucketOwned& o : owned) {
    ctx.charge(1);
    v.counts.store(ctx, static_cast<std::size_t>(o.slot), o.count);
  }
  co_return;
}

}  // namespace

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kThreadTexture: return "algo1-thread-texture";
    case Algorithm::kThreadBuffered: return "algo2-thread-buffered";
    case Algorithm::kBlockTexture: return "algo3-block-texture";
    case Algorithm::kBlockBuffered: return "algo4-block-buffered";
    case Algorithm::kBlockBucketed: return "algo5-block-bucketed";
  }
  return "?";
}

int algorithm_number(Algorithm algorithm) { return static_cast<int>(algorithm); }

bool is_block_level(Algorithm algorithm) {
  return algorithm == Algorithm::kBlockTexture || algorithm == Algorithm::kBlockBuffered;
}

bool is_buffered(Algorithm algorithm) {
  return algorithm == Algorithm::kThreadBuffered || algorithm == Algorithm::kBlockBuffered ||
         algorithm == Algorithm::kBlockBucketed;
}

bool is_bucketed(Algorithm algorithm) { return algorithm == Algorithm::kBlockBucketed; }

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kThreadTexture, Algorithm::kThreadBuffered, Algorithm::kBlockTexture,
      Algorithm::kBlockBuffered, Algorithm::kBlockBucketed};
  return algorithms;
}

const std::vector<Algorithm>& paper_algorithms() {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kThreadTexture, Algorithm::kThreadBuffered, Algorithm::kBlockTexture,
      Algorithm::kBlockBuffered};
  return algorithms;
}

void validate_launch_params(const MiningLaunchParams& params, int level) {
  const int number = static_cast<int>(params.algorithm);
  if (number < 1 || number > 5) {
    gm::raise_precondition("unknown algorithm number " + std::to_string(number) +
                           " (expected 1..5)");
  }
  if (params.threads_per_block < 1) {
    gm::raise_precondition("threads_per_block must be >= 1, got " +
                           std::to_string(params.threads_per_block));
  }
  if (params.trie_buckets && !is_bucketed(params.algorithm)) {
    gm::raise_precondition("trie_buckets applies to algo5-block-bucketed only, got " +
                           to_string(params.algorithm));
  }
  if (is_buffered(params.algorithm) && params.buffer_bytes < 1) {
    gm::raise_precondition(to_string(params.algorithm) +
                           " stages the database through shared memory and needs "
                           "buffer_bytes >= 1, got " +
                           std::to_string(params.buffer_bytes));
  }
  if (level < 1) {
    gm::raise_precondition("episode level must be >= 1, got " + std::to_string(level));
  }
  if (level > kMaxLevel) {
    gm::raise_precondition(
        "episode level " + std::to_string(level) + " exceeds the GPU kernel limit (kMaxLevel = " +
        std::to_string(kMaxLevel) +
        ", the frame-register episode staging bound); count with a CPU backend or lower the "
        "level cap");
  }
}

LaunchGeometry launch_geometry(Algorithm algorithm, std::int64_t episode_count, int level,
                               int threads_per_block, int buffer_bytes) {
  gm::expects(episode_count > 0, "need at least one episode");
  gm::expects(threads_per_block > 0, "need at least one thread per block");
  if (level < 1 || level > kMaxLevel) {
    gm::raise_precondition("episode level " + std::to_string(level) +
                           " outside kernel support [1, " + std::to_string(kMaxLevel) + "]");
  }

  LaunchGeometry geo;
  if (is_block_level(algorithm)) {
    geo.blocks = episode_count;
    geo.padded_episodes = episode_count;
    // Transfer tables live in device memory; shared memory holds only the
    // staging buffer (Algorithm 4).
    geo.shared_mem_per_block = is_buffered(algorithm) ? buffer_bytes : 0;
  } else if (is_bucketed(algorithm)) {
    // Each block owns up to threads_per_block * kBucketEpisodesPerThread
    // episode slots of the first-symbol-sorted list; threads take interleaved
    // slices, so no padding is needed (a thread may own zero slots).
    const std::int64_t capacity =
        static_cast<std::int64_t>(threads_per_block) * kBucketEpisodesPerThread;
    geo.blocks = (episode_count + capacity - 1) / capacity;
    geo.padded_episodes = episode_count;
    geo.shared_mem_per_block = buffer_bytes;
  } else {
    geo.blocks = (episode_count + threads_per_block - 1) / threads_per_block;
    geo.padded_episodes = geo.blocks * threads_per_block;
    geo.shared_mem_per_block = is_buffered(algorithm) ? buffer_bytes : 0;
  }
  return geo;
}

namespace {

/// Device scratch words a formulation needs (see Views::scratch).
std::size_t scratch_words(const MiningLaunchParams& params, const core::PackedEpisodes& packed) {
  if (is_block_level(params.algorithm)) {
    return static_cast<std::size_t>(packed.episode_count) *
           static_cast<std::size_t>(params.threads_per_block) *
           static_cast<std::size_t>(packed.level);
  }
  if (is_bucketed(params.algorithm)) {
    return static_cast<std::size_t>(packed.episode_count);
  }
  return 1;
}

}  // namespace

core::PackedEpisodes DeviceProblem::stage_episodes(std::span<const core::Episode> episodes,
                                                   const MiningLaunchParams& params,
                                                   std::vector<std::int64_t>& order) {
  gm::expects(!episodes.empty(), "cannot pack an empty episode list");
  const int level = episodes.front().level();
  validate_launch_params(params, level);

  if (!is_bucketed(params.algorithm)) {
    const LaunchGeometry geo =
        launch_geometry(params.algorithm, static_cast<std::int64_t>(episodes.size()), level,
                        params.threads_per_block, params.buffer_bytes);
    return core::pack_episodes(episodes, geo.padded_episodes);
  }

  // Bucketed: pack in first-symbol order so every block's contiguous slot
  // range covers a contiguous symbol range — the block's waiting buckets at
  // scan start and after every expiry reset.  Trie mode sorts by the FULL
  // episode (lexicographic), which refines first-symbol order so the block
  // property still holds and, additionally, every shared-prefix trie subtree
  // becomes a contiguous slot range inside each thread's contiguous slice.
  // `order` records sorted slot -> caller index so extract_counts can hand
  // results back unpermuted.
  order.resize(episodes.size());
  std::iota(order.begin(), order.end(), std::int64_t{0});
  if (params.trie_buckets) {
    std::stable_sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
      return episodes[static_cast<std::size_t>(a)] < episodes[static_cast<std::size_t>(b)];
    });
  } else {
    std::stable_sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
      return episodes[static_cast<std::size_t>(a)].at(0) <
             episodes[static_cast<std::size_t>(b)].at(0);
    });
  }

  core::PackedEpisodes packed;
  packed.level = level;
  packed.episode_count = static_cast<std::int64_t>(episodes.size());
  packed.padded_count = packed.episode_count;
  packed.symbols.reserve(static_cast<std::size_t>(packed.episode_count) *
                         static_cast<std::size_t>(level));
  for (const std::int64_t i : order) {
    const auto& episode = episodes[static_cast<std::size_t>(i)];
    gm::expects(episode.level() == level, "all packed episodes must share one level");
    packed.symbols.insert(packed.symbols.end(), episode.symbols().begin(),
                          episode.symbols().end());
  }
  return packed;
}

DeviceProblem::DeviceProblem(const core::Sequence& database,
                             std::span<const core::Episode> episodes,
                             const MiningLaunchParams& params)
    : params_(params),
      packed_(stage_episodes(episodes, params, order_)),
      db_(std::span<const Symbol>(database)),
      episodes_(std::span<const Symbol>(packed_.symbols)),
      counts_(static_cast<std::size_t>(packed_.padded_count)),
      scratch_(scratch_words(params, packed_)),
      db_size_(static_cast<std::int64_t>(database.size())) {
  gm::expects(!database.empty(), "database must be non-empty");
  for (const Symbol s : database) {
    gm::expects(s < core::PackedEpisodes::kSentinel,
                "database symbol collides with the padding sentinel");
  }
  const LaunchGeometry geo =
      launch_geometry(params.algorithm, packed_.episode_count, packed_.level,
                      params.threads_per_block, params.buffer_bytes);
  config_.grid = gpusim::Dim3(static_cast<int>(geo.blocks));
  config_.block = gpusim::Dim3(params.threads_per_block);
  config_.shared_mem_per_block = geo.shared_mem_per_block;
  config_.registers_per_thread = kRegistersPerThread;
  if (is_block_level(params.algorithm)) {
    gm::expects(params.threads_per_block <= db_size_,
                "block-level kernels need at least one symbol per thread");
  }
}

gpusim::KernelFn DeviceProblem::kernel() {
  Views v;
  v.db_tex = db_.texture();
  v.episodes = episodes_.global();
  v.episodes_host = packed_.symbols;
  v.counts = counts_.global();
  v.scratch = scratch_.global();
  v.db_size = db_size_;
  v.episode_count = packed_.episode_count;
  v.level = packed_.level;
  v.semantics = params_.semantics;
  v.expiry = params_.expiry;
  v.buffer_bytes = params_.buffer_bytes;
  v.trie_buckets = params_.trie_buckets;
  if (counts_on_block_lanes(params_) || params_.trie_buckets) {
    const std::int64_t per_block = counts_on_block_lanes(params_)
                                       ? 1
                                       : trie_groups_per_block(params_.threads_per_block);
    slots_ =
        std::vector<CounterSlot>(static_cast<std::size_t>(config_.total_blocks() * per_block));
    v.slots = slots_.data();
  }

  switch (params_.algorithm) {
    case Algorithm::kThreadTexture:
      return [v](ThreadCtx& ctx) { return algo1_kernel(ctx, v); };
    case Algorithm::kThreadBuffered:
      return [v](ThreadCtx& ctx) { return algo2_kernel(ctx, v); };
    case Algorithm::kBlockTexture:
      return [v](ThreadCtx& ctx) { return algo3_kernel(ctx, v); };
    case Algorithm::kBlockBuffered:
      return [v](ThreadCtx& ctx) { return algo4_kernel(ctx, v); };
    case Algorithm::kBlockBucketed:
      return [v](ThreadCtx& ctx) { return algo5_kernel(ctx, v); };
  }
  gm::raise_invariant("unhandled algorithm");
}

std::vector<std::int64_t> DeviceProblem::extract_counts() const {
  std::vector<std::int64_t> out(static_cast<std::size_t>(packed_.episode_count), 0);
  const auto host = counts_.host();
  for (std::int64_t i = 0; i < packed_.episode_count; ++i) {
    // Bucketed staging sorted the episodes by first symbol; hand counts back
    // in the caller's order.
    const std::int64_t caller = order_.empty() ? i : order_[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(caller)] =
        static_cast<std::int64_t>(host[static_cast<std::size_t>(i)]);
  }
  return out;
}

MiningRun run_mining_kernel(const gpusim::Engine& engine, const core::Sequence& database,
                            std::span<const core::Episode> episodes,
                            const MiningLaunchParams& params) {
  DeviceProblem problem(database, episodes, params);
  const gpusim::KernelFn kernel = problem.kernel();
  MiningRun run;
  run.launch = engine.launch(problem.launch_config(), kernel);
  run.counts = problem.extract_counts();
  return run;
}

}  // namespace gm::kernels
