// Shared-prefix co-counting: a node-free prefix-trie episode engine.
//
// Apriori level-L candidates share (L-1)-prefixes by construction, yet the
// single-scan engine (`core/multi_counter`) still advances one automaton per
// episode.  This engine advances *tokens*: one in-flight partial match of
// the episodes that matched the same prefix from the same start, in
// lockstep, so one drain advances them all and expiry acts on the token as a
// unit.  Per-symbol work shrinks from O(|episodes| / |alphabet|) toward
// O(|distinct prefixes| / |alphabet|), and counts equal `SerialCounter`'s: a
// prefix may host several tokens, as under non-overlapped semantics one
// episode can accept and restart while its prefix-siblings wait deeper.
//
// A counter holds at most kMaxEpisodes = 64 episodes, so every episode set
// is one uint64_t over the lexicographic episode order.  A token is (depth,
// first, members); its members share their first `depth` symbols, so no trie
// node is built.  Per-depth symbol masks (`at[d][s]`: the episodes whose
// symbol d is s) and per-level end masks do the trie's work: a drain on s
// moves `members & at[depth][s]` one symbol deeper, those of that level
// accept, and the rest are filed once under each distinct symbol they await
// next.  Each symbol keeps a mask of the token slots waiting on it (member
// sets are disjoint and non-empty, so 64 slots suffice) and of the idle
// episodes it would start.  The waiting set is taken before a symbol is
// dispatched, so a repeated prefix symbol steps once per event.
// kContiguousRestart is refused: its mismatch edges defeat any
// waiting-symbol index (the flat engine's dense path serves it).
//
// Groups: a counter may split its episodes into consecutive groups and count
// each as a counter of its own would (sort, tokens, `Ops` and counts), in one
// pass over the stream.  gpusim's trie kernel (kernels/mining_kernels,
// `gpusim-algo5-trie`), the engine's one production caller, runs a counter
// per 8 simulated threads, one group of at most kBucketEpisodesPerThread = 8
// episodes per thread, and charges each thread from its group's `Ops`.  On
// the host the engine loses to the flat single scan on every measured shape.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

/// Distinct-prefix count over total automaton states, in (0, 1]: 1.0 means no
/// two candidates share any prefix (the trie degenerates to the flat engine),
/// 1/|episodes|-ish means everything rides one shared chain.  In lexicographic
/// order each episode adds (level - longest common prefix with the previous
/// episode) distinct prefixes, so no trie is built.  This is the
/// candidate-set-shape signal the planner's trie cost curves consume.
[[nodiscard]] double prefix_compression(std::span<const Episode> episodes);

/// Incremental shared-prefix counting engine over at most kMaxEpisodes
/// episodes: feed the stream one symbol at a time via `advance()`, or a
/// buffer at a time via `advance_batch()`.  `database_size` clamps expiry
/// deadlines exactly as the single-scan engine does (any window >= |DB|
/// behaves identically).
class TrieCounter {
 public:
  /// Episodes one counter holds: a member set is one uint64_t.
  static constexpr std::size_t kMaxEpisodes = 64;

  /// Work counters, cumulative across `advance()` calls.  The gpusim trie
  /// kernel charges instruction costs from their deltas over each staged
  /// buffer, so these define the unit of work the cost models price.
  struct Ops {
    std::int64_t probes = 0;       // bucket probes (one per sparse position)
    std::int64_t drains = 0;       // live token drains (each one a prefix step)
    std::int64_t files = 0;        // waiting filings + idle-set returns
    std::int64_t accepts = 0;      // completed episode occurrences
    std::int64_t heap_ops = 0;     // deadline registrations + fired expiries
    std::int64_t starts = 0;       // episodes swept into a fresh root token
  };

  /// One group.  Refuses Semantics::kContiguousRestart (see the file comment)
  /// and more than kMaxEpisodes episodes.
  TrieCounter(std::span<const Episode> episodes, Semantics semantics, ExpiryPolicy expiry,
              std::int64_t database_size);

  /// Consecutive groups of `group_sizes[g]` episodes (empty groups allowed),
  /// each counted as the one-group counter over its episodes would count it,
  /// `ops(g)` included.  The sizes must sum to the episode count.
  TrieCounter(std::span<const Episode> episodes, std::span<const std::size_t> group_sizes,
              Semantics semantics, ExpiryPolicy expiry, std::int64_t database_size);

  void advance(Symbol symbol, std::int64_t pos);

  /// Feed a contiguous batch: symbols[i] is at position start_pos + i.
  /// Exactly equivalent to advancing one symbol at a time, `ops()` included;
  /// it only counts the probe for a symbol nothing waits or idles on when no
  /// token is due to expire.
  void advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos);

  /// Per-episode counts in the ORIGINAL input order.
  [[nodiscard]] std::vector<std::int64_t> counts() const;
  /// Work counters of group `group` (of the only group by default).
  [[nodiscard]] const Ops& ops(std::size_t group = 0) const { return groups_[group].ops; }

 private:
  /// One in-flight partial match: the episodes in `members`, all of group
  /// `group`, have matched exactly their first `depth` symbols, starting at
  /// `first`.
  struct Token {
    std::int64_t first = 0;
    std::uint64_t members = 0;
    std::uint32_t depth = 0;
    std::uint32_t group = 0;
  };
  struct Group {
    std::uint64_t members = 0;
    Ops ops;
  };
  /// Per symbol, side by side so the batch loop's empty test is one load.
  struct SymbolMasks {
    std::uint64_t waiting = 0;  // token slots filed under the symbol
    std::uint64_t idle = 0;     // state-0 episodes whose first symbol it is
  };
  static constexpr std::uint32_t kNewSlot = kMaxEpisodes;

  void step(Symbol symbol, std::int64_t pos);
  void arrive(Token token, std::uint32_t slot);
  void expire_due(std::int64_t pos);
  /// Symbol `depth` of the lowest episode in `members`.
  [[nodiscard]] Symbol symbol_of(std::uint64_t members, std::uint32_t depth) const;

  std::vector<std::array<std::uint64_t, 256>> at_;  // at_[d][s]: symbol d is s
  std::vector<std::uint64_t> ends_;  // ends_[d]: episodes of level d
  std::vector<Symbol> spelled_;      // sorted episode k's symbols from k * stride_
  std::size_t stride_ = 0;           // the longest level
  std::vector<std::uint32_t> order_;  // sorted index -> input index
  std::vector<Group> groups_;
  std::array<std::uint32_t, kMaxEpisodes> group_of_{};  // sorted index -> group
  ExpiryPolicy expiry_;
  std::array<std::int64_t, kMaxEpisodes> counts_{};  // sorted order
  std::array<Token, kMaxEpisodes> tokens_{};
  std::uint64_t live_ = 0;  // occupied token slots
  std::array<SymbolMasks, 256> symbols_{};
  // No live token expires before this position.  A lower bound: tokens that
  // finish early leave it low until the next sweep recomputes it.
  std::int64_t next_due_ = std::numeric_limits<std::int64_t>::max();
};

/// Count every episode in one pass using the shared-prefix engine, one
/// counter per consecutive run of kMaxEpisodes episodes.  Exactly equals
/// `count_occurrences(episodes[i], ...)` element-for-element for every input
/// the engine accepts (non-overlapped semantics, any expiry).
[[nodiscard]] std::vector<std::int64_t> count_all_trie_scan(
    std::span<const Episode> episodes, std::span<const Symbol> database, Semantics semantics,
    ExpiryPolicy expiry = {});

}  // namespace gm::core
