// Shared-prefix co-counting: a prefix-trie episode engine.
//
// Apriori level-L candidates share (L-1)-prefixes by construction, yet the
// single-scan engine (`core/multi_counter`) still advances one automaton per
// episode.  This engine folds the candidate set into a prefix trie and
// advances *tokens* instead: a token is one in-flight partial match pinned to
// a trie node, carrying the set of episodes that are mid-match with exactly
// that prefix and the same match start.  One token drain advances every
// episode sharing the prefix, shrinking per-symbol work from
// O(|episodes| / |alphabet|) toward O(|distinct prefixes| / |alphabet|).
//
// Why tokens and not per-node state: under non-overlapped semantics two
// episodes through the same prefix node can be desynchronized (one accepted
// and restarted while the other still waits deeper), so a node may host
// several tokens with different match starts.  Episodes inside one token are
// provably in lockstep — same matched prefix, same first_pos — so expiry and
// advancement act on the token as a unit and bit-exactness vs `SerialCounter`
// is preserved for every input.
//
// Representation: one counter holds at most kMaxEpisodes = 64 episodes, so
// every episode set is one uint64_t over the lexicographic episode order, in
// which each subtree is a contiguous bit range.  A token is a fixed slot (trie
// node, match start, member mask) and a drain toward a child is one AND;
// member sets are disjoint and non-empty, so 64 slots always suffice.  Each
// symbol keeps a mask of the token slots waiting on it (a token is filed
// under exactly the child edges it has members behind) and a mask of the idle
// episodes it would start.  64 is enough because the engine's one production
// caller, gpusim's trie kernel, gives each simulated thread at most
// kBucketEpisodesPerThread = 8 episodes; `count_all_trie_scan` splits larger
// sets into consecutive counters.  As in `multi_counter`, the waiting set is
// taken before a symbol is dispatched, so a repeated prefix symbol steps once
// per event.  kContiguousRestart is refused: its mismatch edges defeat any
// waiting-symbol index, so there is nothing for a trie to share (the flat
// engine's dense path serves it).
//
// On the host this engine loses to the flat single scan on every measured
// shape; it exists as the functional model behind gpusim's trie mode
// (kernels/mining_kernels, `gpusim-algo5-trie`), whose device charges come
// from its `Ops` counters.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

/// Prefix trie over a candidate set.  Nodes are distinct nonempty prefixes;
/// episode indices are re-ordered lexicographically (see `order()`) so that
/// every subtree covers the contiguous sorted-index range `[lo, hi)`.
class EpisodeTrie {
 public:
  struct Edge {
    Symbol symbol = 0;
    std::uint32_t node = 0;
  };

  struct Node {
    Symbol first_symbol = 0;  // depth-1 ancestor's edge symbol (== prefix[0])
    std::uint32_t lo = 0;  // sorted-episode index range covered by this subtree
    std::uint32_t hi = 0;
    std::vector<Edge> children;             // sorted by symbol
    std::vector<std::uint32_t> terminals;   // sorted indices of episodes ending here
  };

  /// Builds the trie.  Accepts any order (indices are sorted internally) and
  /// any mix of levels; duplicates become distinct terminals of one node.
  explicit EpisodeTrie(std::span<const Episode> episodes);

  [[nodiscard]] const Node& node(std::uint32_t index) const { return nodes_[index]; }
  [[nodiscard]] const Node& root() const { return nodes_.front(); }
  /// Root child reached by `symbol`, or 0 (the root itself) when absent.
  [[nodiscard]] std::uint32_t root_child(Symbol symbol) const {
    return root_children_[symbol];
  }
  /// Number of nodes including the root; `node_count() - 1` distinct prefixes.
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Sum of episode levels == total automaton states the flat engine tracks.
  [[nodiscard]] std::int64_t total_symbols() const { return total_symbols_; }
  /// `order()[k]` = original index of the k-th episode in sorted order.
  [[nodiscard]] std::span<const std::uint32_t> order() const { return order_; }

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> order_;
  std::array<std::uint32_t, 256> root_children_{};
  std::int64_t total_symbols_ = 0;
};

/// Distinct-prefix count over total automaton states, in (0, 1]: 1.0 means no
/// two candidates share any prefix (the trie degenerates to the flat engine),
/// 1/|episodes|-ish means everything rides one shared chain.  This is the
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

  /// Refuses Semantics::kContiguousRestart (see the file comment) and more
  /// than kMaxEpisodes episodes.
  TrieCounter(std::span<const Episode> episodes, Semantics semantics, ExpiryPolicy expiry,
              std::int64_t database_size);

  void advance(Symbol symbol, std::int64_t pos);

  /// Feed a contiguous batch: symbols[i] is at position start_pos + i.
  /// Exactly equivalent to advancing one symbol at a time, `ops()` included;
  /// it only counts the probe for a symbol nothing waits or idles on when no
  /// token is due to expire.
  void advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos);

  /// Per-episode counts in the ORIGINAL input order.
  [[nodiscard]] std::vector<std::int64_t> counts() const;
  [[nodiscard]] const Ops& ops() const { return ops_; }

 private:
  /// One in-flight partial match: the episodes in `members` have matched
  /// exactly the prefix of `node`, all starting at `first`.
  struct Token {
    std::uint32_t node = 0;
    std::int64_t first = 0;
    std::uint64_t members = 0;
  };
  /// A trie node: the episodes ending at it and its slice of `children_`.
  struct Node {
    std::uint64_t terminals = 0;
    std::uint32_t child_begin = 0;
    std::uint32_t child_end = 0;
    Symbol first_symbol = 0;  // the depth-1 ancestor's edge symbol
  };
  /// An edge: the child node and the episodes in its subtree.
  struct Child {
    std::uint64_t subtree = 0;
    std::uint32_t node = 0;
    Symbol symbol = 0;
  };
  /// Per symbol, side by side so the batch loop's empty test is one load.
  struct SymbolMasks {
    std::uint64_t waiting = 0;  // token slots filed under the symbol
    std::uint64_t idle = 0;     // state-0 episodes whose first symbol it is
  };
  static constexpr std::uint32_t kNewSlot = kMaxEpisodes;

  void step(Symbol symbol, std::int64_t pos);
  [[nodiscard]] const Child& child(std::uint32_t node, Symbol symbol) const;
  void arrive(std::uint32_t node, std::int64_t first, std::uint64_t members, std::uint32_t slot);
  void expire_due(std::int64_t pos);

  std::vector<Node> nodes_;  // [0] is the root
  std::vector<Child> children_;
  std::vector<std::uint32_t> order_;  // EpisodeTrie::order()
  ExpiryPolicy expiry_;
  Ops ops_;
  std::array<std::int64_t, kMaxEpisodes> counts_{};  // lexicographic order
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
