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
// The machinery mirrors `multi_counter` deliberately: the same 256-entry
// symbol -> waiting-bucket index (buckets hold trie tokens, not automata), the
// same swap-the-bucket-before-draining discipline for repeated-symbol
// prefixes, and the same generation-tagged lazy expiry deadlines.
// kContiguousRestart is refused: its mismatch edges defeat any waiting-symbol
// index, so there is nothing for a trie to share (the flat engine's dense
// path serves it).
//
// On the host this engine loses to the flat single scan on every measured
// shape; it exists as the functional model behind gpusim's trie mode
// (kernels/mining_kernels, `gpusim-algo5-trie`), whose device charges come
// from its `Ops` counters.
//
// Episode sets are represented as interval lists over the lexicographically
// sorted candidate order, where every subtree is one contiguous index range:
// splitting a token toward a child is interval arithmetic, and a whole idle
// subtree restarts as a single interval.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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

/// Incremental shared-prefix counting engine: feed the stream one symbol at a
/// time via `advance()`, or a buffer at a time via `advance_batch()`.
/// `database_size` clamps expiry deadlines exactly as the single-scan engine
/// does (any window >= |DB| behaves identically).
class TrieCounter {
 public:
  /// Work counters, cumulative across `advance()` calls.  The gpusim trie
  /// kernel charges instruction costs from their deltas over each staged
  /// buffer, so these define the unit of work the cost models price.
  struct Ops {
    std::int64_t probes = 0;       // bucket probes (one per sparse position)
    std::int64_t drains = 0;       // live token drains (each one a prefix step)
    std::int64_t files = 0;        // bucket filings + idle-set returns
    std::int64_t accepts = 0;      // completed episode occurrences
    std::int64_t heap_ops = 0;     // deadline pushes + fired expiries
    std::int64_t starts = 0;       // episodes swept into a fresh root token
  };

  /// Refuses Semantics::kContiguousRestart (see the file comment).
  TrieCounter(std::span<const Episode> episodes, Semantics semantics, ExpiryPolicy expiry,
              std::int64_t database_size);
  ~TrieCounter();

  void advance(Symbol symbol, std::int64_t pos);

  /// Feed a contiguous batch: symbols[i] is at position start_pos + i.
  /// Exactly equivalent to advancing one symbol at a time, `ops()` included;
  /// it only counts the probe for a symbol nothing waits or idles on when no
  /// deadline is due.
  void advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos);

  /// Per-episode counts in the ORIGINAL input order.
  [[nodiscard]] std::vector<std::int64_t> counts() const;
  [[nodiscard]] const Ops& ops() const { return ops_; }

 private:
  struct Impl;

  ExpiryPolicy expiry_;
  Ops ops_;
  std::unique_ptr<EpisodeTrie> trie_;
  std::unique_ptr<Impl> impl_;
};

/// Count every episode in one pass using the shared-prefix engine.  Exactly
/// equals `count_occurrences(episodes[i], ...)` element-for-element for every
/// input the engine accepts (non-overlapped semantics, any expiry).
[[nodiscard]] std::vector<std::int64_t> count_all_trie_scan(
    std::span<const Episode> episodes, std::span<const Symbol> database, Semantics semantics,
    ExpiryPolicy expiry = {});

}  // namespace gm::core
