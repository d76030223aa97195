#include "core/episode_trie.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace gm::core {

// ---------------------------------------------------------------------------
// EpisodeTrie
// ---------------------------------------------------------------------------

EpisodeTrie::EpisodeTrie(std::span<const Episode> episodes) {
  gm::expects(episodes.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many episodes for the trie index");
  order_.resize(episodes.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return episodes[a] < episodes[b];  // lexicographic on symbols
  });

  nodes_.emplace_back();  // root: empty prefix, covers everything
  nodes_.front().hi = static_cast<std::uint32_t>(episodes.size());
  root_children_.fill(0);

  // Consecutive sorted episodes share a path prefix, so insertion is one walk
  // down the shared part plus fresh nodes for the new suffix: linear overall.
  std::vector<std::uint32_t> path;  // nodes of the previous episode's spine
  std::span<const Symbol> prev;
  for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(order_.size()); ++k) {
    const std::span<const Symbol> symbols = episodes[order_[k]].symbols();
    total_symbols_ += static_cast<std::int64_t>(symbols.size());
    std::size_t shared = 0;
    while (shared < symbols.size() && shared < prev.size() &&
           symbols[shared] == prev[shared]) {
      ++shared;
    }
    path.resize(shared);
    for (const std::uint32_t n : path) nodes_[n].hi = k + 1;
    for (std::size_t d = shared; d < symbols.size(); ++d) {
      const std::uint32_t parent = path.empty() ? 0 : path.back();
      const auto child = static_cast<std::uint32_t>(nodes_.size());
      Node node;
      node.first_symbol = path.empty() ? symbols[d] : nodes_[path.front()].first_symbol;
      node.lo = k;
      node.hi = k + 1;
      nodes_.push_back(std::move(node));
      nodes_[parent].children.push_back({symbols[d], child});
      if (parent == 0) root_children_[symbols[d]] = child;
      path.push_back(child);
    }
    if (!path.empty()) nodes_[path.back()].terminals.push_back(k);
    prev = symbols;
  }
}

double prefix_compression(std::span<const Episode> episodes) {
  if (episodes.empty()) return 1.0;
  const EpisodeTrie trie(episodes);
  if (trie.total_symbols() == 0) return 1.0;
  return static_cast<double>(trie.node_count() - 1) /
         static_cast<double>(trie.total_symbols());
}

// ---------------------------------------------------------------------------
// TrieCounter
// ---------------------------------------------------------------------------

namespace {

std::uint64_t bit(std::uint32_t index) { return std::uint64_t{1} << index; }

/// Bits [lo, hi) of a 64-bit mask, lo < hi <= 64.
std::uint64_t range_mask(std::uint32_t lo, std::uint32_t hi) {
  const std::uint64_t below_hi = hi == 64 ? ~std::uint64_t{0} : bit(hi) - 1;
  return below_hi & ~(bit(lo) - 1);
}

}  // namespace

TrieCounter::TrieCounter(std::span<const Episode> episodes, Semantics semantics,
                         ExpiryPolicy expiry, std::int64_t database_size)
    : expiry_(expiry) {
  gm::expects(semantics != Semantics::kContiguousRestart,
              "the trie engine has no contiguous-restart path (use the flat engine)");
  gm::expects(episodes.size() <= kMaxEpisodes,
              "a trie counter holds at most 64 episodes (one uint64_t member mask); "
              "count_all_trie_scan splits larger sets");
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  const EpisodeTrie trie(episodes);
  // Same overflow guard as the single-scan engine: deadlines are
  // first + window, and any window >= |DB| behaves identically.
  if (expiry_.enabled()) expiry_.window = std::min(expiry_.window, database_size);
  order_.assign(trie.order().begin(), trie.order().end());
  nodes_.resize(trie.node_count());
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    const EpisodeTrie::Node& from = trie.node(n);
    Node& node = nodes_[n];
    node.first_symbol = from.first_symbol;
    for (const std::uint32_t e : from.terminals) node.terminals |= bit(e);
    node.child_begin = static_cast<std::uint32_t>(children_.size());
    for (const EpisodeTrie::Edge& edge : from.children) {
      const EpisodeTrie::Node& to = trie.node(edge.node);
      children_.push_back({range_mask(to.lo, to.hi), edge.node, edge.symbol});
    }
    node.child_end = static_cast<std::uint32_t>(children_.size());
  }
  // Every episode starts idle; each root subtree files once.
  for (std::uint32_t c = nodes_[0].child_begin; c < nodes_[0].child_end; ++c) {
    symbols_[children_[c].symbol].idle = children_[c].subtree;
    ++ops_.files;
  }
}

const TrieCounter::Child& TrieCounter::child(std::uint32_t node, Symbol symbol) const {
  return *std::lower_bound(
      children_.begin() + nodes_[node].child_begin, children_.begin() + nodes_[node].child_end,
      symbol, [](const Child& c, Symbol s) { return c.symbol < s; });
}

/// `members` have just matched `node`'s prefix, in a match that started at
/// `first`: accept those ending there, then file the rest as the token in
/// `slot` (a free one for kNewSlot) under every child edge they are behind.
/// Filings go into the live waiting masks, so a repeated prefix symbol waits
/// for its NEXT occurrence.
void TrieCounter::arrive(std::uint32_t node_index, std::int64_t first, std::uint64_t members,
                         std::uint32_t slot) {
  const Node& node = nodes_[node_index];
  if (const std::uint64_t done = members & node.terminals) {
    for (std::uint64_t d = done; d != 0; d &= d - 1) ++counts_[std::countr_zero(d)];
    const int accepted = std::popcount(done);
    ops_.accepts += accepted;
    ops_.files += accepted;  // each returns to its idle set
    symbols_[node.first_symbol].idle |= done;
    members &= ~done;
  }
  if (members == 0) {
    if (slot != kNewSlot) live_ &= ~bit(slot);
    return;
  }
  if (slot == kNewSlot) {
    // Member sets are disjoint and non-empty, so at most 64 tokens are live.
    assert(live_ != ~std::uint64_t{0} && "every token slot is live");
    slot = static_cast<std::uint32_t>(std::countr_one(live_));
    live_ |= bit(slot);
  }
  tokens_[slot] = {node_index, first, members};
  for (std::uint32_t c = node.child_begin; c < node.child_end; ++c) {
    const bool behind = (members & children_[c].subtree) != 0;
    symbols_[children_[c].symbol].waiting |= std::uint64_t{behind} << slot;
    ops_.files += behind;
  }
}

/// Return every due token's members to their idle set and free its slot.
/// Members go back BEFORE dispatch, so they can catch a fresh first symbol at
/// this very position, exactly the single-scan re-bucketing.  Every live
/// token's `first` is the position of some root dispatch (child tokens
/// inherit it), so `next_due_` only drops when a root token is made; this
/// pass recomputes it from the survivors.
void TrieCounter::expire_due(std::int64_t pos) {
  next_due_ = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t l = live_; l != 0; l &= l - 1) {
    const auto slot = static_cast<std::uint32_t>(std::countr_zero(l));
    const Token& token = tokens_[slot];
    const std::int64_t due = token.first + expiry_.window;
    if (due > pos) {
      next_due_ = std::min(next_due_, due);
      continue;
    }
    const Node& node = nodes_[token.node];
    symbols_[node.first_symbol].idle |= token.members;
    // One idle return per maximal run of consecutive members: the unit the
    // kernel charges, as a range of sorted episodes returns in one piece.
    ops_.files += std::popcount(token.members & ~(token.members << 1));
    ++ops_.heap_ops;
    for (std::uint32_t c = node.child_begin; c < node.child_end; ++c) {
      symbols_[children_[c].symbol].waiting &= ~bit(slot);
    }
    live_ &= ~bit(slot);
  }
}

void TrieCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  ops_.probes += static_cast<std::int64_t>(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const std::int64_t pos = start_pos + static_cast<std::int64_t>(i);
    const SymbolMasks& masks = symbols_[symbols[i]];
    // Nothing waits on this symbol, nothing idles under it and no token is
    // due: a step would only count the probe.
    if ((masks.waiting | masks.idle) == 0 && pos < next_due_) continue;
    step(symbols[i], pos);
  }
}

void TrieCounter::advance(Symbol symbol, std::int64_t pos) {
  ++ops_.probes;
  step(symbol, pos);
}

void TrieCounter::step(Symbol symbol, std::int64_t pos) {
  if (pos >= next_due_) expire_due(pos);

  // Take the waiting set first: everything filed from here on (the fresh root
  // token, advanced child tokens) awaits the NEXT occurrence of `symbol`,
  // never a second step on this one.
  SymbolMasks& here = symbols_[symbol];
  const std::uint64_t waiting = std::exchange(here.waiting, 0);

  // Root dispatch: every idle episode whose first symbol is `symbol` starts a
  // match together, as ONE token.
  if (const std::uint64_t idle = std::exchange(here.idle, 0)) {
    ops_.starts += std::popcount(idle);
    if (expiry_.enabled()) {
      next_due_ = std::min(next_due_, pos + expiry_.window);
      ++ops_.heap_ops;
    }
    arrive(child(0, symbol).node, pos, idle, kNewSlot);
  }

  // Drain waiting tokens: each moves its members behind the `symbol` child
  // on to that child, keeping its slot when no member stays behind.  A child
  // token inherits its root dispatch's `first`, so its expiry is already
  // covered by `next_due_`.
  for (std::uint64_t w = waiting; w != 0; w &= w - 1) {
    const auto slot = static_cast<std::uint32_t>(std::countr_zero(w));
    Token& token = tokens_[slot];
    const Child& next = child(token.node, symbol);
    ++ops_.drains;
    const std::uint64_t moved = token.members & next.subtree;
    token.members &= ~moved;
    arrive(next.node, token.first, moved, token.members == 0 ? slot : kNewSlot);
  }
}

std::vector<std::int64_t> TrieCounter::counts() const {
  std::vector<std::int64_t> result(order_.size(), 0);
  for (std::size_t k = 0; k < order_.size(); ++k) result[order_[k]] = counts_[k];
  return result;
}

std::vector<std::int64_t> count_all_trie_scan(std::span<const Episode> episodes,
                                              std::span<const Symbol> database,
                                              Semantics semantics, ExpiryPolicy expiry) {
  std::vector<std::int64_t> counts;
  counts.reserve(episodes.size());
  for (std::size_t begin = 0; begin < episodes.size(); begin += TrieCounter::kMaxEpisodes) {
    TrieCounter counter(
        episodes.subspan(begin, std::min(TrieCounter::kMaxEpisodes, episodes.size() - begin)),
        semantics, expiry, static_cast<std::int64_t>(database.size()));
    counter.advance_batch(database, 0);
    const std::vector<std::int64_t> part = counter.counts();
    counts.insert(counts.end(), part.begin(), part.end());
  }
  return counts;
}

}  // namespace gm::core
