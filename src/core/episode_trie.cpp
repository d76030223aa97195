#include "core/episode_trie.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace gm::core {
namespace {

/// Contiguous run [lo, hi) of lexicographically sorted episode indices.
struct Interval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// Removes episode `e` from a sorted disjoint interval list.  Returns false
/// (list untouched) when `e` is not a member.
bool remove_point(std::vector<Interval>& intervals, std::uint32_t e) {
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), e,
      [](std::uint32_t value, const Interval& iv) { return value < iv.lo; });
  if (it == intervals.begin()) return false;
  --it;
  if (e >= it->hi) return false;
  const Interval old = *it;
  if (old.lo == e && old.hi == e + 1) {
    intervals.erase(it);
  } else if (old.lo == e) {
    it->lo = e + 1;
  } else if (old.hi == e + 1) {
    it->hi = e;
  } else {
    it->hi = e;
    intervals.insert(it + 1, Interval{e + 1, old.hi});
  }
  return true;
}

/// Moves `intervals ∩ [lo, hi)` into `out` (appended in order), keeping the
/// rest.  At most the two boundary intervals are split.
void extract_range(std::vector<Interval>& intervals, std::uint32_t lo, std::uint32_t hi,
                   std::vector<Interval>& out) {
  auto first = std::partition_point(intervals.begin(), intervals.end(),
                                    [&](const Interval& iv) { return iv.hi <= lo; });
  auto it = first;
  Interval right_keep{0, 0};
  while (it != intervals.end() && it->lo < hi) {
    out.push_back({std::max(it->lo, lo), std::min(it->hi, hi)});
    if (it->hi > hi) right_keep = {hi, it->hi};
    ++it;
  }
  if (first == it) return;  // nothing overlapped
  if (first->lo < lo) {
    first->hi = lo;  // keep the left remainder in place
    ++first;
  }
  it = intervals.erase(first, it);
  if (right_keep.hi > right_keep.lo) intervals.insert(it, right_keep);
}

/// Sorts a batch of returned intervals and coalesces adjacent runs.  Kept out
/// of line: inlined into its one caller, TrieCounter::advance(), it made the
/// paper-shape trie kernel ~7% slower (GCC 12 -O3, 4-vCPU x86-64).
[[gnu::noinline]] void normalize(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t w = 0;
  for (std::size_t r = 0; r < intervals.size(); ++r) {
    if (w > 0 && intervals[w - 1].hi == intervals[r].lo) {
      intervals[w - 1].hi = intervals[r].hi;
    } else {
      intervals[w++] = intervals[r];
    }
  }
  intervals.resize(w);
}

std::int64_t member_count(const std::vector<Interval>& intervals) {
  std::int64_t total = 0;
  for (const Interval& iv : intervals) total += iv.hi - iv.lo;
  return total;
}

}  // namespace

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

struct BucketEntry {
  std::uint32_t token = 0;
  std::uint64_t gen = 0;
};

}  // namespace

// Token storage is struct-of-arrays: a token — one in-flight partial match,
// a trie node plus the episodes mid-match with exactly that prefix since
// `first_pos`, all in lockstep — is a dense id into the parallel `tok_*`
// arrays.  Member interval vectors are pooled: release() clears but keeps
// capacity and the freelist hands the storage to the next token, so steady
// state allocates nothing per event.  `tok_gen` invalidates bucket entries
// left behind by released tokens (a token files under several child edges at
// once, so physical removal would need per-edge backrefs; one generation
// compare per drained entry is cheaper).
//
// Expiry is a monotone deadline queue plus a linear sweep.  Every live
// token's first_pos is the stream position of some root dispatch, and root
// dispatches happen at strictly increasing positions, so pushing
// `first_pos + window` at root-token creation yields a nondecreasing queue —
// a FIFO of plain positions, no token refs, no heap.  When the front
// matures, one linear pass over the token arrays expires every due token
// (child tokens inherited their root's first_pos, so the sweep catches them
// under the same queue entry).  The constructor clamps the window to the
// database size, so `first_pos + window` cannot overflow.
struct TrieCounter::Impl {
  std::vector<std::int64_t> counts;  // sorted-episode order

  // SoA token arena, indexed by dense token id.
  std::vector<std::uint32_t> tok_node;
  std::vector<std::int64_t> tok_first;
  std::vector<std::uint64_t> tok_gen;
  std::vector<std::vector<Interval>> tok_members;  // empty <=> not live
  std::vector<std::uint32_t> free_tokens;

  // Compact live-token list (swap-remove via tok_live_idx backrefs): the
  // expiry sweep touches exactly the in-flight tokens, not the arena's peak.
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> tok_live_idx;

  // Symbol is 8-bit, so direct-mapped tables cover every alphabet: waiting
  // tokens by awaited symbol, and idle (state-0) episodes by first symbol.
  std::vector<std::vector<BucketEntry>> buckets{256};
  std::vector<std::vector<Interval>> idle{256};
  std::vector<BucketEntry> scratch;

  // Monotone deadline FIFO: live window is [deadline_head, deadlines.size()).
  std::vector<std::int64_t> deadlines;
  std::size_t deadline_head = 0;

  [[nodiscard]] bool deadlines_empty() const { return deadline_head == deadlines.size(); }
  [[nodiscard]] bool deadline_due(std::int64_t pos) const {
    return deadline_head < deadlines.size() && deadlines[deadline_head] <= pos;
  }

  void push_deadline(std::int64_t at) {
    if (deadlines.empty() || at >= deadlines.back()) {
      deadlines.push_back(at);
      return;
    }
    // Out-of-order (caller violated monotone positions): insert sorted so
    // expiry stays correct anyway.
    deadlines.insert(std::upper_bound(deadlines.begin() +
                                          static_cast<std::ptrdiff_t>(deadline_head),
                                      deadlines.end(), at),
                     at);
  }

  std::uint32_t acquire() {
    std::uint32_t id = 0;
    if (!free_tokens.empty()) {
      id = free_tokens.back();
      free_tokens.pop_back();
    } else {
      id = static_cast<std::uint32_t>(tok_members.size());
      tok_node.push_back(0);
      tok_first.push_back(0);
      tok_gen.push_back(0);
      tok_members.emplace_back();
      tok_live_idx.push_back(0);
    }
    tok_live_idx[id] = static_cast<std::uint32_t>(live.size());
    live.push_back(id);
    return id;
  }

  void release(std::uint32_t id) {
    tok_members[id].clear();  // keeps capacity: the interval pool is reused
    ++tok_gen[id];
    free_tokens.push_back(id);
    const std::uint32_t hole = tok_live_idx[id];
    const std::uint32_t moved = live.back();
    live[hole] = moved;
    tok_live_idx[moved] = hole;
    live.pop_back();
  }

  /// Linear expiry sweep: return every due token's members to the idle sets
  /// and release it.  One pass over the live list — no per-token heap
  /// entries to chase.  Members go back BEFORE dispatch, so they can catch a
  /// fresh first symbol at this very position — exactly the single-scan
  /// re-bucketing.
  void expire_due(std::int64_t pos, const EpisodeTrie& trie, std::int64_t window, Ops& ops) {
    for (std::size_t i = 0; i < live.size();) {
      const std::uint32_t id = live[i];
      if (tok_first[id] + window > pos) {
        ++i;
        continue;
      }
      const Symbol first = trie.node(tok_node[id]).first_symbol;
      for (const Interval& iv : tok_members[id]) {
        idle[first].push_back(iv);
        ++ops.files;
      }
      release(id);  // swap-remove refills live[i]; revisit the same index
      ++ops.heap_ops;
    }
    while (deadline_due(pos)) ++deadline_head;
    // Amortized O(1) compaction keeps the FIFO bounded by live entries.
    if (deadline_head > 1024 && deadline_head * 2 >= deadlines.size()) {
      deadlines.erase(deadlines.begin(),
                      deadlines.begin() + static_cast<std::ptrdiff_t>(deadline_head));
      deadline_head = 0;
    }
  }

  /// Accept terminals and file the surviving token under every child edge it
  /// still has members for.  Call right after the token lands on
  /// `trie.node(tok_node[id])` — filings go into the live buckets, so a
  /// repeated prefix symbol waits for its NEXT occurrence.
  void arrive(std::uint32_t id, const EpisodeTrie& trie, Ops& ops) {
    std::vector<Interval>& members = tok_members[id];
    const EpisodeTrie::Node& node = trie.node(tok_node[id]);
    for (const std::uint32_t e : node.terminals) {
      if (!remove_point(members, e)) continue;
      ++counts[e];
      ++ops.accepts;
      ++ops.files;
      idle[node.first_symbol].push_back({e, e + 1});
    }
    if (members.empty()) {
      release(id);
      return;
    }
    // Children and member intervals are both ordered by sorted-episode index,
    // so one merge walk finds every child edge with members behind it.
    std::size_t j = 0;
    for (const EpisodeTrie::Edge& edge : node.children) {
      const EpisodeTrie::Node& child = trie.node(edge.node);
      while (j < members.size() && members[j].hi <= child.lo) ++j;
      if (j == members.size()) break;
      if (members[j].lo < child.hi) {
        buckets[edge.symbol].push_back({id, tok_gen[id]});
        ++ops.files;
      }
    }
  }
};

TrieCounter::TrieCounter(std::span<const Episode> episodes, Semantics semantics,
                         ExpiryPolicy expiry, std::int64_t database_size)
    : expiry_(expiry) {
  gm::expects(semantics != Semantics::kContiguousRestart,
              "the trie engine has no contiguous-restart path (use the flat engine)");
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  // Same overflow guard as the single-scan engine: deadlines are
  // first_pos + window, and any window >= |DB| behaves identically.
  if (expiry_.enabled()) expiry_.window = std::min(expiry_.window, database_size);
  trie_ = std::make_unique<EpisodeTrie>(episodes);
  impl_ = std::make_unique<Impl>();
  impl_->counts.assign(episodes.size(), 0);
  // Every episode starts idle; each root subtree is one contiguous interval.
  for (const EpisodeTrie::Edge& edge : trie_->root().children) {
    const EpisodeTrie::Node& child = trie_->node(edge.node);
    impl_->idle[edge.symbol].push_back({child.lo, child.hi});
    ++ops_.files;
  }
}

TrieCounter::~TrieCounter() = default;

void TrieCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  const Impl& im = *impl_;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Symbol symbol = symbols[i];
    const std::int64_t pos = start_pos + static_cast<std::int64_t>(i);
    // Nothing waits on this symbol, nothing idles under it and no deadline
    // is due: advance() would only count the probe.
    if (im.buckets[symbol].empty() && im.idle[symbol].empty() &&
        !(expiry_.enabled() && im.deadline_due(pos))) {
      ++ops_.probes;
      continue;
    }
    advance(symbol, pos);
  }
}

void TrieCounter::advance(Symbol symbol, std::int64_t pos) {
  Impl& im = *impl_;
  ++ops_.probes;

  // Expire matches that can no longer finish by this position.  The monotone
  // queue front tells us whether ANY token is due; the sweep then handles
  // every due token in one linear pass over the arena.
  if (expiry_.enabled() && im.deadline_due(pos)) {
    im.expire_due(pos, *trie_, expiry_.window, ops_);
  }

  // Swap the waiting bucket out first: everything filed from here on (fresh
  // root tokens, advanced child tokens) awaits the NEXT occurrence of
  // `symbol`, never a second step on this one.
  auto& bucket = im.buckets[symbol];
  im.scratch.swap(bucket);

  // Root dispatch: every idle episode whose first symbol is `symbol` starts a
  // match together, as ONE token over the swapped-out idle interval set.
  const std::uint32_t start_node = trie_->root_child(symbol);
  if (start_node != 0 && !im.idle[symbol].empty()) {
    const std::uint32_t id = im.acquire();
    im.tok_node[id] = start_node;
    im.tok_first[id] = pos;
    im.tok_members[id].swap(im.idle[symbol]);
    normalize(im.tok_members[id]);
    ops_.starts += member_count(im.tok_members[id]);
    if (expiry_.enabled()) {
      im.push_deadline(pos + expiry_.window);
      ++ops_.heap_ops;
    }
    im.arrive(id, *trie_, ops_);
  }

  // Drain waiting tokens: each one advances all its members sharing the next
  // prefix symbol in a single split toward the matching child.
  for (const BucketEntry entry : im.scratch) {
    if (im.tok_gen[entry.token] != entry.gen) continue;  // expired since
    const EpisodeTrie::Node& node = trie_->node(im.tok_node[entry.token]);
    const auto edge = std::lower_bound(
        node.children.begin(), node.children.end(), symbol,
        [](const EpisodeTrie::Edge& e, Symbol s) { return e.symbol < s; });
    if (edge == node.children.end() || edge->symbol != symbol) continue;
    ++ops_.drains;
    const EpisodeTrie::Node& child = trie_->node(edge->node);
    const std::uint32_t id = im.acquire();
    im.tok_node[id] = edge->node;
    im.tok_first[id] = im.tok_first[entry.token];
    extract_range(im.tok_members[entry.token], child.lo, child.hi, im.tok_members[id]);
    if (im.tok_members[id].empty()) {  // defensive: filings always have members
      im.release(id);
      continue;
    }
    // A child token inherits its root dispatch's first_pos, so its deadline
    // is already covered by that root's queue entry — no push here.
    if (im.tok_members[entry.token].empty()) im.release(entry.token);
    im.arrive(id, *trie_, ops_);
  }
  im.scratch.clear();
}

std::vector<std::int64_t> TrieCounter::counts() const {
  std::vector<std::int64_t> result(impl_->counts.size(), 0);
  const std::span<const std::uint32_t> order = trie_->order();
  for (std::size_t k = 0; k < order.size(); ++k) result[order[k]] = impl_->counts[k];
  return result;
}

std::vector<std::int64_t> count_all_trie_scan(std::span<const Episode> episodes,
                                              std::span<const Symbol> database,
                                              Semantics semantics, ExpiryPolicy expiry) {
  if (episodes.empty()) return {};
  TrieCounter counter(episodes, semantics, expiry,
                      static_cast<std::int64_t>(database.size()));
  counter.advance_batch(database, 0);
  return counter.counts();
}

}  // namespace gm::core
