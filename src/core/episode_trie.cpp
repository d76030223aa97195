#include "core/episode_trie.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace gm::core {

double prefix_compression(std::span<const Episode> episodes) {
  // Sorted, each episode adds one distinct prefix per symbol past its longest
  // common prefix with the episode before it.  Candidate generation already
  // emits lexicographic order.
  std::vector<const Episode*> sorted;
  if (!std::is_sorted(episodes.begin(), episodes.end())) {
    for (const Episode& episode : episodes) sorted.push_back(&episode);
    std::sort(sorted.begin(), sorted.end(), [](auto* a, auto* b) { return *a < *b; });
  }
  std::int64_t prefixes = 0;
  std::int64_t symbols = 0;
  std::span<const Symbol> previous;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const auto current = (sorted.empty() ? episodes[i] : *sorted[i]).symbols();
    const auto mismatch = std::mismatch(current.begin(), current.end(), previous.begin(),
                                        previous.end());
    prefixes += current.end() - mismatch.first;
    symbols += static_cast<std::int64_t>(current.size());
    previous = current;
  }
  return symbols == 0 ? 1.0 : static_cast<double>(prefixes) / static_cast<double>(symbols);
}

// ---------------------------------------------------------------------------
// TrieCounter
// ---------------------------------------------------------------------------

namespace {

std::uint64_t bit(std::uint32_t index) { return std::uint64_t{1} << index; }

std::uint32_t lowest(std::uint64_t mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

/// The set bits of `mask`.  Spelled out because the build targets no POPCNT
/// instruction, so std::popcount compiles to a libgcc call on x86-64.
int bit_count(std::uint64_t mask) {
  mask -= (mask >> 1) & 0x5555555555555555U;
  mask = (mask & 0x3333333333333333U) + ((mask >> 2) & 0x3333333333333333U);
  mask = (mask + (mask >> 4)) & 0x0F0F0F0F0F0F0F0FU;
  return static_cast<int>((mask * 0x0101010101010101U) >> 56);
}

}  // namespace

TrieCounter::TrieCounter(std::span<const Episode> episodes, Semantics semantics,
                         ExpiryPolicy expiry, std::int64_t database_size)
    : TrieCounter(episodes, std::array{episodes.size()}, semantics, expiry, database_size) {}

TrieCounter::TrieCounter(std::span<const Episode> episodes,
                         std::span<const std::size_t> group_sizes, Semantics semantics,
                         ExpiryPolicy expiry, std::int64_t database_size)
    : order_(episodes.size()), groups_(group_sizes.size()), expiry_(expiry) {
  gm::expects(semantics != Semantics::kContiguousRestart,
              "the trie engine has no contiguous-restart path (use the flat engine)");
  gm::expects(episodes.size() <= kMaxEpisodes,
              "a trie counter holds at most 64 episodes (one uint64_t member mask); "
              "count_all_trie_scan splits larger sets");
  for (const auto& e : episodes) {
    gm::expects(!e.empty(), "cannot count an empty episode");
    stride_ = std::max(stride_, e.symbols().size());
  }
  // Same overflow guard as the single-scan engine: deadlines are
  // first + window, and any window >= |DB| behaves identically.
  if (expiry_.enabled()) expiry_.window = std::min(expiry_.window, database_size);

  // Each group sorts its own episodes, as a counter of its own would.
  std::iota(order_.begin(), order_.end(), 0u);
  std::size_t begin = 0;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    const std::size_t size = group_sizes[g];
    gm::expects(size <= order_.size() - begin, "trie counter groups exceed its episodes");
    std::stable_sort(order_.begin() + begin, order_.begin() + begin + size,
                     [&](std::uint32_t a, std::uint32_t b) { return episodes[a] < episodes[b]; });
    std::fill(group_of_.begin() + begin, group_of_.begin() + begin + size, g);
    begin += size;
  }
  gm::expects(begin == order_.size(), "trie counter group sizes must sum to its episodes");

  at_.resize(stride_);
  ends_.assign(stride_ + 1, 0);
  spelled_.resize(episodes.size() * stride_);
  for (std::uint32_t k = 0; k < order_.size(); ++k) {
    const std::span<const Symbol> symbols = episodes[order_[k]].symbols();
    Group& group = groups_[group_of_[k]];
    // Every episode starts idle; a group files once per distinct first symbol.
    if ((group.members & at_[0][symbols[0]]) == 0) ++group.ops.files;
    group.members |= bit(k);
    symbols_[symbols[0]].idle |= bit(k);
    ends_[symbols.size()] |= bit(k);
    for (std::size_t d = 0; d < symbols.size(); ++d) {
      at_[d][symbols[d]] |= bit(k);
      spelled_[k * stride_ + d] = symbols[d];
    }
  }
}

Symbol TrieCounter::symbol_of(std::uint64_t members, std::uint32_t depth) const {
  return spelled_[lowest(members) * stride_ + depth];
}

// `arrive` and `step` are the per-event path, forced inline: as calls they
// cost about a quarter of the time on paper level-3 slices (GCC 12 -O3).

/// `token.members` have just matched their first `token.depth` symbols:
/// accept those of that level, then file the rest as the token in `slot` (a
/// free one for kNewSlot) under each distinct symbol they await next.
/// Filings go into the live waiting masks, so a repeated prefix symbol waits
/// for its NEXT occurrence.
[[gnu::always_inline]] inline void TrieCounter::arrive(Token token, std::uint32_t slot) {
  Ops& ops = groups_[token.group].ops;
  if (const std::uint64_t done = token.members & ends_[token.depth]) {
    int accepted = 0;
    for (std::uint64_t d = done; d != 0; d &= d - 1, ++accepted) ++counts_[lowest(d)];
    ops.accepts += accepted;
    ops.files += accepted;  // each returns to its idle set
    symbols_[symbol_of(done, 0)].idle |= done;
    token.members &= ~done;
  }
  if (token.members == 0) {
    if (slot != kNewSlot) live_ &= ~bit(slot);
    return;
  }
  if (slot == kNewSlot) {
    // Member sets are disjoint and non-empty, so at most 64 tokens are live.
    assert(live_ != ~std::uint64_t{0} && "every token slot is live");
    slot = static_cast<std::uint32_t>(std::countr_one(live_));
    live_ |= bit(slot);
  }
  tokens_[slot] = token;
  const std::array<std::uint64_t, 256>& next = at_[token.depth];
  for (std::uint64_t rest = token.members; rest != 0;) {
    const Symbol symbol = symbol_of(rest, token.depth);
    symbols_[symbol].waiting |= bit(slot);
    ++ops.files;
    rest &= ~next[symbol];
  }
}

/// Return every due token's members to their idle set and free its slot.
/// Members go back BEFORE dispatch, so they can catch a fresh first symbol at
/// this very position, exactly the single-scan re-bucketing.  Every live
/// token's `first` is the position of some root dispatch (deeper tokens
/// inherit it), so `next_due_` only drops when a root token is made; this
/// pass recomputes it from the survivors.
void TrieCounter::expire_due(std::int64_t pos) {
  next_due_ = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t l = live_; l != 0; l &= l - 1) {
    const std::uint32_t slot = lowest(l);
    const Token& token = tokens_[slot];
    const std::int64_t due = token.first + expiry_.window;
    if (due > pos) {
      next_due_ = std::min(next_due_, due);
      continue;
    }
    symbols_[symbol_of(token.members, 0)].idle |= token.members;
    Ops& ops = groups_[token.group].ops;
    // One idle return per maximal run of consecutive members: the unit the
    // kernel charges, as a range of sorted episodes returns in one piece.
    ops.files += bit_count(token.members & ~(token.members << 1));
    ++ops.heap_ops;
    const std::array<std::uint64_t, 256>& next = at_[token.depth];
    for (std::uint64_t rest = token.members; rest != 0;) {
      const Symbol symbol = symbol_of(rest, token.depth);
      symbols_[symbol].waiting &= ~bit(slot);
      rest &= ~next[symbol];
    }
    live_ &= ~bit(slot);
  }
}

[[gnu::always_inline]] inline void TrieCounter::step(Symbol symbol, std::int64_t pos) {
  if (pos >= next_due_) expire_due(pos);

  // Take the waiting set first: everything filed from here on (the fresh root
  // tokens, advanced tokens) awaits the NEXT occurrence of `symbol`, never a
  // second step on this one.
  SymbolMasks& here = symbols_[symbol];
  const std::uint64_t waiting = std::exchange(here.waiting, 0);

  // Root dispatch: the idle episodes of one group whose first symbol is
  // `symbol` start a match together, as ONE token.
  for (std::uint64_t idle = std::exchange(here.idle, 0); idle != 0;) {
    const std::uint32_t group = group_of_[lowest(idle)];
    const std::uint64_t starting = idle & groups_[group].members;
    idle &= ~starting;
    Ops& ops = groups_[group].ops;
    ops.starts += bit_count(starting);
    if (expiry_.enabled()) {
      next_due_ = std::min(next_due_, pos + expiry_.window);
      ++ops.heap_ops;
    }
    arrive({pos, starting, 1, group}, kNewSlot);
  }

  // Drain waiting tokens: each moves its members awaiting `symbol` one
  // symbol deeper, keeping its slot when no member stays behind.  A deeper
  // token inherits its root dispatch's `first`, so its expiry is already
  // covered by `next_due_`.
  for (std::uint64_t w = waiting; w != 0; w &= w - 1) {
    const std::uint32_t slot = lowest(w);
    Token& token = tokens_[slot];
    ++groups_[token.group].ops.drains;
    const std::uint64_t moved = token.members & at_[token.depth][symbol];
    token.members &= ~moved;
    arrive({token.first, moved, token.depth + 1, token.group},
           token.members == 0 ? slot : kNewSlot);
  }
}

void TrieCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  for (Group& group : groups_) group.ops.probes += static_cast<std::int64_t>(symbols.size());
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
  for (Group& group : groups_) ++group.ops.probes;
  step(symbol, pos);
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
