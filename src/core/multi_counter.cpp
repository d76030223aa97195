#include "core/multi_counter.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gm::core {
namespace {

// Deadlines are first_pos + window with a user-supplied window, so saturate
// instead of overflowing: a deadline at int64 max never fires, exactly like
// any window longer than the remaining stream.
std::int64_t deadline_at(std::int64_t first_pos, std::int64_t window) {
  return first_pos > std::numeric_limits<std::int64_t>::max() - window
             ? std::numeric_limits<std::int64_t>::max()
             : first_pos + window;
}

}  // namespace

// Engine state behind MultiCounter, struct-of-arrays: every per-episode
// record lives in parallel arrays indexed by a dense slot id, episode symbols
// are concatenated into one arena (`sym_pool`), and nothing is allocated per
// event — buckets and the deadline queue reach a steady-state capacity and
// stay there.
//
// Sparse-path invariant: every slot is filed in exactly one bucket, the one
// for the symbol it currently awaits (episode[state]), with `pos_in_bucket`
// as the backreference enabling O(1) swap-remove when expiry moves it.  That
// single-membership discipline replaces the old generation-tagged lazy
// invalidation: a bucket never holds stale entries, so the drain loop touches
// only live work.
//
// Expiry deadlines form a monotone queue: a deadline is pushed at match start
// with `pos + window`, and positions strictly increase, so pushes arrive in
// nondecreasing order and a FIFO scan replaces the old binary heap.  Pops
// validate against the slot's live first_pos (a completed-and-restarted match
// has a different deadline), exactly as the heap version did.  restore() is
// the one producer of unordered deadlines; it sorts its batch once, and every
// later push lands at or after the restored horizon (restored first_pos
// precede all future stream positions).
//
// The dense path (kContiguousRestart, whose mismatch edges let any symbol
// transition any in-flight automaton and so defeat a waiting-symbol index)
// keeps the same SoA arrays and steps every slot per symbol; its batch drive
// runs symbols innermost per slot so the episode's arena slice and the
// slot's scalars stay register/L1-resident across the whole batch.
struct MultiCounter::Impl {
  Semantics semantics = Semantics::kNonOverlappedSubsequence;
  ExpiryPolicy expiry;
  bool dense = false;

  // SoA arena, indexed by slot id (== episode index in construction order).
  std::vector<Symbol> sym_pool;          // all episode symbols, concatenated
  std::vector<std::uint32_t> ep_off;     // slot -> offset into sym_pool
  std::vector<std::uint32_t> ep_len;     // slot -> episode level
  std::vector<std::int64_t> counts;      // slot -> accepted occurrences
  std::vector<std::int64_t> first_pos;   // slot -> first matched position
  std::vector<std::int32_t> states;      // slot -> matched-symbol count
  std::vector<std::uint32_t> in_bucket;  // slot -> index within its bucket

  // Sparse path: symbol -> slots awaiting it (direct-mapped, Symbol is 8-bit).
  std::array<std::vector<std::uint32_t>, 256> buckets;
  std::vector<std::uint32_t> scratch;

  // Monotone deadline FIFO: live window is [deadline_head, deadlines.size()).
  struct Deadline {
    std::int64_t at = 0;
    std::uint32_t slot = 0;
  };
  std::vector<Deadline> deadlines;
  std::size_t deadline_head = 0;

  [[nodiscard]] std::size_t slot_count() const { return ep_len.size(); }
  [[nodiscard]] bool deadlines_empty() const { return deadline_head == deadlines.size(); }

  /// Append `slot` to the bucket for `s`, recording the backreference.
  void file(std::uint32_t slot, Symbol s) {
    auto& bucket = buckets[s];
    in_bucket[slot] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(slot);
  }

  /// Swap-remove `slot` from the bucket it is currently filed in.
  void unfile(std::uint32_t slot) {
    auto& bucket = buckets[sym_pool[ep_off[slot] + static_cast<std::uint32_t>(states[slot])]];
    const std::uint32_t hole = in_bucket[slot];
    const std::uint32_t moved = bucket.back();
    bucket[hole] = moved;
    in_bucket[moved] = hole;
    bucket.pop_back();
  }

  /// Push a deadline, preserving FIFO order.  Pushes are monotone along any
  /// legal advance() sequence; the sorted-insert fallback only runs if a
  /// caller feeds non-increasing positions, keeping expiry correct anyway.
  void push_deadline(std::int64_t at, std::uint32_t slot) {
    if (deadlines.empty() || at >= deadlines.back().at) {
      deadlines.push_back({at, slot});
      return;
    }
    const auto it = std::upper_bound(
        deadlines.begin() + static_cast<std::ptrdiff_t>(deadline_head), deadlines.end(), at,
        [](std::int64_t value, const Deadline& d) { return value < d.at; });
    deadlines.insert(it, {at, slot});
  }

  /// Reset every match that can no longer finish by `pos`: the serial
  /// automaton resets them at step time, so they must be back in their
  /// episode[0] bucket before this symbol is dispatched.  A linear pass over
  /// the due prefix of the deadline FIFO; first_pos deliberately survives
  /// the reset (the serial automaton keeps it too — progress() must match).
  void expire_due(std::int64_t pos) {
    while (deadline_head < deadlines.size() && deadlines[deadline_head].at <= pos) {
      const Deadline d = deadlines[deadline_head++];
      if (states[d.slot] > 0 && deadline_at(first_pos[d.slot], expiry.window) == d.at) {
        unfile(d.slot);
        states[d.slot] = 0;
        file(d.slot, sym_pool[ep_off[d.slot]]);
      }
    }
    // Amortized O(1) compaction keeps the FIFO's memory bounded by the live
    // entry count instead of growing with stream length.
    if (deadline_head > 1024 && deadline_head * 2 >= deadlines.size()) {
      deadlines.erase(deadlines.begin(),
                      deadlines.begin() + static_cast<std::ptrdiff_t>(deadline_head));
      deadline_head = 0;
    }
  }

  void advance_sparse(Symbol s, std::int64_t pos) {
    if (expiry.enabled() && !deadlines_empty()) expire_due(pos);
    auto& bucket = buckets[s];
    if (bucket.empty()) return;
    // Swap the bucket out before advancing: an automaton whose next awaited
    // symbol is also `s` (repeated-symbol episode) must re-file for the NEXT
    // occurrence, not be stepped twice on this one.
    scratch.swap(bucket);
    const Symbol* const pool = sym_pool.data();
    const bool deadline_needed = expiry.enabled();
    for (const std::uint32_t slot : scratch) {
      std::uint32_t st = static_cast<std::uint32_t>(states[slot]);
      const std::uint32_t off = ep_off[slot];
      if (st == 0) {
        first_pos[slot] = pos;
        // Level-1 episodes complete in this same step, so a deadline could
        // never fire usefully — don't flood the queue with one per match.
        if (deadline_needed && ep_len[slot] > 1) {
          push_deadline(deadline_at(pos, expiry.window), slot);
        }
      }
      ++st;
      if (st == ep_len[slot]) {
        ++counts[slot];
        st = 0;
      }
      states[slot] = static_cast<std::int32_t>(st);
      file(slot, pool[off + st]);
    }
    scratch.clear();
  }

  /// Dense batch drive: symbols innermost so each slot's episode slice and
  /// scalars stay hot across the whole batch (one pass over the slot arrays
  /// per batch instead of one per symbol).
  void advance_dense_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
    const Symbol* const pool = sym_pool.data();
    const bool expiring = expiry.enabled();
    const std::int64_t window = expiry.window;
    for (std::size_t slot = 0; slot < slot_count(); ++slot) {
      const Symbol* const ep = pool + ep_off[slot];
      const auto len = static_cast<std::int32_t>(ep_len[slot]);
      std::int32_t st = states[slot];
      std::int64_t fp = first_pos[slot];
      std::int64_t accepted = 0;
      for (std::size_t i = 0; i < symbols.size(); ++i) {
        const Symbol s = symbols[i];
        const std::int64_t pos = start_pos + static_cast<std::int64_t>(i);
        if (expiring && st > 0 && pos - fp >= window) st = 0;
        if (s == ep[st]) {
          if (st == 0) fp = pos;
          if (++st == len) {
            ++accepted;
            st = 0;
          }
        } else if (st != 0) {
          // Figure 3: mismatches fall back to start, except that a symbol
          // equal to a1 restarts the match at state 1.
          if (s == ep[0]) {
            st = 1;
            fp = pos;
          } else {
            st = 0;
          }
        }
      }
      states[slot] = st;
      first_pos[slot] = fp;
      counts[slot] += accepted;
    }
  }
};

MultiCounter::MultiCounter(std::span<const Episode> episodes, Semantics semantics,
                           ExpiryPolicy expiry)
    : impl_(std::make_unique<Impl>()) {
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  gm::expects(episodes.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many episodes for the single-scan index");
  Impl& im = *impl_;
  im.semantics = semantics;
  im.expiry = expiry;
  im.dense = semantics == Semantics::kContiguousRestart;

  const auto n = static_cast<std::uint32_t>(episodes.size());
  im.ep_off.reserve(n);
  im.ep_len.reserve(n);
  std::size_t total_symbols = 0;
  for (const auto& e : episodes) total_symbols += e.symbols().size();
  gm::expects(total_symbols <= std::numeric_limits<std::uint32_t>::max(),
              "episode symbols overflow the arena index");
  im.sym_pool.reserve(total_symbols);
  for (const auto& e : episodes) {
    im.ep_off.push_back(static_cast<std::uint32_t>(im.sym_pool.size()));
    im.ep_len.push_back(static_cast<std::uint32_t>(e.symbols().size()));
    im.sym_pool.insert(im.sym_pool.end(), e.symbols().begin(), e.symbols().end());
  }
  im.counts.assign(n, 0);
  im.first_pos.assign(n, 0);
  im.states.assign(n, 0);
  if (im.dense) return;

  im.in_bucket.assign(n, 0);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    im.file(slot, im.sym_pool[im.ep_off[slot]]);
  }
}

MultiCounter::MultiCounter(MultiCounter&&) noexcept = default;
MultiCounter& MultiCounter::operator=(MultiCounter&&) noexcept = default;
MultiCounter::~MultiCounter() = default;

void MultiCounter::restore(std::span<const EpisodeProgress> progress) {
  Impl& im = *impl_;
  gm::expects(progress.size() == im.slot_count(), "progress list must match the episode list");
  for (std::size_t slot = 0; slot < progress.size(); ++slot) {
    const EpisodeProgress& p = progress[slot];
    gm::expects(p.state >= 0 && p.state < static_cast<int>(im.ep_len[slot]),
                "restored state outside the episode's automaton");
    im.counts[slot] = p.count;
    im.states[slot] = p.state;
    im.first_pos[slot] = p.first_pos;
  }
  if (im.dense) return;

  gm::expects(im.deadlines_empty(), "restore() must precede the first advance()");
  for (auto& bucket : im.buckets) bucket.clear();
  for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(progress.size()); ++slot) {
    im.file(slot,
            im.sym_pool[im.ep_off[slot] + static_cast<std::uint32_t>(im.states[slot])]);
    if (im.states[slot] > 0 && im.expiry.enabled()) {
      im.deadlines.push_back({deadline_at(im.first_pos[slot], im.expiry.window), slot});
    }
  }
  // One sort re-establishes the monotone-FIFO invariant: every future push
  // is at a strictly later stream position than any restored first_pos.
  std::sort(im.deadlines.begin(), im.deadlines.end(),
            [](const Impl::Deadline& a, const Impl::Deadline& b) { return a.at < b.at; });
}

void MultiCounter::advance(Symbol symbol, std::int64_t pos) {
  Impl& im = *impl_;
  if (im.dense) {
    im.advance_dense_batch({&symbol, 1}, pos);
    return;
  }
  im.advance_sparse(symbol, pos);
}

void MultiCounter::advance_batch(std::span<const Symbol> symbols, std::int64_t start_pos) {
  Impl& im = *impl_;
  if (im.dense) {
    im.advance_dense_batch(symbols, start_pos);
    return;
  }
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    im.advance_sparse(symbols[i], start_pos + static_cast<std::int64_t>(i));
  }
}

void MultiCounter::reset() {
  Impl& im = *impl_;
  std::fill(im.counts.begin(), im.counts.end(), 0);
  std::fill(im.first_pos.begin(), im.first_pos.end(), 0);
  std::fill(im.states.begin(), im.states.end(), 0);
  im.deadlines.clear();
  im.deadline_head = 0;
  if (im.dense) return;
  for (auto& bucket : im.buckets) bucket.clear();
  for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(im.slot_count()); ++slot) {
    im.file(slot, im.sym_pool[im.ep_off[slot]]);
  }
}

std::vector<std::int64_t> MultiCounter::counts() const { return impl_->counts; }

std::vector<EpisodeProgress> MultiCounter::progress() const {
  const Impl& im = *impl_;
  std::vector<EpisodeProgress> progress(im.slot_count());
  GM_SIMD_LOOP
  for (std::size_t slot = 0; slot < progress.size(); ++slot) {
    progress[slot].count = im.counts[slot];
    progress[slot].first_pos = im.first_pos[slot];
    progress[slot].state = im.states[slot];
  }
  return progress;
}

std::size_t MultiCounter::episode_count() const { return impl_->slot_count(); }

std::vector<std::int64_t> count_all_single_scan(std::span<const Episode> episodes,
                                                std::span<const Symbol> database,
                                                Semantics semantics, ExpiryPolicy expiry) {
  if (episodes.empty()) return {};
  MultiCounter counter(episodes, semantics, expiry);
  counter.advance_batch(database, 0);
  return counter.counts();
}

}  // namespace gm::core
