#include "core/segment_counter.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gm::core {

std::string to_string(SpanningFix fix) {
  switch (fix) {
    case SpanningFix::kNone: return "none";
    case SpanningFix::kStateComposition: return "state-composition";
    case SpanningFix::kOverlapRescan: return "overlap-rescan";
  }
  return "?";
}

EpisodeProgress scan_segment(std::span<const Symbol> episode, Semantics semantics,
                             ExpiryPolicy expiry, std::span<const Symbol> database,
                             std::int64_t begin, std::int64_t end, int entry_state,
                             std::int64_t entry_first_pos) {
  gm::expects(begin >= 0 && end <= static_cast<std::int64_t>(database.size()) && begin <= end,
              "segment range out of bounds");
  gm::expects(entry_state >= 0 && entry_state < static_cast<int>(episode.size()),
              "entry state out of range");
  EpisodeAutomaton automaton(episode, semantics, expiry);
  automaton.restore(entry_state, entry_first_pos);
  EpisodeProgress out;
  for (std::int64_t i = begin; i < end; ++i) {
    if (automaton.step(database[static_cast<std::size_t>(i)], i)) ++out.count;
  }
  out.state = automaton.state();
  out.first_pos = automaton.first_match_pos();
  return out;
}

SegmentTransfer segment_transfer(std::span<const Symbol> episode, Semantics semantics,
                                 ExpiryPolicy expiry, std::span<const Symbol> database,
                                 std::int64_t begin, std::int64_t end) {
  SegmentTransfer transfer;
  const int level = static_cast<int>(episode.size());
  transfer.by_entry_state.reserve(static_cast<std::size_t>(level));
  for (int s = 0; s < level; ++s) {
    // A nonzero entry state carries its first-match position; the natural
    // choice for a transfer function evaluated blind is "just before the
    // chunk", which composition fixes up below for the expiry-free case.
    // With expiry enabled the transfer function is position-dependent and
    // the composition path re-scans (see count_chunked).
    transfer.by_entry_state.push_back(
        scan_segment(episode, semantics, expiry, database, begin, end, s,
                     s == 0 ? 0 : begin - 1));
  }
  return transfer;
}

std::vector<std::int64_t> chunk_boundaries(std::int64_t size, int chunks) {
  gm::expects(chunks >= 1, "need at least one chunk");
  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(chunks) + 1);
  bounds.push_back(0);
  for (int c = 0; c < chunks; ++c) bounds.push_back(chunk_range(size, chunks, c).end);
  gm::ensure(bounds.back() == size, "chunk boundaries must cover the database");
  return bounds;
}

namespace {

std::int64_t count_state_composition(const Episode& episode, std::span<const Symbol> database,
                                     const std::vector<std::int64_t>& bounds,
                                     Semantics semantics, ExpiryPolicy expiry) {
  const auto symbols = episode.symbols();
  const int chunks = static_cast<int>(bounds.size()) - 1;

  if (!expiry.enabled()) {
    // Map phase (parallelizable): transfer function per chunk.
    std::vector<SegmentTransfer> transfers;
    transfers.reserve(static_cast<std::size_t>(chunks));
    for (int c = 0; c < chunks; ++c) {
      transfers.push_back(segment_transfer(symbols, semantics, expiry, database,
                                           bounds[static_cast<std::size_t>(c)],
                                           bounds[static_cast<std::size_t>(c) + 1]));
    }
    // Fold phase (cheap, sequential): thread the exit state through.
    std::int64_t count = 0;
    int state = 0;
    for (const auto& t : transfers) {
      const auto& o = t.by_entry_state[static_cast<std::size_t>(state)];
      count += o.count;
      state = o.state;
    }
    return count;
  }

  // With expiry the automaton behaviour depends on absolute positions, so a
  // blind per-chunk transfer function is not well-defined for entry states
  // carrying an old first-match position.  The exact fold re-scans each chunk
  // once with the true entry (still one pass over the data overall; only the
  // map phase loses its independence).
  std::int64_t count = 0;
  int state = 0;
  std::int64_t first_pos = 0;
  for (int c = 0; c < chunks; ++c) {
    const auto o = scan_segment(symbols, semantics, expiry, database,
                                bounds[static_cast<std::size_t>(c)],
                                bounds[static_cast<std::size_t>(c) + 1], state, first_pos);
    count += o.count;
    state = o.state;
    first_pos = o.first_pos;
  }
  return count;
}

std::int64_t count_overlap_rescan(const Episode& episode, std::span<const Symbol> database,
                                  const std::vector<std::int64_t>& bounds, Semantics semantics,
                                  ExpiryPolicy expiry, std::int64_t window) {
  const auto symbols = episode.symbols();
  const auto size = static_cast<std::int64_t>(database.size());
  const int chunks = static_cast<int>(bounds.size()) - 1;

  // Independent per-chunk counts (the map phase).
  std::int64_t count = 0;
  for (int c = 0; c < chunks; ++c) {
    count += scan_segment(symbols, semantics, expiry, database,
                          bounds[static_cast<std::size_t>(c)],
                          bounds[static_cast<std::size_t>(c) + 1], 0, 0)
                 .count;
  }

  // Boundary patch: an occurrence crossing several boundaries is attributed
  // only to the last one it crosses, so overlapping windows never
  // double-count.
  for (int c = 1; c < chunks; ++c) {
    count += count_boundary_crossers(symbols, semantics, expiry, database,
                                     bounds[static_cast<std::size_t>(c)],
                                     bounds[static_cast<std::size_t>(c) + 1], window);
  }
  (void)size;
  return count;
}

}  // namespace

std::int64_t fold_cold_scans(std::span<const Symbol> episode, Semantics semantics,
                             ExpiryPolicy expiry, std::span<const Symbol> events,
                             std::int64_t base, std::span<const std::int64_t> bounds,
                             std::span<const EpisodeProgress> cold, EpisodeProgress entry,
                             EpisodeProgress* exit, std::int64_t* rescanned_symbols) {
  gm::expects(bounds.size() >= 2 && bounds.front() == base &&
                  bounds.back() == base + static_cast<std::int64_t>(events.size()),
              "boundary list must cover the event window");
  gm::expects(cold.size() + 1 == bounds.size(), "need one cold outcome per chunk");
  gm::expects(entry.state >= 0 && entry.state < static_cast<int>(episode.size()),
              "entry state out of range");

  std::int64_t total = 0;
  std::int64_t rescanned = 0;
  int state = entry.state;
  std::int64_t first_pos = entry.first_pos;
  // One automaton pair for the whole fold, re-armed per boundary rescan via
  // restore()/reset() — chunks that need no replay (state 0 entry) construct
  // nothing at all.
  EpisodeAutomaton truth(episode, semantics, expiry);
  EpisodeAutomaton twin(episode, semantics, expiry);
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    if (state == 0) {
      total += cold[c].count;
      state = cold[c].state;
      first_pos = cold[c].first_pos;
      continue;
    }
    // Lockstep replay: the true automaton (restored) and a cold twin step
    // together; once they agree the cold scan's remainder is the truth.
    truth.restore(state, first_pos);
    twin.reset();
    std::int64_t true_count = 0;
    std::int64_t twin_count = 0;
    bool converged = false;
    for (std::int64_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      const Symbol s = events[static_cast<std::size_t>(i - base)];
      if (truth.step(s, i)) ++true_count;
      if (twin.step(s, i)) ++twin_count;
      ++rescanned;
      if (truth.state() == twin.state() &&
          (truth.state() == 0 || !expiry.enabled() ||
           truth.first_match_pos() == twin.first_match_pos())) {
        converged = true;
        break;
      }
    }
    if (converged) {
      total += true_count + (cold[c].count - twin_count);
      state = cold[c].state;
      first_pos = cold[c].first_pos;
    } else {
      total += true_count;
      state = truth.state();
      first_pos = truth.first_match_pos();
    }
  }
  if (rescanned_symbols != nullptr) *rescanned_symbols = rescanned;
  if (exit != nullptr) *exit = {entry.count + total, first_pos, state};
  return total;
}

std::int64_t count_boundary_crossers(std::span<const Symbol> episode, Semantics semantics,
                                     ExpiryPolicy expiry, std::span<const Symbol> database,
                                     std::int64_t bound, std::int64_t next_bound,
                                     std::int64_t window) {
  gm::expects(window > 0, "rescan window must be positive");
  const auto size = static_cast<std::int64_t>(database.size());
  const std::int64_t lo = std::max<std::int64_t>(0, bound - window);
  const std::int64_t hi = std::min<std::int64_t>(size, bound + window);
  EpisodeAutomaton automaton(episode, semantics, expiry);
  std::int64_t crossers = 0;
  for (std::int64_t i = lo; i < hi; ++i) {
    if (automaton.step(database[static_cast<std::size_t>(i)], i)) {
      // The accepted occurrence started at the automaton's recorded first
      // position and ended at i; same-side occurrences belong to the chunk
      // scans, later-boundary crossers to later boundaries.
      const std::int64_t start = automaton.first_match_pos();
      if (i >= bound && i < next_bound && start < bound) ++crossers;
    }
  }
  return crossers;
}

std::vector<std::int64_t> buffered_slice_boundaries(std::int64_t size,
                                                    std::int64_t buffer_symbols, int threads) {
  gm::expects(buffer_symbols >= 1, "buffer must hold at least one symbol");
  gm::expects(threads >= 1, "need at least one thread");
  std::vector<std::int64_t> bounds{0};
  for (std::int64_t base = 0; base < size; base += buffer_symbols) {
    const std::int64_t n = std::min<std::int64_t>(buffer_symbols, size - base);
    const auto inner = chunk_boundaries(n, threads);
    for (std::size_t i = 1; i < inner.size(); ++i) bounds.push_back(base + inner[i]);
  }
  if (bounds.size() == 1) bounds.push_back(size);
  return bounds;
}

std::int64_t count_with_boundaries(const Episode& episode, std::span<const Symbol> database,
                                   const std::vector<std::int64_t>& bounds, Semantics semantics,
                                   ExpiryPolicy expiry, SpanningFix fix,
                                   std::int64_t overlap_window) {
  gm::expects(!episode.empty(), "cannot count an empty episode");
  gm::expects(bounds.size() >= 2 && bounds.front() == 0 &&
                  bounds.back() == static_cast<std::int64_t>(database.size()),
              "boundary list must cover the database");

  switch (fix) {
    case SpanningFix::kNone: {
      std::int64_t count = 0;
      for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
        count += scan_segment(episode.symbols(), semantics, expiry, database, bounds[c],
                              bounds[c + 1], 0, 0)
                     .count;
      }
      return count;
    }
    case SpanningFix::kStateComposition:
      return count_state_composition(episode, database, bounds, semantics, expiry);
    case SpanningFix::kOverlapRescan: {
      std::int64_t window = overlap_window;
      if (window <= 0) {
        window = expiry.enabled() ? expiry.window : 2 * episode.level();
      }
      return count_overlap_rescan(episode, database, bounds, semantics, expiry, window);
    }
  }
  gm::raise_invariant("unhandled SpanningFix");
}

std::int64_t count_chunked(const Episode& episode, std::span<const Symbol> database, int chunks,
                           Semantics semantics, ExpiryPolicy expiry, SpanningFix fix,
                           std::int64_t overlap_window) {
  gm::expects(chunks >= 1, "need at least one chunk");
  const auto bounds = chunk_boundaries(static_cast<std::int64_t>(database.size()), chunks);
  return count_with_boundaries(episode, database, bounds, semantics, expiry, fix,
                               overlap_window);
}

}  // namespace gm::core
