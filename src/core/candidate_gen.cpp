#include "core/candidate_gen.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.hpp"

namespace gm::core {

std::uint64_t episode_space_size(int alphabet_size, int level) {
  gm::expects(alphabet_size >= 1, "alphabet size must be positive");
  gm::expects(level >= 1, "level must be positive");
  if (level > alphabet_size) return 0;
  std::uint64_t total = 1;
  for (int i = 0; i < level; ++i) {
    const auto factor = static_cast<std::uint64_t>(alphabet_size - i);
    gm::expects(total <= std::numeric_limits<std::uint64_t>::max() / factor,
                "episode space size overflows uint64");
    total *= factor;
  }
  return total;
}

namespace {

/// 256-bit membership mask over the 8-bit symbol space: O(1) "is this symbol
/// already in the prefix" instead of scanning the prefix per symbol tried.
struct SymbolMask {
  std::array<std::uint64_t, 4> words{};

  [[nodiscard]] bool test(Symbol s) const noexcept {
    return ((words[s >> 6] >> (s & 63)) & 1u) != 0;
  }
  void set(Symbol s) noexcept { words[s >> 6] |= std::uint64_t{1} << (s & 63); }
  void clear(Symbol s) noexcept { words[s >> 6] &= ~(std::uint64_t{1} << (s & 63)); }
};

void extend(const Alphabet& alphabet, std::vector<Symbol>& prefix, SymbolMask& used,
            int level, std::vector<Episode>& out) {
  if (static_cast<int>(prefix.size()) == level) {
    out.emplace_back(prefix);
    return;
  }
  for (int s = 0; s < alphabet.size(); ++s) {
    const auto symbol = static_cast<Symbol>(s);
    if (used.test(symbol)) continue;
    used.set(symbol);
    prefix.push_back(symbol);
    extend(alphabet, prefix, used, level, out);
    prefix.pop_back();
    used.clear(symbol);
  }
}

}  // namespace

std::vector<Episode> all_distinct_episodes(const Alphabet& alphabet, int level) {
  gm::expects(level >= 1, "level must be positive");
  const std::uint64_t n = episode_space_size(alphabet.size(), level);
  gm::expects(n <= (1ULL << 26), "episode space too large to materialize");
  std::vector<Episode> out;
  out.reserve(n);
  std::vector<Symbol> prefix;
  prefix.reserve(static_cast<std::size_t>(level));
  SymbolMask used;
  extend(alphabet, prefix, used, level, out);
  gm::ensure(out.size() == n, "episode enumeration disagrees with Table 1 formula");
  return out;
}

std::vector<Episode> level1_candidates(const Alphabet& alphabet) {
  return all_distinct_episodes(alphabet, 1);
}

std::vector<Episode> generate_candidates(const std::vector<Episode>& frequent_prev, bool prune) {
  if (frequent_prev.empty()) return {};
  const int prev_level = frequent_prev.front().level();
  for (const auto& e : frequent_prev) {
    gm::expects(e.level() == prev_level, "frequent set must share one level");
  }

  // Join from a lexicographically sorted view so candidates come out in
  // prefix-sorted order (prefix_compression then needs no sort):
  // a-major emission sorts by the full (level-1)-prefix a, and every b
  // joinable with one a shares the prefix a[1..], so within the group the
  // appended last symbols are ascending too.  Mining levels are usually
  // already sorted (level 1 is, and this function keeps the invariant), so
  // the copy is the exceptional path.
  std::vector<Episode> sorted_view;
  const std::vector<Episode>* frequent = &frequent_prev;
  if (!std::is_sorted(frequent_prev.begin(), frequent_prev.end())) {
    sorted_view = frequent_prev;
    std::sort(sorted_view.begin(), sorted_view.end());
    frequent = &sorted_view;
  }
  std::vector<Episode> candidates;

  if (prev_level == 1) {
    // Join two level-1 episodes <a>, <b> (a != b allowed to repeat? the
    // episode model permits repeats; the paper's space uses distinct symbols
    // but general mining should not assume it).
    for (const auto& a : *frequent) {
      for (const auto& b : *frequent) {
        std::vector<Symbol> symbols{a.at(0), b.at(0)};
        candidates.emplace_back(std::move(symbols));
      }
    }
  } else {
    for (const auto& a : *frequent) {
      for (const auto& b : *frequent) {
        // a = <x, m...>, b = <m..., y>  ->  <x, m..., y>
        bool joinable = true;
        for (int i = 0; i + 1 < prev_level; ++i) {
          if (a.at(i + 1) != b.at(i)) {
            joinable = false;
            break;
          }
        }
        if (!joinable) continue;
        std::vector<Symbol> symbols(a.symbols().begin(), a.symbols().end());
        symbols.push_back(b.at(prev_level - 1));
        candidates.emplace_back(std::move(symbols));
      }
    }
  }

  gm::ensure(std::is_sorted(candidates.begin(), candidates.end()),
             "candidate join must emit lexicographic prefix-sorted episodes");
  if (!prune) return candidates;

  // Apriori pruning in place.  Dropping a candidate's first or last symbol
  // gives the two frequent episodes it was joined from, so only the middle
  // drops are looked up, in the sorted frequent set: no hash set and no
  // second candidate vector at the level's peak.
  std::erase_if(candidates, [&](const Episode& c) {
    for (int drop = 1; drop + 1 < c.level(); ++drop) {
      if (!std::binary_search(frequent->begin(), frequent->end(), c.without(drop))) return true;
    }
    return false;
  });
  return candidates;
}

std::vector<std::size_t> eliminate_infrequent(std::span<const Episode> episodes,
                                              const std::vector<std::int64_t>& counts,
                                              std::int64_t database_size,
                                              double support_threshold) {
  gm::expects(episodes.size() == counts.size(), "episode/count size mismatch");
  gm::expects(database_size > 0, "database must be non-empty");
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const double support =
        static_cast<double>(counts[i]) / static_cast<double>(database_size);
    if (support > support_threshold) keep.push_back(i);
  }
  return keep;
}

}  // namespace gm::core
