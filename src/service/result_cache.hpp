// Session result cache: repeated queries over a shared database hit memory
// instead of re-counting.
//
// Keys are 64-bit FNV-1a digests over every field that changes the answer —
// database generation, the session's stream digest (the one its monitor
// checkpoints carry) and alphabet size, episode-set digest, semantics,
// expiry window, support threshold, level cap, pruning flag — so two
// requests collide only when they would produce bit-identical results.
// Values are whole responses (MiningResult / count vectors); the cache is a
// plain LRU with hit/miss/eviction/invalidation counters.  Not internally
// synchronized: MiningSession serializes access under its own mutex.
#pragma once

#include <bit>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/episode.hpp"

namespace gm::service {

/// Incremental FNV-1a digest builder for structured cache keys.
class Digest {
 public:
  Digest& mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& mix(std::int64_t v) noexcept { return mix(static_cast<std::uint64_t>(v)); }
  Digest& mix(int v) noexcept {
    return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  Digest& mix(bool v) noexcept { return mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  Digest& mix(double v) noexcept { return mix(std::bit_cast<std::uint64_t>(v)); }

  Digest& mix(const core::Episode& episode) noexcept {
    mix(static_cast<std::uint64_t>(episode.level()));
    for (const core::Symbol s : episode.symbols()) {
      hash_ = (hash_ ^ s) * 0x100000001b3ULL;
    }
    return *this;
  }

  template <typename Range>
  Digest& mix_range(const Range& range) noexcept {
    for (const auto& item : range) mix(item);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Capacity evictions of entries from the current database generation —
  /// genuine LRU pressure on answers that could still hit.
  std::uint64_t evictions = 0;
  /// Capacity evictions of entries left behind by a generation bump: their
  /// keys mix an old generation, so they could never hit again and dropping
  /// them loses nothing.  Previously folded into `evictions`, which made
  /// append-heavy sessions look capacity-starved when they were not.
  std::uint64_t stale_evictions = 0;
  /// Entries dropped by database reloads (clear() calls), not by capacity.
  std::uint64_t invalidations = 0;
};

/// Fixed-capacity LRU map from digest keys to cached response payloads.
/// The owner reports its database generation via `set_generation` (appends
/// bump it); entries inserted under an older generation are unreachable —
/// every future key mixes the new generation — so their eventual LRU exit is
/// counted as a `stale_eviction`, not capacity pressure.
template <typename Value>
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up a key, refreshing its recency on a hit.
  [[nodiscard]] std::optional<Value> get(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  void put(std::uint64_t key, Value value) {
    if (capacity_ == 0) return;
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second->value = std::move(value);
      it->second->generation = generation_;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(Entry{key, generation_, std::move(value)});
    index_.emplace(key, order_.begin());
    if (index_.size() > capacity_) {
      const Entry& victim = order_.back();
      ++(victim.generation == generation_ ? stats_.evictions : stats_.stale_evictions);
      index_.erase(victim.key);
      order_.pop_back();
    }
  }

  /// Owner's current database generation; entries put before the last bump
  /// are stale by definition (their keys can never be asked for again).
  void set_generation(std::uint64_t generation) noexcept { generation_ = generation; }

  /// Drop everything (database reload): counted as invalidations.
  void clear() {
    stats_.invalidations += index_.size();
    index_.clear();
    order_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint64_t generation;
    Value value;
  };

  std::size_t capacity_;
  std::uint64_t generation_ = 0;
  std::list<Entry> order_;  ///< most recent first
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace gm::service
