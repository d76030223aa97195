// Tracing for the benchmark's traced runs, recorded from outside the library.
//
// Spans are kept in memory and written once, when the run ends, as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).  They are
// recorded only in the benchmark's own code, around calls into each layer's
// public functions; the library itself is not instrumented.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/counting.hpp"

namespace pb {

class Trace {
 public:
  /// Spans kept; later ones are counted but dropped, bounding the file.
  static constexpr std::size_t kMaxSpans = 50'000;

  /// Record one finished span and return its id (ids start at 1; parent 0
  /// means a root; 0 is also returned for a dropped span).  Safe to call
  /// from several threads.
  std::int64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = 0);

  /// Write every span as Chrome trace-event JSON to `path`.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t thread = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// A CountingBackend decorator that records every count() call: when it
/// started and ended, and what the wrapped backend reported.  Each call of a
/// mining run is one level, so the gaps between calls are the miner's and
/// the session's own work (elimination, the next level's candidate
/// generation, admission planning).
class TimedBackend final : public gm::core::CountingBackend {
 public:
  struct Call {
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t episodes = 0;
    int level = 0;
    double host_ms = 0.0;
    double simulated_kernel_ms = 0.0;
    std::vector<std::int64_t> counts;
  };

  explicit TimedBackend(gm::core::CountingBackend& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] int max_level() const override { return inner_.max_level(); }
  [[nodiscard]] gm::core::CountResult count(const gm::core::CountRequest& request) override;

  [[nodiscard]] const std::vector<Call>& calls() const noexcept { return calls_; }

 private:
  gm::core::CountingBackend& inner_;
  std::vector<Call> calls_;
};

}  // namespace pb
