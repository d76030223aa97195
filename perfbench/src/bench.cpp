#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bench_support/json.hpp"

namespace pb {
namespace {

// The reference scan: every level-3 episode of 26 symbols, 5,000 events.
constexpr std::uint32_t kSymbols = 26;
constexpr std::uint32_t kAutomata = kSymbols * kSymbols * kSymbols;
constexpr int kStreamLength = 5'000;

/// A fixed amount of dependent integer work the optimizer cannot remove.
std::uint64_t burn(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

struct BurnProbe {
  int threads = 1;
  double single_ms = 0.0;
  double parallel_ms = 0.0;
  double effective_cores = 1.0;
};

/// Time one burn alone, then `threads` identical burns at once (the median
/// of three rounds each).  With k real cores free the parallel round takes
/// about threads/k times as long, so threads * single / parallel estimates
/// the cores this run actually got.
BurnProbe burn_probe() {
  constexpr std::uint64_t kIterations = 1U << 23;  // about 20 ms on one core
  BurnProbe probe;
  probe.threads = std::max(1U, std::thread::hardware_concurrency());
  // Warm up first: a core that was idle may still be clocked down.
  std::uint64_t sink = burn(kIterations, 0);
  std::vector<double> singles, parallels;
  for (int round = 0; round < 3; ++round) {
    auto start = Clock::now();
    sink ^= burn(kIterations, static_cast<std::uint64_t>(round));
    singles.push_back(ms_since(start));

    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(probe.threads));
    start = Clock::now();
    {
      std::vector<std::jthread> workers;
      for (int t = 0; t < probe.threads; ++t) {
        workers.emplace_back([&sinks, t] {
          sinks[static_cast<std::size_t>(t)] = burn(kIterations, static_cast<std::uint64_t>(t));
        });
      }
    }
    parallels.push_back(ms_since(start));
    for (const std::uint64_t s : sinks) sink ^= s;
  }
  probe.single_ms = median(singles);
  probe.parallel_ms = median(parallels);
  probe.effective_cores = probe.threads * probe.single_ms / probe.parallel_ms;
  // Keep the result observable so the loops survive optimization.
  if (sink == 42) probe.effective_cores += 1e-12;
  return probe;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

ReferenceScan::ReferenceScan()
    : state_(kAutomata, 0), count_(kAutomata, 0), waiting_(kSymbols) {
  gm::Rng rng(0x5CA9);  // the same stream in every run
  for (int i = 0; i < kStreamLength; ++i) {
    stream_.push_back(static_cast<std::uint8_t>(rng.below(kSymbols)));
  }
  for (std::uint32_t a = 0; a < kAutomata; ++a) {
    symbols_.push_back(static_cast<std::uint8_t>(a / (kSymbols * kSymbols)));
    symbols_.push_back(static_cast<std::uint8_t>(a / kSymbols % kSymbols));
    symbols_.push_back(static_cast<std::uint8_t>(a % kSymbols));
  }
}

double ReferenceScan::run_ms() {
  for (std::vector<std::uint32_t>& list : waiting_) list.clear();
  for (std::uint32_t a = 0; a < kAutomata; ++a) {
    state_[a] = 0;
    waiting_[symbols_[3 * a]].push_back(a);
  }
  const auto start = Clock::now();
  for (const std::uint8_t s : stream_) {
    due_.swap(waiting_[s]);
    for (const std::uint32_t a : due_) {
      std::uint32_t state = state_[a] + 1;
      if (state == 3) {
        ++count_[a];
        state = 0;
      }
      state_[a] = state;
      waiting_[symbols_[3 * a + state]].push_back(a);
    }
    due_.clear();
  }
  return ms_since(start);
}

void report_latency(Outcome& outcome, const std::vector<double>& ref_ms,
                    const std::vector<double>& scan_ms, const std::vector<double>& latency_ms,
                    std::string_view operation) {
  const double samples = static_cast<double>(latency_ms.size());
  const double q = std::clamp(1.0 - 10.0 / samples, 0.5, 0.99);
  outcome.set("latency_ref_ms", median(ref_ms));
  char note[192];
  std::snprintf(note, sizeof(note),
                "%zu %s: p10 %.4f ms, p50 %.4f ms, p%.1f %.4f ms; reference scan p50 %.3f ms",
                latency_ms.size(), std::string(operation).c_str(), quantile(latency_ms, 0.1),
                median(latency_ms), q * 100.0, quantile(latency_ms, q), median(scan_ms));
  outcome.notes["latency"] = note;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space.  getrusage's ru_maxrss
  // would also count the parent's resident set at fork (run.py's Python),
  // which exec folds into it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string environment_json(const Options& options) {
  const BurnProbe probe = burn_probe();
  gm::bench::JsonWriter json;
  json.begin_object()
      .field("compiler", PB_COMPILER)
      .field("build_type", PB_BUILD_TYPE)
      .field("cxx_flags", PB_CXX_FLAGS)
      .field("git_sha", options.git_sha)
      .field("nproc", probe.threads)
      .field("effective_cores", probe.effective_cores)
      .field("burn_single_ms", probe.single_ms)
      .field("burn_parallel_ms", probe.parallel_ms)
      .end_object();
  return json.str();
}

}  // namespace pb
