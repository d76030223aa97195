// The client-facing request/response surface of the mining service.
//
// One coherent shape replaces the scattered entry points clients used to
// stitch together (free mine_frequent_episodes + MinerConfig + bench-only
// BackendSpec + CLI flag plumbing): a MineRequest or CountRequest goes in,
// and a response comes back carrying the result, the per-level plan notes,
// how the request was served (fresh / cached / batched), a machine-readable
// rejection when it was not, and timing.  Requests never throw through the
// service boundary — every failure is a Rejection with a stable
// gm::ErrorCode.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/miner.hpp"

namespace gm::service {

/// How a response was produced.
enum class Disposition {
  kServed,     ///< counted fresh by a backend
  kCached,     ///< served from the session result cache, bit-identical
  kTruncated,  ///< partial mining result: the latency budget stopped the run
  kRejected,   ///< no work ran; see Rejection
};

[[nodiscard]] std::string_view to_string(Disposition disposition) noexcept;

/// Per-request service-level limits.
struct RequestLimits {
  /// Admission control: reject (or stop, mid-mine) work priced over this
  /// many milliseconds.  0 = no budget.  A count's price, or a mine's running
  /// sum of level prices, is that of the formulation that counts, on its own
  /// clock: simulated kernel ms for gpusim and distrib-gpu picks, host ms
  /// otherwise (a mine may sum both).  Unpriced work adds nothing.
  double latency_budget_ms = 0.0;
};

/// One mining run (Algorithm 1, all levels) as a service request.
struct MineRequest {
  core::MinerConfig config;
  RequestLimits limits;
};

/// One counting call (the paper's map step) over an explicit episode set.
/// All episodes must share one level — that is what makes requests batchable
/// (the service merges compatible queued episode sets into one backend call).
struct CountRequest {
  std::vector<core::Episode> episodes;
  core::Semantics semantics = core::Semantics::kNonOverlappedSubsequence;
  core::ExpiryPolicy expiry = {};
  RequestLimits limits;
};

/// Machine-readable refusal: a stable code plus a human-readable reason.
struct Rejection {
  ErrorCode code = ErrorCode::kUnknown;
  std::string reason;

  [[nodiscard]] std::string_view code_name() const noexcept { return error_code_name(code); }
};

struct Timing {
  double queue_ms = 0.0;      ///< submit -> worker pickup (0 for direct session calls)
  double service_ms = 0.0;    ///< session work: cache lookup + counting
  double predicted_ms = 0.0;  ///< the price the admission check used (see RequestLimits)
};

struct MineResponse {
  Disposition disposition = Disposition::kRejected;
  core::MiningResult result;  ///< empty when rejected
  /// One note per level reached, each figure labelled with its clock
  /// ("level 3: 17576 candidates, plan gpusim-algo5-trie/t128, predicted
  /// 5.352 ms simulated -> 17576 frequent (simulated kernel 6.879 ms, counted
  /// in 545.574 ms host)"; "not priced (<reason>)" replaces the plan).
  std::vector<std::string> plan_notes;
  Rejection rejection;  ///< set for kRejected (and the stop reason for kTruncated)
  Timing timing;
  std::uint64_t cache_key = 0;             ///< the session cache key the request mapped to
  std::uint64_t database_generation = 0;   ///< which loaded database served it

  [[nodiscard]] bool ok() const noexcept { return disposition != Disposition::kRejected; }
};

struct CountResponse {
  Disposition disposition = Disposition::kRejected;
  std::vector<std::int64_t> counts;  ///< counts[i] = occurrences of episodes[i]
  Rejection rejection;
  Timing timing;
  std::uint64_t cache_key = 0;
  std::uint64_t database_generation = 0;
  /// Number of other requests whose episodes were counted in the same
  /// backend call (0 = this request was counted alone).
  int batched_with = 0;

  [[nodiscard]] bool ok() const noexcept { return disposition != Disposition::kRejected; }
};

}  // namespace gm::service
