#include "planner/auto_backend.hpp"

#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "planner/workload.hpp"

namespace gm::planner {

AutoBackend::AutoBackend(PlannerOptions options) : options_(std::move(options)) {}

std::string AutoBackend::name() const { return "auto(" + options_.device.name + ")"; }

int AutoBackend::max_level() const {
  return options_.enable_cpu ? 0 : kernels::kMaxLevel;
}

const Plan& AutoBackend::plan(const core::CountRequest& request) {
  gm::expects(!request.episodes.empty(), "count request carries no episodes");
  kept_.reset();
  kept_ = plan_level(workload_of(request), options_);
  kept_for_ = request;
  return *kept_;
}

core::CountResult AutoBackend::count(const core::CountRequest& request) {
  gm::expects(!request.episodes.empty(), "count request carries no episodes");

  // workload_of costs one O(|DB|) pass, noise next to the counting it steers.
  // Any count() drops the kept plan, so it is never older than the latest
  // feedback and span identity only has to hold across one plan()/count().
  const auto identity = [](const core::CountRequest& r) {
    return std::tuple(r.database.data(), r.database.size(), r.episodes.data(),
                      r.episodes.size(), r.semantics, r.expiry);
  };
  std::optional<Plan> kept = std::exchange(kept_, std::nullopt);
  plans_.push_back(kept && identity(request) == identity(kept_for_)
                       ? std::move(*kept)
                       : plan_level(workload_of(request), options_));
  const ScoredCandidate& winner = plans_.back().winner();
  const std::string key = winner.config.label();
  std::unique_ptr<core::CountingBackend>& backend = backends_[key];
  if (!backend) backend = make_planned_backend(winner.config, options_);
  core::CountResult result = backend->count(request);

  // Online feedback: fold measured/predicted into the winner's bias with
  // recency weighting.  predicted_ms already carries the current bias, so
  // divide it back out to compare against the raw model value — otherwise a
  // stable 2x model error would compound to 4x, 8x, ... instead of settling
  // at a 2x multiplier.
  const double measured_ms =
      winner.config.simulated() ? result.simulated_kernel_ms : result.host_ms;
  const double prior = bias_for(options_, winner.config);
  const double raw_predicted_ms = winner.predicted_ms / prior;
  const double observed =
      (measured_ms + kFeedbackFloorMs) / (raw_predicted_ms + kFeedbackFloorMs);
  options_.measured_bias[key] = (1.0 - kFeedbackBlend) * prior + kFeedbackBlend * observed;
  return result;
}

}  // namespace gm::planner
