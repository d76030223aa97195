// service_demo — the mining-as-a-service API in one page.
//
// Builds a session over a synthetic database, stands up a MiningService, and
// walks the request lifecycle a client sees: a fresh mine, the same query
// again (cache hit), a batched burst of count requests, a request rejected by
// planner-driven admission control, and a database reload invalidating the
// cache.  Every outcome arrives as a structured response — no exceptions
// cross the service boundary.
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "data/generators.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

int main() {
  using namespace gm;

  data::Dataset dataset{core::Alphabet::english_uppercase(), {}};
  dataset.events = data::uniform_database(dataset.alphabet, 20'000, 7);

  auto session = std::make_shared<service::MiningSession>(
      dataset, service::SessionOptions{.backend = {.name = "auto", .threads = 2}});
  service::MiningService service(session, {.workers = 2});

  // 1. A fresh mining run.  The response carries the result, per-level plan
  //    notes from the adaptive planner, and timing.
  service::MineRequest mine;
  mine.config.support_threshold = 0.004;
  mine.config.max_level = 2;
  service::MineResponse first = service.submit(mine).get();
  std::printf("mine #1: %s, %lld frequent episodes in %.2f ms\n",
              std::string(to_string(first.disposition)).c_str(),
              static_cast<long long>(first.result.total_frequent()), first.timing.service_ms);
  for (const std::string& note : first.plan_notes) std::printf("  %s\n", note.c_str());

  // 2. The same query again: served from the result cache, bit-identical.
  service::MineResponse repeat = service.submit(mine).get();
  std::printf("mine #2: %s in %.3f ms (generation %llu)\n",
              std::string(to_string(repeat.disposition)).c_str(), repeat.timing.service_ms,
              static_cast<unsigned long long>(repeat.database_generation));

  // 3. A burst of compatible count requests (same level/semantics/expiry,
  //    distinct episode sets): a worker drains them into one shared backend
  //    call (batched_with > 0).  start_paused queues the whole burst first,
  //    so the batching is deterministic — under live traffic the same
  //    merging happens opportunistically.
  service::MiningService batcher(session, {.workers = 1, .start_paused = true});
  const char* pairs[] = {"AB", "CD", "EF", "GH", "IJ", "KL"};
  std::vector<std::future<service::CountResponse>> burst;
  for (const char* pair : pairs) {
    service::CountRequest count;
    count.episodes = {core::Episode::from_text(dataset.alphabet, pair)};
    burst.push_back(batcher.submit(count));
  }
  batcher.resume();
  for (auto& future : burst) {
    const service::CountResponse response = future.get();
    std::printf("count: %s, counts[0]=%lld, batched with %d other request(s)\n",
                std::string(to_string(response.disposition)).c_str(),
                static_cast<long long>(response.counts.empty() ? -1 : response.counts[0]),
                response.batched_with);
  }

  // 4. Admission control: an impossible latency budget is rejected before
  //    any counting runs, with a machine-readable code and the planner's
  //    prediction in the reason.  (A different shape from the query above —
  //    a cached answer is free, so repeats are served whatever the budget.)
  service::MineRequest hopeless = mine;
  hopeless.config.max_level = 3;
  hopeless.limits.latency_budget_ms = 1e-6;
  const service::MineResponse rejected = service.submit(hopeless).get();
  std::printf("budgeted mine: %s [%s] %s\n",
              std::string(to_string(rejected.disposition)).c_str(),
              std::string(rejected.rejection.code_name()).c_str(),
              rejected.rejection.reason.c_str());

  // 5. Reload: new data, new generation, caches invalidated atomically.
  dataset.events = data::uniform_database(dataset.alphabet, 30'000, 8);
  session->reload(dataset);
  const service::MineResponse fresh = service.submit(mine).get();
  std::printf("after reload: %s (generation %llu, %lld frequent)\n",
              std::string(to_string(fresh.disposition)).c_str(),
              static_cast<unsigned long long>(fresh.database_generation),
              static_cast<long long>(fresh.result.total_frequent()));

  const service::ServiceStats stats = service.stats();
  std::printf("stats: submitted=%llu served=%llu cached=%llu rejected=%llu batched=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.cached),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.batched));
  return 0;
}
