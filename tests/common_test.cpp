// Tests for the shared utilities: error machinery, RNG, the host worker
// pool, bench reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/report.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace gm {
namespace {

TEST(Error, TypedHierarchy) {
  EXPECT_THROW(raise_precondition("x"), PreconditionError);
  EXPECT_THROW(raise_invariant("x"), InvariantError);
  EXPECT_THROW(raise_device("x"), DeviceError);
  try {
    raise_device("bad launch");
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad launch"), std::string::npos);
    EXPECT_NE(what.find("device error"), std::string::npos);
  }
}

TEST(Error, StableCodesAcrossTheHierarchy) {
  // Machine-readable codes: the service layer serializes these into
  // responses, so each error family must carry its documented code.
  try {
    raise_precondition("x");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
  }
  try {
    raise_precondition("x", ErrorCode::kInvalidConfig);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
  try {
    raise_invariant("x");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvariant);
  }
  try {
    raise_device("x");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDevice);
  }
  EXPECT_EQ(Error("plain").code(), ErrorCode::kUnknown);
}

TEST(Error, CodeNamesAreStableSnakeCase) {
  EXPECT_EQ(error_code_name(ErrorCode::kUsage), "usage");
  EXPECT_EQ(error_code_name(ErrorCode::kInvalidConfig), "invalid_config");
  EXPECT_EQ(error_code_name(ErrorCode::kAdmissionRejected), "admission_rejected");
  EXPECT_EQ(error_code_name(ErrorCode::kQueueFull), "queue_full");
  EXPECT_EQ(error_code_name(ErrorCode::kCapability), "capability");
  EXPECT_EQ(error_code_name(ErrorCode::kShutdown), "shutdown");
  EXPECT_EQ(error_code_name(ErrorCode::kUnknown), "unknown");
}

TEST(Error, UsageErrorCarriesUsageCode) {
  try {
    (void)bench::parse_int("--tpb", "x64", 1, 512);
    FAIL() << "parse_int should reject non-numeric input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUsage);
    EXPECT_NE(std::string(e.what()).find("--tpb"), std::string::npos);
  }
}

TEST(Error, ExpectsAndEnsurePassThrough) {
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_THROW(expects(false, "nope"), PreconditionError);
  EXPECT_THROW(ensure(false, "nope"), InvariantError);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  EXPECT_NE(Rng(123)(), Rng(124)());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(9);
  std::array<int, 7> histogram{};
  for (int i = 0; i < 70'000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++histogram[v];
  }
  for (const int count : histogram) EXPECT_NEAR(count, 10'000, 600);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.between(3, 3), 3);
}

TEST(Rng, UnitAndChance) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) heads += rng.chance(0.25);
  EXPECT_NEAR(heads, 2500, 250);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(1);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(ParallelFor, EveryTaskRunsExactlyOnceOnAStableWorker) {
  for (const int workers : {1, 2, 3, 8}) {
    for (const std::int64_t tasks : {0, 1, 7, 64}) {
      const int threads = static_cast<int>(std::min<std::int64_t>(workers, tasks));
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(tasks));
      std::vector<std::thread::id> owner(static_cast<std::size_t>(workers));
      std::mutex owner_mutex;
      parallel_for(workers, tasks, [&](int worker, std::int64_t task) {
        runs[static_cast<std::size_t>(task)].fetch_add(1);
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, threads);
        // A worker index belongs to one thread for the whole call.
        const std::lock_guard lock(owner_mutex);
        auto& id = owner[static_cast<std::size_t>(worker)];
        if (id == std::thread::id{}) id = std::this_thread::get_id();
        EXPECT_EQ(id, std::this_thread::get_id());
      });
      for (const auto& r : runs) {
        EXPECT_EQ(r.load(), 1) << "workers=" << workers << " tasks=" << tasks;
      }
    }
  }
}

TEST(ParallelFor, OneWorkerRunsOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  using Shape = std::pair<int, std::int64_t>;  // (workers, tasks): one thread either way
  for (const auto& [workers, tasks] : {Shape{1, 7}, Shape{8, 1}}) {
    std::vector<std::int64_t> order;
    parallel_for(workers, tasks, [&](int worker, std::int64_t task) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(task);
    });
    ASSERT_EQ(order.size(), static_cast<std::size_t>(tasks));
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<std::int64_t>(i));  // claimed in index order
    }
  }
}

TEST(ParallelFor, TaskExceptionReachesTheCallerWithItsTypeAndCode) {
  for (const int workers : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(workers, 64, [&](int, std::int64_t task) {
        ran.fetch_add(1);
        if (task == 13) raise_precondition("task 13 refused", ErrorCode::kCapability);
      });
      ADD_FAILURE() << "the task's exception should reach the caller";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCapability);
      EXPECT_NE(std::string(e.what()).find("task 13 refused"), std::string::npos);
    }
    // Tasks 0..12 were claimed before the throwing one, so they all ran;
    // a lone worker claims nothing after it.
    EXPECT_GE(ran.load(), 14);
    if (workers == 1) {
      EXPECT_EQ(ran.load(), 14);
    }
  }
}

TEST(ParallelFor, ZeroWorkersResolveToTheHardwareConcurrency) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(resolved_thread_count(0), std::max(hardware, 1));
  EXPECT_EQ(resolved_thread_count(-3), std::max(hardware, 1));
  EXPECT_EQ(resolved_thread_count(3), 3);
  std::atomic<int> runs{0};
  parallel_for(0, 5, [&](int, std::int64_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 5);
}

TEST(Report, SeriesTableFormats) {
  bench::SeriesTable table("demo", "x", {1, 2});
  table.add({"a", {1.5, 2.5}});
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("1.500"), std::string::npos);

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("x,a"), std::string::npos);
  EXPECT_THROW(table.add({"bad", {1.0}}), PreconditionError);
}

TEST(Report, BestOfFindsMinimum) {
  const auto best = bench::best_of({16, 32, 64}, {3.0, 1.0, 2.0});
  EXPECT_EQ(best.x, 32);
  EXPECT_DOUBLE_EQ(best.value, 1.0);
  EXPECT_THROW((void)bench::best_of({}, {}), PreconditionError);
}

TEST(Report, PaperSweepShape) {
  const auto sweep = bench::paper_thread_sweep();
  EXPECT_EQ(sweep.front(), 16);
  EXPECT_EQ(sweep.back(), 512);
  for (std::size_t i = 1; i < sweep.size(); ++i) EXPECT_GT(sweep[i], sweep[i - 1]);
}

}  // namespace
}  // namespace gm
