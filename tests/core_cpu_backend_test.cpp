// CPU counting backend tests: bit-exact agreement of the single-scan backend
// with the serial reference, regressions for the stream-chunk parallel
// backend (more workers than episodes, every count slot filled, refusals on
// the calling thread), and name resolution.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cpu_backend.hpp"
#include "core/lane_counter.hpp"
#include "data/generators.hpp"
#include "random_episode_util.hpp"

namespace gm::core {
namespace {

using test::random_episodes;

TEST(SingleScanCpuBackend, AgreesWithSerialBackend) {
  Rng rng(4242);
  const Alphabet alphabet(14);
  const auto db = data::uniform_database(alphabet, 5000, 3);
  const auto episodes = random_episodes(rng, 14, 50, 3);
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.expiry = ExpiryPolicy{6};
  SerialCpuBackend serial;
  SingleScanCpuBackend single_scan;
  EXPECT_EQ(single_scan.count(request).counts, serial.count(request).counts);
}

// Regression: the worker count once narrowed size_t episode counts through
// std::min<int>; with more threads than episodes every thread must still
// claim valid work and the merge must fill every slot exactly once.
TEST(ParallelCpuBackend, MoreThreadsThanEpisodes) {
  const std::vector<Episode> episodes = {Episode({0}), Episode({1}), Episode({0, 1})};
  const Sequence db = {0, 1, 0, 1, 0};
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  SerialCpuBackend serial;
  ParallelCpuBackend parallel(16);
  EXPECT_EQ(parallel.count(request).counts, serial.count(request).counts);
}

TEST(ParallelCpuBackend, ManyEpisodesMergeCompletely) {
  Rng rng(9);
  const Alphabet alphabet(6);
  const auto db = data::uniform_database(alphabet, 2000, 1);
  const auto episodes = random_episodes(rng, 6, 97, 3);  // not a multiple of threads
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  SerialCpuBackend serial;
  ParallelCpuBackend parallel(5);
  EXPECT_EQ(parallel.count(request).counts, serial.count(request).counts);
}

// Regression: cpu-parallel used to hit the empty-episode precondition inside
// a worker thread, where the throw terminated the process; every CPU
// backend must refuse the request on the calling thread instead.
TEST(ParallelCpuBackend, RefusesAnEmptyEpisodeOnTheCallingThread) {
  Rng rng(19);
  const Alphabet alphabet(5);
  const auto db = data::uniform_database(alphabet, 500, 2);
  auto episodes = random_episodes(rng, 5, 8, 3);
  episodes.emplace_back();
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  for (const char* name : {"cpu-parallel", "cpu-serial", "cpu-single-scan", "cpu-lane-scan"}) {
    const auto backend = make_cpu_backend(name, 4);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_THROW((void)backend->count(request), gm::Error) << name;
  }
}

TEST(CpuBackends, EmptyEpisodeListYieldsEmptyCounts) {
  const Sequence db = {0, 1, 2};
  CountRequest request;
  request.database = db;
  ParallelCpuBackend parallel(4);
  SingleScanCpuBackend single_scan;
  EXPECT_TRUE(parallel.count(request).counts.empty());
  EXPECT_TRUE(single_scan.count(request).counts.empty());
}

TEST(MakeCpuBackend, ResolvesNamesAndAliases) {
  EXPECT_EQ(make_cpu_backend("cpu-serial")->name(), "cpu-serial");
  EXPECT_EQ(make_cpu_backend("serial")->name(), "cpu-serial");
  EXPECT_EQ(make_cpu_backend("cpu-parallel", 3)->name(), "cpu-parallel-x3");
  EXPECT_EQ(make_cpu_backend("single-scan")->name(), "cpu-single-scan");
  EXPECT_EQ(make_cpu_backend("lane-scan")->name(), "cpu-lane-scan");
  EXPECT_EQ(make_cpu_backend("cpu-lane-scan")->max_level(), kLaneMaxLevel);
  EXPECT_EQ(make_cpu_backend("gpusim"), nullptr);
  EXPECT_EQ(make_cpu_backend("nope"), nullptr);
}

}  // namespace
}  // namespace gm::core
