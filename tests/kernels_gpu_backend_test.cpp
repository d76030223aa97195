// Integration tests: the simulated-GPU counting backend inside the miner,
// and the multi-device scale-model extension (distrib/scale_model.hpp).
#include <gtest/gtest.h>

#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "kernels/gpu_backend.hpp"
#include "distrib/scale_model.hpp"

namespace gm::kernels {
namespace {

using core::Alphabet;

TEST(SimGpuBackend, MinerMatchesCpuAcrossAlgorithms) {
  const Alphabet alphabet(6);
  const auto db = data::uniform_database(alphabet, 2000, 21);

  core::MinerConfig config;
  config.support_threshold = 0.001;
  config.max_level = 3;

  core::SerialCpuBackend cpu;
  const auto reference = core::mine_frequent_episodes(db, alphabet, cpu, config);

  for (const Algorithm algorithm : all_algorithms()) {
    MiningLaunchParams params;
    params.algorithm = algorithm;
    params.threads_per_block = 64;
    params.buffer_bytes = 512;
    SimGpuBackend gpu(gpusim::geforce_gtx_280(), params);

    const auto mined = core::mine_frequent_episodes(db, alphabet, gpu, config);
    ASSERT_EQ(mined.total_frequent(), reference.total_frequent()) << to_string(algorithm);
    for (std::size_t i = 0; i < mined.frequent.size(); ++i) {
      EXPECT_EQ(mined.frequent[i].episode, reference.frequent[i].episode);
      EXPECT_EQ(mined.frequent[i].count, reference.frequent[i].count);
    }
    for (const auto& level : mined.levels) {
      EXPECT_GT(level.simulated_kernel_ms, 0.0);
    }
  }
}

TEST(SimGpuBackend, NameDescribesConfiguration) {
  MiningLaunchParams params;
  params.algorithm = Algorithm::kBlockTexture;
  params.threads_per_block = 96;
  SimGpuBackend gpu(gpusim::geforce_8800_gts_512(), params);
  const auto name = gpu.name();
  EXPECT_NE(name.find("algo3"), std::string::npos);
  EXPECT_NE(name.find("t96"), std::string::npos);
  EXPECT_NE(name.find("8800"), std::string::npos);

  // The trie mode is part of the configuration: a session recognises its
  // own fixed backend by name.
  params.algorithm = Algorithm::kBlockBucketed;
  params.threads_per_block = 128;
  const std::string gtx = gpusim::geforce_gtx_280().name;
  EXPECT_EQ(SimGpuBackend(gpusim::geforce_gtx_280(), params).name(),
            "gpusim/algo5-block-bucketed/t128/" + gtx);
  params.trie_buckets = true;
  EXPECT_EQ(SimGpuBackend(gpusim::geforce_gtx_280(), params).name(),
            "gpusim/algo5-block-bucketed-trie/t128/" + gtx);
}

TEST(SimGpuBackend, RequestSemanticsOverrideLaunchDefaults) {
  const Alphabet alphabet(4);
  const auto db = data::uniform_database(alphabet, 1500, 5);
  MiningLaunchParams params;
  params.algorithm = Algorithm::kThreadTexture;
  params.threads_per_block = 32;
  SimGpuBackend gpu(gpusim::geforce_gtx_280(), params);

  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.semantics = core::Semantics::kContiguousRestart;
  const auto result = gpu.count(request);
  EXPECT_EQ(result.counts,
            core::count_all(request.episodes, db, core::Semantics::kContiguousRestart));
}

TEST(SimGpuBackend, EveryFormulationDeclaresItsTexturePattern) {
  // The cost model prices texture traffic from the pattern each block
  // declares, and refuses a fetching block that declares none.  Every
  // formulation fetches texture, so every fetching group must declare a
  // pattern, and the backend's counts and price must be the functional run's
  // priced by CostModel::predict.
  const Alphabet alphabet(6);
  const auto db = data::uniform_database(alphabet, 3000, 17);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  const gpusim::DeviceSpec device = gpusim::geforce_gtx_280();
  gpusim::EngineOptions options;
  options.host_threads = 2;
  const gpusim::Engine engine(device, options);
  const gpusim::CostModel cost_model;

  std::vector<MiningLaunchParams> launches;
  for (const Algorithm algorithm : all_algorithms()) {
    MiningLaunchParams params;
    params.algorithm = algorithm;
    params.threads_per_block = 32;
    params.buffer_bytes = 512;
    launches.push_back(params);
  }
  launches.push_back(launches.back());
  launches.back().trie_buckets = true;

  for (const MiningLaunchParams& params : launches) {
    SimGpuBackend gpu(device, params, cost_model.params());
    core::CountRequest request;
    request.database = db;
    request.episodes = episodes;
    const core::CountResult result = gpu.count(request);

    const MiningRun run = run_mining_kernel(engine, db, episodes, params);
    const DeviceProblem problem(db, episodes, params);
    const std::string label = gpu.name();
    EXPECT_GT(run.launch.totals.tex_requests, 0.0) << label;
    for (const auto& group : run.launch.profile.groups) {
      if (group.block.tex_requests > 0) {
        EXPECT_NE(group.block.texture.kind, gpusim::TexAccessKind::kNone) << label;
      }
    }
    EXPECT_EQ(result.counts, run.counts) << label;
    EXPECT_EQ(result.simulated_kernel_ms,
              cost_model.predict(device, problem.launch_config(), run.launch.profile).total_ms)
        << label;
  }
}

TEST(MultiGpu, TwoDiesNearlyHalveLargeProblems) {
  WorkloadSpec spec;
  spec.db_size = data::kPaperDatabaseSize;
  spec.episode_count = 15'600;
  spec.level = 3;
  spec.params.algorithm = Algorithm::kThreadTexture;
  spec.params.threads_per_block = 128;

  const auto gx2 = gpusim::geforce_9800_gx2();
  const auto one =
      distrib::predict_scaled_mining(gx2, 1, spec, distrib::ShardAxis::kEpisodes);
  const auto two =
      distrib::predict_scaled_mining(gx2, 2, spec, distrib::ShardAxis::kEpisodes);
  EXPECT_EQ(two.share_per_device.size(), 2u);
  EXPECT_EQ(two.share_per_device[0] + two.share_per_device[1], 15'600);
  EXPECT_GT(one.total_ms / two.total_ms, 1.5);
  EXPECT_LE(one.total_ms / two.total_ms, 2.05);
}

TEST(MultiGpu, SmallProblemsDoNotScale) {
  // 26 episodes at L1 underfill even one die: a second die barely helps
  // (there is no work to split once per-die launches dominate).
  WorkloadSpec spec;
  spec.db_size = data::kPaperDatabaseSize;
  spec.episode_count = 26;
  spec.level = 1;
  spec.params.algorithm = Algorithm::kThreadTexture;
  spec.params.threads_per_block = 32;

  const auto gx2 = gpusim::geforce_9800_gx2();
  const auto one =
      distrib::predict_scaled_mining(gx2, 1, spec, distrib::ShardAxis::kEpisodes);
  const auto two =
      distrib::predict_scaled_mining(gx2, 2, spec, distrib::ShardAxis::kEpisodes);
  EXPECT_LT(one.total_ms / two.total_ms, 1.2);
}

TEST(MultiGpu, MoreDiesThanEpisodes) {
  WorkloadSpec spec;
  spec.db_size = 10'000;
  spec.episode_count = 2;
  spec.level = 1;
  spec.params.algorithm = Algorithm::kThreadTexture;
  spec.params.threads_per_block = 32;
  const auto p = distrib::predict_scaled_mining(gpusim::geforce_gtx_280(), 4, spec,
                                                distrib::ShardAxis::kEpisodes);
  EXPECT_EQ(p.share_per_device, (std::vector<std::int64_t>{1, 1, 0, 0}));
  EXPECT_GT(p.total_ms, 0.0);
}

}  // namespace
}  // namespace gm::kernels
