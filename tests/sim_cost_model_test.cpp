// Timing-model tests: mechanism properties (clock scaling, bandwidth
// ordering, occupancy waves, latency hiding) and the calibration pin against
// the paper's published curve levels.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/paper_setup.hpp"
#include "data/generators.hpp"
#include "kernels/workload_model.hpp"
#include "sim/cost_model.hpp"

namespace gpusim {
namespace {

using gm::bench::paper_time_ms;
using gm::kernels::Algorithm;
using gm::kernels::WorkloadSpec;

WorkloadSpec paper_spec(Algorithm algorithm, int level, int tpb) {
  WorkloadSpec spec;
  spec.db_size = gm::data::kPaperDatabaseSize;
  spec.episode_count = gm::bench::paper_episode_count(level);
  spec.level = level;
  spec.params.algorithm = algorithm;
  spec.params.threads_per_block = tpb;
  return spec;
}

TEST(CostModel, LatencyBoundKernelsScaleWithClock) {
  // C7: same cycle counts, time inversely proportional to shader clock.
  const double gts = paper_time_ms(geforce_8800_gts_512(), Algorithm::kThreadTexture, 2, 128);
  const double gtx = paper_time_ms(geforce_gtx_280(), Algorithm::kThreadTexture, 2, 128);
  EXPECT_NEAR(gtx / gts, 1625.0 / 1296.0, 0.02);
}

TEST(CostModel, BandwidthBoundKernelsFollowBandwidth) {
  // C8: Algo3's strided traffic makes the 141.7 GB/s card win.
  const double gts = paper_time_ms(geforce_8800_gts_512(), Algorithm::kBlockTexture, 1, 256);
  const double gtx = paper_time_ms(geforce_gtx_280(), Algorithm::kBlockTexture, 1, 256);
  EXPECT_LT(gtx, gts);
  EXPECT_GT(gts / gtx, 1.8);
}

TEST(CostModel, MoreEpisodesNearlyFreeUntilCardFills) {
  // C1: 650 vs 26 episodes on thread-level kernels costs < 15% extra.
  const double l1 = paper_time_ms(geforce_gtx_280(), Algorithm::kThreadTexture, 1, 96);
  const double l2 = paper_time_ms(geforce_gtx_280(), Algorithm::kThreadTexture, 2, 96);
  EXPECT_LT(l2 / l1, 1.15);
}

TEST(CostModel, BlockLevelPaysPerEpisode) {
  // Block kernels launch one block per episode: L2 is ~an order of magnitude
  // more expensive than L1 at the same configuration.
  const double l1 = paper_time_ms(geforce_gtx_280(), Algorithm::kBlockTexture, 1, 128);
  const double l2 = paper_time_ms(geforce_gtx_280(), Algorithm::kBlockTexture, 2, 128);
  EXPECT_GT(l2 / l1, 8.0);
}

TEST(CostModel, WavesGrowWithBlockCount) {
  const CostModel model;
  const auto gtx = geforce_gtx_280();
  const auto spec_l1 = paper_spec(Algorithm::kBlockTexture, 1, 128);
  const auto spec_l3 = paper_spec(Algorithm::kBlockTexture, 3, 128);
  const auto t1 = predict_mining_time(gtx, spec_l1, model);
  const auto t3 = predict_mining_time(gtx, spec_l3, model);
  EXPECT_EQ(t1.waves, 1);       // 26 blocks on 30 SMs
  EXPECT_GT(t3.waves, 50);      // 15,600 blocks, 240 concurrent
}

TEST(CostModel, BreakdownSumsToTotal) {
  const CostModel model;
  const auto gtx = geforce_gtx_280();
  for (const auto algorithm : gm::kernels::all_algorithms()) {
    const auto breakdown =
        predict_mining_time(gtx, paper_spec(algorithm, 2, 128), model);
    EXPECT_GT(breakdown.total_ms, 0.0);
    // The bound categories + overheads account for the total.
    const double parts = breakdown.issue_ms + breakdown.latency_ms + breakdown.bandwidth_ms +
                         breakdown.sync_ms + breakdown.dispatch_ms + breakdown.launch_ms;
    EXPECT_NEAR(parts, breakdown.total_ms, 1e-6);
    EXPECT_TRUE(breakdown.bound_by == "issue" || breakdown.bound_by == "latency" ||
                breakdown.bound_by == "bandwidth");
  }
}

TEST(CostModel, LaunchOverheadFloorsTinyKernels) {
  CostParams params;
  params.kernel_launch_overhead_us = 500.0;
  const CostModel model(params);
  const auto t =
      predict_mining_time(geforce_gtx_280(), paper_spec(Algorithm::kBlockBuffered, 1, 256),
                          model);
  EXPECT_GE(t.total_ms, 0.5);
}

TEST(CostModel, SplitGroupPredictsBitForBitAsOneGroup) {
  // Waves drawn from one group reuse that group's last wave cost; a wave
  // straddling two identical groups is walked block by block.  Both routes
  // must land on the same sums, bit for bit.
  const CostModel model;
  const auto gtx = geforce_gtx_280();
  const auto spec = paper_spec(Algorithm::kBlockTexture, 3, 128);
  const KernelProfile whole = model_profile(gtx, spec);
  const LaunchConfig launch = model_launch_config(spec);
  KernelProfile split = whole;
  KernelProfile::Group tail = split.groups.back();
  split.groups.back().count = tail.count / 2;  // not a whole number of waves
  tail.count -= split.groups.back().count;
  split.groups.push_back(tail);

  const TimeBreakdown a = model.predict(gtx, launch, whole);
  const TimeBreakdown b = model.predict(gtx, launch, split);
  EXPECT_GT(a.waves, 50);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.issue_ms, b.issue_ms);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.bandwidth_ms, b.bandwidth_ms);
  EXPECT_EQ(a.sync_ms, b.sync_ms);
  EXPECT_EQ(a.dispatch_ms, b.dispatch_ms);
  EXPECT_EQ(a.bound_by, b.bound_by);
}

TEST(CostModel, RejectsMismatchedProfile) {
  const CostModel model;
  const auto gtx = geforce_gtx_280();
  const auto spec = paper_spec(Algorithm::kThreadTexture, 1, 128);
  auto profile = model_profile(gtx, spec);
  auto launch = model_launch_config(spec);
  launch.grid = Dim3(static_cast<int>(profile.total_blocks()) + 1);
  EXPECT_THROW((void)model.predict(gtx, launch, profile), gm::PreconditionError);
}

TEST(CostModel, RefusesTextureFetchesWithoutADeclaredPattern) {
  // Texture traffic is priced from the block's declared pattern alone, so a
  // block that fetches texture without one is refused, not priced as if
  // every fetch hit the cache.
  const CostModel model;
  const auto gtx = geforce_gtx_280();
  LaunchConfig launch;
  launch.block = Dim3(32);
  BlockProfile block;
  block.warps = 1;
  block.warp_instructions = 64.0;
  block.warp_tex_ops = 32.0;
  block.path_instructions = 64.0;
  block.path_tex_ops = 32.0;
  block.lane_instructions = 2048.0;
  block.tex_requests = 1024.0;
  KernelProfile profile;
  profile.add_block(block);
  EXPECT_THROW((void)model.predict(gtx, launch, profile), gm::PreconditionError);

  profile.groups.front().block.texture = {TexAccessKind::kCoalescedStream, 1024.0, 0};
  EXPECT_GT(model.predict(gtx, launch, profile).total_ms, 0.0);
}

// --------------------------------------------------------------------------
// Calibration pin: the model must stay within the accuracy band recorded in
// EXPERIMENTS.md against readings of the paper's figures.
// --------------------------------------------------------------------------

struct Reference {
  const char* card;
  Algorithm algorithm;
  int level;
  int tpb;
  double paper_ms;
};

TEST(Calibration, ReferencePointsWithinBand) {
  const Reference references[] = {
      {"8800", Algorithm::kThreadTexture, 1, 128, 127.0},
      {"gx2", Algorithm::kThreadTexture, 1, 128, 140.0},
      {"gtx280", Algorithm::kThreadTexture, 1, 128, 160.0},
      {"gtx280", Algorithm::kThreadTexture, 1, 512, 290.0},
      {"gtx280", Algorithm::kThreadTexture, 3, 96, 300.0},
      {"gtx280", Algorithm::kThreadBuffered, 1, 512, 45.0},
      {"8800", Algorithm::kBlockTexture, 1, 16, 13.0},
      {"gtx280", Algorithm::kBlockTexture, 1, 256, 2.0},
      {"gtx280", Algorithm::kBlockTexture, 2, 64, 70.0},
      {"gtx280", Algorithm::kBlockTexture, 3, 512, 2000.0},
      {"8800", Algorithm::kBlockTexture, 3, 512, 3700.0},
      {"gtx280", Algorithm::kBlockBuffered, 1, 256, 1.0},
      {"gtx280", Algorithm::kBlockBuffered, 3, 96, 900.0},
  };
  double log_error = 0.0;
  for (const auto& r : references) {
    const double predicted =
        paper_time_ms(device_by_name(r.card), r.algorithm, r.level, r.tpb);
    const double ratio = predicted / r.paper_ms;
    EXPECT_GT(ratio, 0.2) << to_string(r.algorithm) << " L" << r.level << " @" << r.tpb;
    EXPECT_LT(ratio, 5.0) << to_string(r.algorithm) << " L" << r.level << " @" << r.tpb;
    log_error += std::abs(std::log(ratio));
  }
  EXPECT_LT(log_error / std::size(references), 0.45)
      << "mean |log ratio| regression: see bench/calibration_table";
}

}  // namespace
}  // namespace gpusim
