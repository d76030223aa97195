// Functional-engine tests: kernel execution, barriers, SIMT warp accounting,
// memory views (including the bulk charge forms), atomics, and failure modes.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"

namespace gpusim {
namespace {

LaunchConfig cfg(int blocks, int tpb, int shared = 0) {
  LaunchConfig c;
  c.grid = Dim3(blocks);
  c.block = Dim3(tpb);
  c.shared_mem_per_block = shared;
  c.registers_per_thread = 10;
  return c;
}

Engine test_engine() {
  EngineOptions opts;
  opts.host_threads = 2;
  return Engine(geforce_8800_gts_512(), opts);
}

TEST(Engine, VectorAddProducesCorrectResults) {
  const Engine engine = test_engine();
  const int n = 1024;
  std::vector<int> a(n), b(n);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 100);
  DeviceBuffer<int> da{std::span<const int>(a)};
  DeviceBuffer<int> db{std::span<const int>(b)};
  DeviceBuffer<int> dc{static_cast<std::size_t>(n)};

  auto ga = da.global();
  auto gb = db.global();
  auto gc = dc.global();
  const KernelFn kernel = [=](ThreadCtx& ctx) mutable -> KernelTask {
    const int i = ctx.global_thread();
    ctx.charge(1);
    gc.store(ctx, static_cast<std::size_t>(i),
             ga.load(ctx, static_cast<std::size_t>(i)) +
                 gb.load(ctx, static_cast<std::size_t>(i)));
    co_return;
  };

  const auto result = engine.launch(cfg(n / 128, 128), kernel);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(dc.host()[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i)] +
                                                          b[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(result.totals.blocks, 8);
  EXPECT_EQ(result.totals.global_requests, 3.0 * n);
}

TEST(Engine, SyncthreadsOrdersSharedMemoryPhases) {
  const Engine engine = test_engine();
  const int tpb = 64;
  DeviceBuffer<int> out{static_cast<std::size_t>(tpb)};
  auto gout = out.global();

  // Phase 1: thread i writes slot i; phase 2: thread i reads slot (i+1)%tpb.
  const KernelFn kernel = [=](ThreadCtx& ctx) mutable -> KernelTask {
    SharedArray<int> shared(ctx, static_cast<std::size_t>(ctx.block_dim()));
    shared.store(static_cast<std::size_t>(ctx.thread_idx()), ctx.thread_idx() * 7);
    co_await ctx.syncthreads();
    const int neighbour = (ctx.thread_idx() + 1) % ctx.block_dim();
    gout.store(ctx, static_cast<std::size_t>(ctx.thread_idx()),
               shared.load(static_cast<std::size_t>(neighbour)));
    co_return;
  };

  (void)engine.launch(cfg(1, tpb, tpb * static_cast<int>(sizeof(int))), kernel);
  for (int i = 0; i < tpb; ++i) {
    EXPECT_EQ(out.host()[static_cast<std::size_t>(i)], ((i + 1) % tpb) * 7);
  }
}

TEST(Engine, DivergentBarrierIsDetected) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    if (ctx.thread_idx() < 16) co_await ctx.syncthreads();  // half the block only
    co_return;
  };
  EXPECT_THROW((void)engine.launch(cfg(1, 32), kernel), gm::DeviceError);
}

TEST(Engine, KernelExceptionsPropagate) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    if (ctx.global_thread() == 37) gm::raise_invariant("injected failure");
    co_return;
  };
  EXPECT_THROW((void)engine.launch(cfg(2, 32), kernel), gm::InvariantError);
}

TEST(Engine, WarpAccountingTakesMaxOverLanes) {
  const Engine engine = test_engine();
  // Lane i charges i instructions; one 32-lane warp => warp cost = 31,
  // lane total = sum 0..31 = 496.
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    ctx.charge(static_cast<std::uint64_t>(ctx.lane()));
    co_return;
  };
  const auto result = engine.launch(cfg(1, 32), kernel);
  ASSERT_EQ(result.profile.groups.size(), 1u);
  const auto& block = result.profile.groups[0].block;
  EXPECT_DOUBLE_EQ(block.warp_instructions, 31.0);
  EXPECT_DOUBLE_EQ(block.lane_instructions, 496.0);
}

TEST(Engine, SegmentsResetAtBarriers) {
  const Engine engine = test_engine();
  // Segment 1: lane 0 does 10, others 0.  Segment 2: lane 1 does 10.
  // Warp cost must be 10+10+2 barrier-instr... barrier charges 1 to each lane:
  // segment1 max = 11, segment2 max = 10.
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    if (ctx.lane() == 0) ctx.charge(10);
    co_await ctx.syncthreads();
    if (ctx.lane() == 1) ctx.charge(10);
    co_return;
  };
  const auto result = engine.launch(cfg(1, 32), kernel);
  const auto& block = result.profile.groups[0].block;
  EXPECT_EQ(block.syncs, 1);
  EXPECT_DOUBLE_EQ(block.warp_instructions, 21.0);
}

TEST(Engine, MultiWarpBlocksAggregatePerWarp) {
  const Engine engine = test_engine();
  // Warp 0 lanes charge 5, warp 1 lanes charge 9 => block warp cost 14.
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    ctx.charge(ctx.warp() == 0 ? 5u : 9u);
    co_return;
  };
  const auto result = engine.launch(cfg(1, 64), kernel);
  EXPECT_DOUBLE_EQ(result.profile.groups[0].block.warp_instructions, 14.0);
}

TEST(Engine, AtomicsAggregateAcrossBlocks) {
  const Engine engine = test_engine();
  DeviceBuffer<std::uint32_t> counter{1};
  auto gc = counter.global();
  const KernelFn kernel = [=](ThreadCtx& ctx) mutable -> KernelTask {
    (void)gc.atomic_add(ctx, 0, 1);
    co_return;
  };
  const auto result = engine.launch(cfg(8, 32), kernel);
  EXPECT_EQ(counter.host()[0], 256u);
  EXPECT_EQ(result.totals.atomic_requests, 256.0);
}

TEST(Engine, TextureFetchesChargeOneOpEach) {
  EngineOptions opts;
  opts.host_threads = 1;
  const Engine engine(geforce_8800_gts_512(), opts);
  std::vector<std::uint8_t> data(4096, 7);
  DeviceBuffer<std::uint8_t> buf{std::span<const std::uint8_t>(data)};
  auto tex = buf.texture();
  // One thread streams the whole buffer: one texture request per fetch.
  const KernelFn kernel = [=](ThreadCtx& ctx) -> KernelTask {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < 4096; ++i) sum += tex.fetch(ctx, i);
    if (sum == 0) gm::raise_invariant("unreachable");
    co_return;
  };
  const auto result = engine.launch(cfg(1, 1), kernel);
  EXPECT_EQ(result.profile.groups[0].block.tex_requests, 4096.0);
}

TEST(Engine, IdenticalBlocksCoalesceIntoOneGroup) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    ctx.charge(3);
    co_return;
  };
  const auto result = engine.launch(cfg(40, 64), kernel);
  EXPECT_EQ(result.profile.groups.size(), 1u);
  EXPECT_EQ(result.profile.groups[0].count, 40);
}

TEST(Engine, OutOfBoundsAccessIsCaught) {
  const Engine engine = test_engine();
  DeviceBuffer<int> buf{4};
  auto g = buf.global();
  const KernelFn kernel = [=](ThreadCtx& ctx) -> KernelTask {
    (void)g.load(ctx, 99);
    co_return;
  };
  EXPECT_THROW((void)engine.launch(cfg(1, 1), kernel), gm::InvariantError);
}

TEST(Engine, SharedArrayBoundsChecked) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    SharedArray<int> shared(ctx, 4);
    shared.store(99, 1);
    co_return;
  };
  EXPECT_THROW((void)engine.launch(cfg(1, 1, 64), kernel), gm::InvariantError);
}

TEST(Engine, BulkAccessesAreBoundsChecked) {
  const Engine engine = test_engine();
  DeviceBuffer<int> buf{4};
  auto g = buf.global();
  using Access = std::function<void(ThreadCtx&, SharedArray<int>&)>;
  const std::vector<Access> out_of_range = {
      // A span running past the end, and one starting past it.
      [](ThreadCtx&, SharedArray<int>& shared) { (void)shared.load_span(2, 3); },
      [](ThreadCtx&, SharedArray<int>& shared) { (void)shared.load_span(5, 0); },
      // A discarded-load range running past the end, and an empty one.
      [g](ThreadCtx& ctx, SharedArray<int>&) { g.discard_loads(ctx, 2, 5, 1); },
      [g](ThreadCtx& ctx, SharedArray<int>&) { g.discard_loads(ctx, 2, 2, 1); },
      [g](ThreadCtx& ctx, SharedArray<int>&) mutable { g.load_store(ctx, 4, 0, 1); },
  };
  for (std::size_t i = 0; i < out_of_range.size(); ++i) {
    const Access access = out_of_range[i];
    const KernelFn kernel = [access](ThreadCtx& ctx) -> KernelTask {
      SharedArray<int> shared(ctx, 4);
      access(ctx, shared);
      co_return;
    };
    EXPECT_THROW((void)engine.launch(cfg(1, 1, 64), kernel), gm::InvariantError) << i;
  }
}

TEST(Engine, BulkChargesMatchPerElementCalls) {
  // Lanes 2k and 2k+1 make the same n accesses per segment: in mode 2 the
  // even lane charges them through the bulk forms and its odd sibling one
  // call at a time.  Modes 0 and 1 run every lane one way.
  const Engine engine = test_engine();
  constexpr int kBlocks = 2;
  constexpr int kThreads = 48;
  DeviceBuffer<std::uint32_t> words{32};
  auto g = words.global();
  std::vector<ThreadCounters> lanes(static_cast<std::size_t>(kBlocks * kThreads));
  ThreadCounters* out = lanes.data();
  const auto run = [&](int mode) {
    const KernelFn kernel = [=](ThreadCtx& ctx) mutable -> KernelTask {
      SharedArray<std::uint8_t> shared(ctx, 64);
      const auto n = static_cast<std::size_t>(ctx.thread_idx() / 2 % 20 + 1);
      const bool bulk = mode == 1 || (mode == 2 && ctx.thread_idx() % 2 == 0);
      const auto word = static_cast<std::size_t>(ctx.block_idx());  // per-block word
      if (bulk) {
        (void)shared.load_span(64 - n, n);
        g.discard_loads(ctx, 8, 16, n);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          (void)shared.load(64 - n + i);
          (void)g.load(ctx, 8 + i % 8);
        }
      }
      co_await ctx.syncthreads();
      if (bulk) {
        g.load_store(ctx, word, 7u, n);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          (void)g.load(ctx, word);
          g.store(ctx, word, 7u);
        }
      }
      out[static_cast<std::size_t>(ctx.global_thread())] = ctx.counters();
      co_return;
    };
    return engine.launch(cfg(kBlocks, kThreads, 64), kernel);
  };

  const LaunchResult single = run(0);
  const std::vector<ThreadCounters> single_lanes = lanes;
  const LaunchResult bulk = run(1);
  EXPECT_EQ(lanes, single_lanes);
  const LaunchResult mixed = run(2);
  EXPECT_EQ(lanes, single_lanes);
  for (std::size_t t = 0; t + 1 < lanes.size(); t += 2) {
    EXPECT_EQ(lanes[t], lanes[t + 1]) << "lane " << t;
    EXPECT_EQ(lanes[t].global_ops, 3 * lanes[t].shared_ops) << "lane " << t;
  }
  ASSERT_EQ(single.profile.groups.size(), 1u);
  EXPECT_EQ(single.profile.groups[0].count, kBlocks);
  for (const LaunchResult* other : {&bulk, &mixed}) {
    ASSERT_EQ(other->profile.groups.size(), 1u);
    EXPECT_EQ(other->profile.groups[0].count, kBlocks);
    EXPECT_EQ(other->profile.groups[0].block, single.profile.groups[0].block);
  }
  EXPECT_EQ(words.host()[0], 7u);
  EXPECT_EQ(words.host()[1], 7u);
}

TEST(Engine, SharedAllocationLimitEnforced) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    SharedArray<int> shared(ctx, 1024);  // needs 4 KB, block declared 64 B
    shared.store(0, 1);
    co_return;
  };
  EXPECT_THROW((void)engine.launch(cfg(1, 1, 64), kernel), gm::PreconditionError);
}

TEST(Engine, PartialWarpAtBlockEnd) {
  const Engine engine = test_engine();
  const KernelFn kernel = [](ThreadCtx& ctx) -> KernelTask {
    ctx.charge(2);
    co_return;
  };
  const auto result = engine.launch(cfg(1, 48), kernel);  // 1.5 warps
  const auto& block = result.profile.groups[0].block;
  EXPECT_EQ(block.warps, 2);
  EXPECT_DOUBLE_EQ(block.warp_instructions, 4.0);
  EXPECT_DOUBLE_EQ(block.lane_instructions, 96.0);
}

}  // namespace
}  // namespace gpusim
