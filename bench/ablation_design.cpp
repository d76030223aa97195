// Ablations of this reproduction's own design choices (DESIGN.md section 4):
//
//  * spanning-fix strategy: exact state composition vs. naive overlap rescan
//    vs. none — accuracy and modelled cost;
//  * staging-buffer size for the buffered kernels;
//  * Mars-style thread padding vs. an idealized no-padding launch;
//  * dual-die 9800 GX2 (the multi-GPU extension the paper left unused).
#include <iostream>

#include "bench_support/paper_setup.hpp"
#include "core/candidate_gen.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "distrib/scale_model.hpp"
#include "kernels/workload_model.hpp"

int main() {
  using gm::core::Alphabet;
  using gm::core::Semantics;
  using gm::core::SpanningFix;
  using gm::kernels::Algorithm;

  // --- spanning strategy accuracy -------------------------------------------
  const Alphabet alphabet(6);
  const auto db = gm::data::uniform_database(alphabet, 30'000, 23);
  const auto episodes = gm::core::all_distinct_episodes(alphabet, 2);
  std::cout << "Spanning-fix ablation (30k symbols, 64 chunks, level-2 episodes):\n";
  std::cout << "strategy            total count     error vs serial\n";
  std::int64_t serial_total = 0;
  for (const auto& e : episodes) {
    serial_total += count_occurrences(e, db, Semantics::kNonOverlappedSubsequence);
  }
  for (const SpanningFix fix :
       {SpanningFix::kStateComposition, SpanningFix::kOverlapRescan, SpanningFix::kNone}) {
    std::int64_t total = 0;
    for (const auto& e : episodes) {
      total += count_chunked(e, db, 64, Semantics::kNonOverlappedSubsequence, {}, fix);
    }
    std::cout << to_string(fix) << std::string(20 - to_string(fix).size(), ' ') << total
              << "\t    " << total - serial_total << "\n";
  }

  // --- buffer size for the buffered kernels ----------------------------------
  const auto device = gpusim::geforce_gtx_280();
  const gpusim::CostModel model;
  std::cout << "\nStaging-buffer ablation: Algo4 L2 on GTX280 @256tpb (predicted ms)\n";
  for (const int buffer : {2048, 4096, 8192, 16384}) {
    gm::kernels::WorkloadSpec spec;
    spec.db_size = gm::data::kPaperDatabaseSize;
    spec.episode_count = gm::bench::paper_episode_count(2);
    spec.level = 2;
    spec.params.algorithm = Algorithm::kBlockBuffered;
    spec.params.threads_per_block = 256;
    spec.params.buffer_bytes = buffer;
    std::cout << "  " << buffer << " B: " << predict_mining_time(device, spec, model).total_ms
              << " ms\n";
  }

  // --- padding cost (thread-level kernels) -----------------------------------
  std::cout << "\nMars-style padding ablation: Algo1 L1 on GTX280 (predicted ms)\n";
  std::cout << "  (26 episodes padded up to a full block vs. a hypothetical exact launch)\n";
  for (const int tpb : {32, 128, 512}) {
    gm::kernels::WorkloadSpec padded;
    padded.db_size = gm::data::kPaperDatabaseSize;
    padded.episode_count = 26;
    padded.level = 1;
    padded.params.algorithm = Algorithm::kThreadTexture;
    padded.params.threads_per_block = tpb;

    gm::kernels::WorkloadSpec exact = padded;  // 26 threads in a 26-wide block
    exact.params.threads_per_block = 26;

    std::cout << "  tpb " << tpb << ": padded "
              << predict_mining_time(device, padded, model).total_ms << " ms vs exact-launch "
              << predict_mining_time(device, exact, model).total_ms << " ms\n";
  }

  // --- dual-die GX2 ------------------------------------------------------------
  std::cout << "\nDual-die 9800 GX2 (episode partitioning, Algo1 L3 @128tpb):\n";
  gm::kernels::WorkloadSpec spec;
  spec.db_size = gm::data::kPaperDatabaseSize;
  spec.episode_count = gm::bench::paper_episode_count(3);
  spec.level = 3;
  spec.params.algorithm = Algorithm::kThreadTexture;
  spec.params.threads_per_block = 128;
  const auto gx2 = gpusim::geforce_9800_gx2();
  const auto one = gm::distrib::predict_scaled_mining(gx2, 1, spec, model);
  const auto two = gm::distrib::predict_scaled_mining(gx2, 2, spec, model);
  std::cout << "  1 die: " << one.total_ms << " ms;  2 dies: " << two.total_ms
            << " ms  (speedup " << one.total_ms / two.total_ms << "x)\n";
  return 0;
}
