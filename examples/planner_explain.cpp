// planner_explain — dump the formulation planner's decision table for a set
// of reference workload shapes: the paper's evaluation workload at levels
// 1-3, its level 3 again with 1, 2 and 4 simulated cards on the device axis
// (distrib-gpu priced at what its cards bill), a large-alphabet stream
// (single-scan territory), a Zipf-skewed stream (exercising the skew-aware
// occupancy term), and an expiry workload.  This
// is the "show your work" tool for `--backend auto`: every candidate the
// planner considered, its predicted time, and why the losers lost.
//
//   planner_explain [--card 8800|gx2|gtx280] [--threads T] [--json PATH]
//
// --json writes the same tables as a machine-readable BENCH artifact (the CI
// bench job uploads it as BENCH_planner.json).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/cli_args.hpp"
#include "bench_support/json.hpp"
#include "bench_support/paper_setup.hpp"
#include "calib/calibration.hpp"
#include "common/parallel.hpp"
#include "core/candidate_gen.hpp"
#include "core/episode_trie.hpp"
#include "data/generators.hpp"
#include "planner/planner.hpp"

namespace {

struct Shape {
  std::string name;
  gm::planner::Workload workload;
  /// PlannerOptions::device_sweep for this shape; empty keeps one card.
  std::vector<int> device_sweep = {};
};

std::vector<Shape> reference_shapes() {
  namespace planner = gm::planner;
  std::vector<Shape> shapes;

  // The paper's evaluation workload, level by level: the candidate count
  // explodes from 26 to 15,600, which is exactly where the winning
  // formulation flips.  The prefix-compression factor is measured from the
  // real candidate set of the level (all distinct-symbol episodes, the
  // apriori superset the miner counts), not assumed — level-L sets land near
  // 1/L plus the last-symbol fringe.
  const gm::core::Alphabet paper_alphabet(26);
  for (int level = 1; level <= 3; ++level) {
    planner::Workload w;
    w.db_size = gm::data::kPaperDatabaseSize;
    w.episode_count = gm::bench::paper_episode_count(level);
    w.level = level;
    w.alphabet_size = 26;
    w.prefix_compression =
        gm::core::prefix_compression(gm::core::all_distinct_episodes(paper_alphabet, level));
    shapes.push_back({"paper-level" + std::to_string(level), w});
  }
  shapes.push_back({"paper-level3-cards", shapes.back().workload, {1, 2, 4}});

  {
    planner::Workload w;
    w.db_size = 2'000'000;
    w.episode_count = 400;
    w.level = 3;
    w.alphabet_size = 200;
    shapes.push_back({"large-alphabet", w});
  }
  {
    planner::Workload w;
    w.db_size = 500'000;
    w.episode_count = 1'000;
    w.level = 2;
    w.alphabet_size = 64;
    w.symbol_freq = gm::data::zipf_frequencies(64, 1.0);
    shapes.push_back({"zipf-skewed", w});
  }
  {
    planner::Workload w;
    w.db_size = gm::data::kPaperDatabaseSize;
    w.episode_count = 325;
    w.level = 2;
    w.alphabet_size = 26;
    w.expiry = gm::core::ExpiryPolicy{32};
    shapes.push_back({"paper-expiry", w});
  }
  return shapes;
}

/// Fitted prediction for the candidate labelled `label`, or a negative
/// sentinel when the fitted plan rejected it.
double predicted_for(const gm::planner::Plan& plan, const std::string& label) {
  for (const auto& candidate : plan.table) {
    if (candidate.config.label() == label) {
      return candidate.feasible ? candidate.predicted_ms : -1.0;
    }
  }
  return -1.0;
}

/// The side-by-side shipped-vs-fitted table for one shape.
void print_diff(const gm::planner::Plan& shipped, const gm::planner::Plan& fitted) {
  std::printf("  %-24s %14s %14s %8s  note\n", "candidate", "shipped ms", "fitted ms",
              "ratio");
  for (const auto& candidate : shipped.table) {
    const std::string label = candidate.config.label();
    const double fitted_ms = predicted_for(fitted, label);
    if (!candidate.feasible || fitted_ms < 0) {
      std::printf("  %-24s %14s %14s %8s  rejected\n", label.c_str(),
                  candidate.feasible ? "ok" : "-", fitted_ms < 0 ? "-" : "ok", "-");
      continue;
    }
    std::printf("  %-24s %14.3f %14.3f %8.2f%s\n", label.c_str(), candidate.predicted_ms,
                fitted_ms, fitted_ms / candidate.predicted_ms,
                label == fitted.winner().config.label()
                    ? "  <- fitted pick"
                    : (label == shipped.winner().config.label() ? "  <- shipped pick" : ""));
  }
  const bool flipped =
      shipped.winner().config.label() != fitted.winner().config.label();
  std::printf("  => pick %s: shipped %s, fitted %s\n", flipped ? "FLIPPED" : "unchanged",
              shipped.winner().config.label().c_str(),
              fitted.winner().config.label().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string card = "gtx280";
  int threads = 0;
  std::string json_path;
  std::string calibration_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--card") card = next();
      else if (arg == "--threads") threads = gm::bench::parse_int(arg, next(), 0, 1 << 20);
      else if (arg == "--json") json_path = next();
      else if (arg == "--calibration") calibration_path = next();
      else {
        std::cerr << "usage: " << argv[0] << " [--card 8800|gx2|gtx280] [--threads T]"
                  << " [--json PATH] [--calibration PROFILE.json]\n";
        return 2;
      }
    }

    gm::planner::PlannerOptions options;
    options.device = gpusim::device_by_name(card);
    options.cpu_threads = threads;

    const bool have_calibration = !calibration_path.empty();
    gm::planner::PlannerOptions fitted_options = options;
    if (have_calibration) {
      const auto profile = gm::calib::load_profile(calibration_path);
      gm::calib::apply_profile(profile, fitted_options);
      std::cout << "calibration: " << calibration_path << " (source=" << profile.source
                << ", " << profile.sample_count << " samples)\n\n";
    }

    gm::bench::JsonWriter json;
    json.begin_object();
    json.field("schema", "gm-bench-planner/1");
    json.field("driver", "planner_explain");
    json.field("card", card);
    json.field("cpu_threads", gm::resolved_thread_count(threads));
    json.field("calibration", have_calibration ? calibration_path : "shipped");
    json.key("shapes").begin_array();

    for (const auto& [name, workload, device_sweep] : reference_shapes()) {
      options.device_sweep = device_sweep;
      fitted_options.device_sweep = device_sweep;
      const gm::planner::Plan plan = gm::planner::plan_level(workload, options);
      std::cout << "=== " << name << " ===\n" << gm::planner::format_plan(plan);
      gm::planner::Plan fitted_plan;
      if (have_calibration) {
        fitted_plan = gm::planner::plan_level(workload, fitted_options);
        std::cout << "shipped vs fitted:\n";
        print_diff(plan, fitted_plan);
      }
      std::cout << "\n";

      json.begin_object();
      json.field("name", name);
      json.key("workload").begin_object();
      json.field("db_size", workload.db_size)
          .field("episode_count", workload.episode_count)
          .field("level", workload.level)
          .field("alphabet", workload.alphabet_size)
          .field("prefix_compression", workload.prefix_compression)
          .field("semantics", to_string(workload.semantics))
          .field("expiry", workload.expiry.window)
          .field("skewed", !workload.symbol_freq.empty());
      json.end_object();
      json.key("device_sweep").begin_array();
      for (const int cards : device_sweep) json.value(cards);
      json.end_array();
      json.field("pick", plan.winner().config.label());
      json.field("pick_predicted_ms", plan.winner().predicted_ms);
      json.field("explanation", plan.explanation);
      if (have_calibration) {
        json.field("fitted_pick", fitted_plan.winner().config.label());
        json.field("fitted_pick_predicted_ms", fitted_plan.winner().predicted_ms);
        json.field("pick_changed",
                   plan.winner().config.label() != fitted_plan.winner().config.label());
      }
      json.key("candidates").begin_array();
      for (const auto& candidate : plan.table) {
        json.begin_object();
        json.field("label", candidate.config.label());
        json.field("feasible", candidate.feasible);
        json.field("predicted_ms", candidate.feasible ? candidate.predicted_ms : -1.0);
        if (have_calibration) {
          json.field("fitted_predicted_ms",
                     predicted_for(fitted_plan, candidate.config.label()));
        }
        json.field("note", candidate.reason);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }

    json.end_array();
    json.end_object();
    if (!json_path.empty()) {
      json.write_file(json_path);
      std::cout << "wrote " << json_path << "\n";
    }
    return 0;
  } catch (const gm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
