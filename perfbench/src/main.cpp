// perfbench — the repository benchmark driver.
//
//   perfbench --workload <paper_mine|paper_sim|service_mix|stream_append>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--out-dir DIR] [--git-sha SHA]
//
// Generates the workload's inputs from the seed, sets the system up several
// times (setup_s is the median), measures for --seconds, checks every answer
// against a serial oracle computed outside the timed region, and prints each
// metric with its unit.  The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to DIR/<workload>-s<seed>.trace.json).  Every run
// also writes DIR/<workload>-s<seed>-t<trace>.json with the environment
// stamp.  Exit status: 0 when every answer matched its oracle, 1 on a
// mismatch or error, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <span>
#include <string>

#include "bench.hpp"
#include "bench_support/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_mine|paper_sim|service_mix|stream_append\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--size full|tiny] [--out-dir DIR] [--git-sha SHA]\n");
  return 2;
}

bool parse(int argc, char** argv, pb::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace" && (value == "0" || value == "1")) options.trace = value == "1";
      else if (arg == "--size" && (value == "full" || value == "tiny"))
        options.tiny = value == "tiny";
      else if (arg == "--out-dir") options.out_dir = value;
      else if (arg == "--git-sha") options.git_sha = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

pb::Outcome run(const pb::Options& options) {
  if (options.workload == "paper_mine") return pb::run_paper(options, false);
  if (options.workload == "paper_sim") return pb::run_paper(options, true);
  if (options.workload == "service_mix") return pb::run_service_mix(options);
  if (options.workload == "stream_append") return pb::run_stream_append(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  if (!parse(argc, argv, options)) return usage();

  try {
    std::filesystem::create_directories(options.out_dir);
    const std::string env = pb::environment_json(options);
    pb::Outcome outcome = run(options);
    const std::span<const pb::MetricDef> table =
        options.trace ? std::span<const pb::MetricDef>(pb::kPerLayer)
                      : std::span<const pb::MetricDef>(pb::kEndToEnd);
    const bool correct = outcome.mismatches == 0;

    std::printf("perfbench %s seed=%llu trace=%d attempted=%lld failed=%lld\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0, static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed));
    for (const auto& [key, note] : outcome.notes) {
      std::printf("  # %s: %s\n", key.c_str(), note.c_str());
    }

    gm::bench::JsonWriter metrics;
    metrics.begin_object();
    for (const pb::MetricDef& def : table) {
      const double value = outcome.metrics[std::string(def.name)];
      std::printf("  %-26s %16.6f %s\n", std::string(def.name).c_str(), value,
                  std::string(def.unit).c_str());
      metrics.key(def.name).begin_object().field("value", value).field("unit", def.unit);
      metrics.end_object();
    }
    metrics.end_object();
    std::printf("env: %s\n", env.c_str());

    const double failed_ratio = static_cast<double>(outcome.failed) /
                                static_cast<double>(std::max<std::int64_t>(1, outcome.attempted));
    gm::bench::JsonWriter record;
    record.begin_object()
        .field("workload", options.workload)
        .field("seed", static_cast<std::int64_t>(options.seed))
        .field("trace", options.trace)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("failed_ratio", failed_ratio)
        .field("mismatches", outcome.mismatches)
        .key("notes")
        .begin_object();
    for (const auto& [key, note] : outcome.notes) record.field(key, note);
    record.end_object().end_object();
    // Splice the env and metrics objects in as already-serialized JSON.
    std::string text = record.str();
    text.pop_back();
    text += ",\"env\":" + env + ",\"metrics\":" + metrics.str() + "}";
    gm::bench::write_json_file(text,
                               pb::output_path(options, options.trace ? "-t1.json" : "-t0.json"));

    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
                correct ? "true" : "false", static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed), metrics.str().c_str());
    std::fflush(stdout);
    if (!correct) {
      std::fprintf(stderr, "perfbench: %lld answers differ from the oracle\n",
                   static_cast<long long>(outcome.mismatches));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
