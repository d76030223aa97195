#include "calib/calibration.hpp"

#include <cstdint>
#include <limits>
#include <string>

#include "bench_support/json.hpp"
#include "common/error.hpp"
#include "planner/planner.hpp"

namespace gm::calib {

const std::vector<ParamRef>& calibration_params() {
  static const std::vector<ParamRef> kParams = {
      // Kernel workload-model instruction charges (cost_constants.hpp).
      {"kernel.unbuffered_scan_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.unbuffered_scan_instr; }},
      {"kernel.buffered_scan_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.buffered_scan_instr; }},
      {"kernel.block_scan_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.block_scan_instr; }},
      {"kernel.automaton_step_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.automaton_step_instr; }},
      {"kernel.buffer_copy_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.buffer_copy_instr; }},
      {"kernel.fold_step_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.fold_step_instr; }},
      {"kernel.rescan_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.rescan_instr; }},
      {"kernel.bucket_probe_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.bucket_probe_instr; }},
      {"kernel.bucket_drain_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.bucket_drain_instr; }},
      {"kernel.bucket_file_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.bucket_file_instr; }},
      {"kernel.expiry_heap_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.expiry_heap_instr; }},
      {"kernel.trie_drain_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.trie_drain_instr; }},
      {"kernel.trie_accept_instr",
       [](CalibrationProfile& p) -> double& { return p.kernel.trie_accept_instr; }},
      // CPU cost-curve constants (planner/cpu_cost_model.hpp).
      {"cpu.serial_step_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.serial_step_ns; }},
      {"cpu.serial_expiry_step_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.serial_expiry_step_ns; }},
      {"cpu.scan_probe_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.scan_probe_ns; }},
      {"cpu.scan_drain_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.scan_drain_ns; }},
      {"cpu.scan_dense_step_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.scan_dense_step_ns; }},
      {"cpu.lane_block_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.lane_block_ns; }},
      {"cpu.expiry_heap_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.expiry_heap_ns; }},
      {"cpu.thread_spawn_us",
       [](CalibrationProfile& p) -> double& { return p.cpu.thread_spawn_us; }},
      {"cpu.distrib_merge_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.distrib_merge_ns; }},
      {"cpu.distrib_rescan_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.distrib_rescan_ns; }},
      {"cpu.distrib_steal_ns",
       [](CalibrationProfile& p) -> double& { return p.cpu.distrib_steal_ns; }},
  };
  return kParams;
}

namespace {

const ParamRef& param_by_name(std::string_view name) {
  for (const ParamRef& param : calibration_params()) {
    if (param.name == name) return param;
  }
  std::string known;
  for (const ParamRef& param : calibration_params()) {
    if (!known.empty()) known += ", ";
    known += param.name;
  }
  gm::raise_precondition("unknown calibration parameter '" + std::string(name) +
                         "' (expected one of: " + known + ")");
}

}  // namespace

double get_param(const CalibrationProfile& profile, std::string_view name) {
  // The accessor is non-const by design (one registry serves reads, writes
  // and the fitter); reading through it does not mutate.
  return param_by_name(name).ref(const_cast<CalibrationProfile&>(profile));
}

void set_param(CalibrationProfile& profile, std::string_view name, double value) {
  gm::expects(value >= 0.0, "calibration parameter '" + std::string(name) +
                                "' must be non-negative, got " + std::to_string(value));
  param_by_name(name).ref(profile) = value;
}

void apply_profile(const CalibrationProfile& profile, planner::PlannerOptions& options) {
  options.cpu_constants = profile.cpu;
  options.kernel_costs = profile.kernel;
}

std::string to_json(const CalibrationProfile& profile) {
  bench::JsonWriter json;
  json.begin_object();
  json.field("schema", kProfileSchema);
  json.field("source", profile.source);
  json.field("host", profile.host);
  json.field("samples", profile.sample_count);
  json.key("params").begin_object();
  for (const ParamRef& param : calibration_params()) {
    json.field(param.name, get_param(profile, param.name));
  }
  json.end_object();
  json.end_object();
  return json.str();
}

namespace {

CalibrationProfile profile_from_value(const bench::JsonValue& doc) {
  gm::expects(doc.is_object(), "calibration profile must be a JSON object");
  const std::string& schema = doc.at("schema").as_string();
  gm::expects(schema == kProfileSchema,
              "calibration profile schema '" + schema + "' is not the expected '" +
                  std::string(kProfileSchema) + "'");

  CalibrationProfile profile;
  if (const bench::JsonValue* source = doc.find("source")) profile.source = source->as_string();
  if (const bench::JsonValue* host = doc.find("host")) profile.host = host->as_string();
  if (const bench::JsonValue* samples = doc.find("samples")) {
    const std::int64_t count = samples->as_int64();
    gm::expects(count >= 0 && count <= std::numeric_limits<int>::max(),
                "calibration 'samples' must be a count in [0, " +
                    std::to_string(std::numeric_limits<int>::max()) + "], got " +
                    std::to_string(count));
    profile.sample_count = static_cast<int>(count);
  }
  // Unknown parameter names are rejected (a typo would otherwise silently
  // leave the shipped default in place); absent ones keep their defaults so
  // older profiles stay loadable after new constants appear.
  const bench::JsonValue& params = doc.at("params");
  gm::expects(params.is_object(), "calibration 'params' must be a JSON object");
  for (const auto& [name, value] : params.object) {
    set_param(profile, name, value.as_double());
  }
  return profile;
}

}  // namespace

CalibrationProfile profile_from_json(std::string_view text) {
  return profile_from_value(bench::parse_json(text));
}

CalibrationProfile load_profile(const std::string& path) {
  return profile_from_value(bench::parse_json_file(path));
}

void save_profile(const CalibrationProfile& profile, const std::string& path) {
  bench::write_json_file(to_json(profile), path);
}

}  // namespace gm::calib
