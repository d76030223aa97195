#include "service/checkpoint_store.hpp"

#include <charconv>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace gm::service {
namespace {

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t from_hex(const std::string& text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v, 16);
  gm::expects(ec == std::errc{} && ptr == text.data() + text.size(),
              "checkpoint digest is not a 64-bit hex string");
  return v;
}

void write_episodes(bench::JsonWriter& json, std::span<const core::Episode> episodes) {
  json.begin_array();
  for (const core::Episode& episode : episodes) {
    json.begin_array();
    for (const core::Symbol s : episode.symbols()) json.value(static_cast<int>(s));
    json.end_array();
  }
  json.end_array();
}

core::Semantics read_semantics(const bench::JsonValue& value) {
  const std::int64_t v = value.as_int64();
  gm::expects(v == static_cast<int>(core::Semantics::kNonOverlappedSubsequence) ||
                  v == static_cast<int>(core::Semantics::kContiguousRestart),
              "checkpoint semantics must be 0 (non-overlapped) or 1 (contiguous restart)");
  return static_cast<core::Semantics>(v);
}

core::ExpiryPolicy read_expiry(const bench::JsonValue& value) {
  const std::int64_t window = value.as_int64();
  gm::expects(window >= 0, "checkpoint expiry_window cannot be negative (0 disables expiry)");
  return {window};
}

std::vector<core::Episode> read_episodes(const bench::JsonValue& value) {
  gm::expects(value.is_array(), "checkpoint episodes must be an array");
  std::vector<core::Episode> episodes;
  episodes.reserve(value.array.size());
  for (const bench::JsonValue& entry : value.array) {
    gm::expects(entry.is_array(), "checkpoint episode must be a symbol array");
    std::vector<core::Symbol> symbols;
    symbols.reserve(entry.array.size());
    for (const bench::JsonValue& s : entry.array) {
      const std::int64_t v = s.as_int64();
      gm::expects(v >= 0 && v <= 255, "checkpoint episode symbol out of range");
      symbols.push_back(static_cast<core::Symbol>(v));
    }
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

void write_spec(bench::JsonWriter& json, const MonitorSpec& spec) {
  json.begin_object();
  json.field("name", spec.name);
  json.key("episodes");
  write_episodes(json, spec.episodes);
  json.field("semantics", static_cast<int>(spec.semantics));
  json.field("expiry_window", spec.expiry.window);
  json.field("threshold", spec.threshold);
  json.field("idle_eviction_generations", spec.idle_eviction_generations);
  json.end_object();
}

// Older gm-checkpoint/1 files also carry an "engine" field (which incremental
// engine ran the scan).  It is ignored: captured progress is engine-agnostic,
// and core::StreamScan picks its engine from the episode set alone.
MonitorSpec read_spec(const bench::JsonValue& value) {
  MonitorSpec spec;
  spec.name = value.at("name").as_string();
  spec.episodes = read_episodes(value.at("episodes"));
  spec.semantics = read_semantics(value.at("semantics"));
  spec.expiry = read_expiry(value.at("expiry_window"));
  spec.threshold = value.at("threshold").as_int64();
  // Absent from older files, whose monitors did not evict after a restore;
  // 0 keeps that behaviour.
  if (const bench::JsonValue* idle = value.find("idle_eviction_generations")) {
    spec.idle_eviction_generations = idle->as_int64();
    gm::expects(spec.idle_eviction_generations >= 0,
                "monitor idle_eviction_generations cannot be negative");
  }
  return spec;
}

}  // namespace

void write_checkpoint(bench::JsonWriter& json, const core::ScanCheckpoint& checkpoint) {
  json.begin_object();
  json.field("semantics", static_cast<int>(checkpoint.semantics));
  json.field("expiry_window", checkpoint.expiry.window);
  json.field("high_water", checkpoint.high_water);
  json.field("prefix_digest", to_hex(checkpoint.prefix_digest));
  json.field("generation", static_cast<std::int64_t>(checkpoint.generation));
  json.key("episodes");
  write_episodes(json, checkpoint.episodes);
  json.key("progress");
  json.begin_array();
  for (const core::EpisodeProgress& p : checkpoint.progress) {
    json.begin_array();
    json.value(p.count);
    json.value(p.first_pos);
    json.value(p.state);
    json.end_array();
  }
  json.end_array();
  json.end_object();
}

core::ScanCheckpoint read_checkpoint(const bench::JsonValue& value) {
  core::ScanCheckpoint checkpoint;
  checkpoint.semantics = read_semantics(value.at("semantics"));
  checkpoint.expiry = read_expiry(value.at("expiry_window"));
  checkpoint.high_water = value.at("high_water").as_int64();
  checkpoint.prefix_digest = from_hex(value.at("prefix_digest").as_string());
  checkpoint.generation = static_cast<std::uint64_t>(value.at("generation").as_int64());
  checkpoint.episodes = read_episodes(value.at("episodes"));
  const bench::JsonValue& progress = value.at("progress");
  gm::expects(progress.is_array(), "checkpoint progress must be an array");
  checkpoint.progress.reserve(progress.array.size());
  for (const bench::JsonValue& entry : progress.array) {
    gm::expects(entry.is_array() && entry.array.size() == 3,
                "checkpoint progress entry must be [count, first_pos, state]");
    const std::int64_t count = entry.array[0].as_int64();
    const std::int64_t state = entry.array[2].as_int64();
    gm::expects(count >= 0, "checkpoint occurrence count cannot be negative");
    // Range-checked before narrowing: an automaton state is a matched-symbol
    // count, never negative and never past int.
    gm::expects(state >= 0 && state <= std::numeric_limits<int>::max(),
                "checkpoint automaton state out of range");
    checkpoint.progress.push_back(
        {count, entry.array[1].as_int64(), static_cast<int>(state)});
  }
  return checkpoint;
}

std::string monitors_to_json(std::span<const MonitorSnapshot> snapshots) {
  bench::JsonWriter json;
  json.begin_object();
  json.field("schema", kCheckpointSchema);
  json.key("monitors");
  json.begin_array();
  for (const MonitorSnapshot& snapshot : snapshots) {
    json.begin_object();
    json.key("spec");
    write_spec(json, snapshot.spec);
    json.key("checkpoint");
    write_checkpoint(json, snapshot.checkpoint);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

namespace {

std::vector<MonitorSnapshot> snapshots_from_doc(const bench::JsonValue& doc) {
  gm::expects(doc.is_object() && doc.at("schema").as_string() == kCheckpointSchema,
              "not a gm-checkpoint/1 document");
  const bench::JsonValue& monitors = doc.at("monitors");
  gm::expects(monitors.is_array(), "gm-checkpoint monitors must be an array");
  std::vector<MonitorSnapshot> snapshots;
  snapshots.reserve(monitors.array.size());
  for (const bench::JsonValue& entry : monitors.array) {
    snapshots.push_back({read_spec(entry.at("spec")), read_checkpoint(entry.at("checkpoint"))});
  }
  return snapshots;
}

}  // namespace

std::vector<MonitorSnapshot> monitors_from_json(std::string_view text) {
  return snapshots_from_doc(bench::parse_json(text));
}

void save_monitors_file(const std::string& path, std::span<const MonitorSnapshot> snapshots) {
  bench::write_json_file(monitors_to_json(snapshots), path);
}

std::vector<MonitorSnapshot> load_monitors_file(const std::string& path) {
  return snapshots_from_doc(bench::parse_json_file(path));
}

}  // namespace gm::service
