// JSON persistence for scan checkpoints and streaming monitors.
//
// Sessions survive restarts by writing their monitors to disk: each snapshot
// pairs a MonitorSpec with the ScanCheckpoint of its scan at capture time,
// stamped with the session's stream digest (a bare StreamScan checkpoint
// carries 0 there).  On reload the session verifies the checkpoint's
// stream-prefix digest against the reloaded database (a resume against
// different data is refused, not silently wrong), restores the scan, and
// replays only the events appended since the capture.
//
// Format notes: documents are tagged "gm-checkpoint/1"; 64-bit digests are
// hex strings because JSON numbers are doubles and would silently round
// them; positions/counts are plain integers (they stay far under 2^53).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support/json.hpp"
#include "core/scan_checkpoint.hpp"
#include "service/streaming_monitor.hpp"

namespace gm::service {

inline constexpr std::string_view kCheckpointSchema = "gm-checkpoint/1";

/// One persisted monitor: what it watches + where its scan paused.
struct MonitorSnapshot {
  MonitorSpec spec;
  core::ScanCheckpoint checkpoint;
};

/// Emits `checkpoint` as one JSON object into an open writer (composable
/// into larger documents; the snapshot serializers below use it).
void write_checkpoint(bench::JsonWriter& json, const core::ScanCheckpoint& checkpoint);

/// Parses a checkpoint object written by write_checkpoint.  Throws gm::Error
/// on structural mismatches.
[[nodiscard]] core::ScanCheckpoint read_checkpoint(const bench::JsonValue& value);

/// Serialize / parse a whole monitor set ("gm-checkpoint/1" document).
[[nodiscard]] std::string monitors_to_json(std::span<const MonitorSnapshot> snapshots);
[[nodiscard]] std::vector<MonitorSnapshot> monitors_from_json(std::string_view text);

/// File convenience wrappers with gm::Error on I/O or schema mismatch.
void save_monitors_file(const std::string& path, std::span<const MonitorSnapshot> snapshots);
[[nodiscard]] std::vector<MonitorSnapshot> load_monitors_file(const std::string& path);

}  // namespace gm::service
