// Streaming-session suite: live appends advance generations without
// invalidating still-valid cached results, measured symbol frequencies stay
// bit-identical to a full re-measure, monitors alert exactly once per
// threshold crossing with exact counts, and the gm-checkpoint/1 JSON
// round-trip restores a session's monitors after a restart — resuming from
// the persisted position instead of recounting the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "kernels/workload_model.hpp"
#include "service/checkpoint_store.hpp"
#include "service/session.hpp"
#include "service/streaming_monitor.hpp"

namespace gm::service {
namespace {

data::Dataset make_dataset(int alphabet_size, std::int64_t size, std::uint64_t seed) {
  data::Dataset dataset{core::Alphabet(alphabet_size), {}};
  dataset.events = data::uniform_database(dataset.alphabet, size, seed);
  return dataset;
}

SessionOptions serial_options() {
  SessionOptions options;
  options.backend = {.name = "serial"};
  return options;
}

TEST(AppendEvents, CountsStayExactAndGenerationAdvances) {
  Rng rng(0xAA55);
  data::Dataset dataset = make_dataset(10, 400, rng());
  std::vector<core::Symbol> full = dataset.events;
  MiningSession session(std::move(dataset), serial_options());
  const std::uint64_t gen0 = session.generation();

  std::vector<core::Episode> episodes = {core::Episode({1, 2}), core::Episode({3, 3})};
  for (int batch = 0; batch < 5; ++batch) {
    const auto events =
        data::uniform_database(core::Alphabet(10), 120 + 17 * batch, rng());
    const auto outcome = session.append_events(events);
    full.insert(full.end(), events.begin(), events.end());
    EXPECT_EQ(outcome.generation, gen0 + static_cast<std::uint64_t>(batch) + 1);
    EXPECT_EQ(outcome.database_size, static_cast<std::int64_t>(full.size()));

    CountRequest request;
    request.episodes = episodes;
    request.expiry = {7};
    const CountResponse response = session.count(request);
    ASSERT_TRUE(response.ok()) << response.rejection.reason;
    std::vector<std::int64_t> expected;
    for (const core::Episode& e : episodes) {
      expected.push_back(
          core::count_occurrences(e, full, request.semantics, request.expiry));
    }
    EXPECT_EQ(response.counts, expected) << "batch " << batch;
    EXPECT_EQ(response.database_generation, outcome.generation);
  }
}

TEST(AppendEvents, IncrementalFrequenciesMatchFullRemeasure) {
  Rng rng(0xF0E1);
  data::Dataset dataset = make_dataset(12, 300, rng());
  std::vector<core::Symbol> full = dataset.events;
  MiningSession session(std::move(dataset), serial_options());
  for (int batch = 0; batch < 4; ++batch) {
    const auto events = data::markov_database(core::Alphabet(12), 90, 0.5, rng());
    (void)session.append_events(events);
    full.insert(full.end(), events.begin(), events.end());
    EXPECT_EQ(session.measured_frequencies(),
              kernels::measured_symbol_freq(full, 12))
        << "batch " << batch;
  }
}

TEST(AppendEvents, RejectsSymbolsOutsideTheAlphabetAtomically) {
  MiningSession session(make_dataset(4, 50, 7), serial_options());
  const std::uint64_t gen = session.generation();
  const std::int64_t size = session.database_size();
  const std::vector<core::Symbol> bad = {1, 2, 200};
  EXPECT_THROW((void)session.append_events(bad), gm::Error);
  EXPECT_EQ(session.generation(), gen);
  EXPECT_EQ(session.database_size(), size);
}

TEST(StreamingMonitorTest, AlertsFireOnceWithExactCounts) {
  Rng rng(0xA1E27);
  data::Dataset dataset = make_dataset(6, 200, rng());
  std::vector<core::Symbol> full = dataset.events;
  MiningSession session(std::move(dataset), serial_options());

  MonitorSpec spec;
  spec.name = "watch";
  spec.episodes = {core::Episode({0, 1}), core::Episode({2, 3, 2})};
  spec.expiry = {9};
  const auto initial_counts = [&] {
    std::vector<std::int64_t> counts;
    for (const core::Episode& e : spec.episodes) {
      counts.push_back(core::count_occurrences(e, full, spec.semantics, spec.expiry));
    }
    return counts;
  }();
  // Threshold above the current count of episode 0 so the crossing happens
  // mid-stream, during one specific later batch.
  spec.threshold = initial_counts[0] + 5;
  std::vector<Alert> alerts = session.register_monitor(spec);
  for (const Alert& alert : alerts) {
    EXPECT_GE(alert.count, spec.threshold);  // only already-over episodes fire here
  }

  int fired_for_episode0 = 0;
  for (const Alert& a : alerts) fired_for_episode0 += a.episode_index == 0 ? 1 : 0;
  for (int batch = 0; batch < 20; ++batch) {
    const auto events = data::uniform_database(core::Alphabet(6), 60, rng());
    const auto outcome = session.append_events(events);
    full.insert(full.end(), events.begin(), events.end());
    std::vector<std::int64_t> expected;
    for (const core::Episode& e : spec.episodes) {
      expected.push_back(core::count_occurrences(e, full, spec.semantics, spec.expiry));
    }
    ASSERT_EQ(session.monitor_counts("watch"), expected) << "batch " << batch;
    for (const Alert& alert : outcome.alerts) {
      EXPECT_EQ(alert.monitor, "watch");
      EXPECT_GE(alert.count, spec.threshold);
      EXPECT_EQ(alert.position, static_cast<std::int64_t>(full.size()));
      fired_for_episode0 += alert.episode_index == 0 ? 1 : 0;
    }
  }
  // The stream is long enough that episode 0 must have crossed — and the
  // alert-once latch means exactly one alert total.
  EXPECT_EQ(fired_for_episode0, 1);
}

TEST(StreamingMonitorTest, CheckpointJsonRoundTripsLosslessly) {
  Rng rng(0x77AA);
  const auto events = data::uniform_database(core::Alphabet(9), 150, rng());
  core::StreamScan scan({core::Episode({1, 2, 3}), core::Episode({4, 4})},
                        core::Semantics::kNonOverlappedSubsequence, {11});
  scan.feed(events);
  const core::ScanCheckpoint original = scan.checkpoint(97);

  bench::JsonWriter json;
  write_checkpoint(json, original);
  const core::ScanCheckpoint reloaded = read_checkpoint(bench::parse_json(json.str()));
  EXPECT_EQ(reloaded.semantics, original.semantics);
  EXPECT_EQ(reloaded.expiry, original.expiry);
  EXPECT_EQ(reloaded.high_water, original.high_water);
  EXPECT_EQ(reloaded.prefix_digest, original.prefix_digest);
  EXPECT_EQ(reloaded.generation, original.generation);
  EXPECT_EQ(reloaded.episodes, original.episodes);
  EXPECT_EQ(reloaded.progress, original.progress);
}

TEST(StreamingMonitorTest, SessionRestartResumesMonitorsFromPersistedJson) {
  Rng rng(0xD15C);
  data::Dataset dataset = make_dataset(8, 250, rng());
  const data::Dataset dataset_copy = dataset;
  MiningSession session(std::move(dataset), serial_options());

  MonitorSpec spec;
  spec.name = "persist";
  spec.episodes = {core::Episode({0, 1, 2}), core::Episode({3, 4})};
  spec.expiry = {8};
  spec.threshold = 3;
  (void)session.register_monitor(spec);
  const auto first_batch = data::uniform_database(core::Alphabet(8), 100, rng());
  (void)session.append_events(first_batch);

  // Persist, then "restart": a new session over the stream as it stood at
  // capture, restored from the JSON round trip.
  const std::string persisted = monitors_to_json(session.monitor_snapshots());

  data::Dataset reborn = dataset_copy;
  reborn.events.insert(reborn.events.end(), first_batch.begin(), first_batch.end());
  MiningSession restarted(std::move(reborn), serial_options());
  const auto snapshots = monitors_from_json(persisted);
  ASSERT_EQ(snapshots.size(), 1u);
  // Restoring against the matching stream replays nothing (high_water == db
  // size) and fires nothing new.
  const auto alerts = restarted.restore_monitor(snapshots.front());
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(restarted.monitor_counts("persist"), session.monitor_counts("persist"));

  // Both sessions continue identically.
  const auto second_batch = data::uniform_database(core::Alphabet(8), 100, rng());
  const auto live = session.append_events(second_batch);
  const auto resumed = restarted.append_events(second_batch);
  EXPECT_EQ(restarted.monitor_counts("persist"), session.monitor_counts("persist"));
  ASSERT_EQ(live.alerts.size(), resumed.alerts.size());
  for (std::size_t i = 0; i < live.alerts.size(); ++i) {
    EXPECT_EQ(live.alerts[i].episode_index, resumed.alerts[i].episode_index);
    EXPECT_EQ(live.alerts[i].count, resumed.alerts[i].count);
    EXPECT_EQ(live.alerts[i].position, resumed.alerts[i].position);
  }
}

TEST(StreamingMonitorTest, RestoreRefusesAMismatchedStreamPrefix) {
  Rng rng(0xBADF00D);
  data::Dataset dataset = make_dataset(5, 80, rng());
  data::Dataset tampered = dataset;
  tampered.events[10] = static_cast<core::Symbol>((tampered.events[10] + 1) % 5);

  MonitorSpec spec;
  spec.name = "strict";
  spec.episodes = {core::Episode({1, 2})};
  MiningSession session(std::move(dataset), serial_options());
  (void)session.register_monitor(spec);
  const auto snapshots = session.monitor_snapshots();

  MiningSession other(std::move(tampered), serial_options());
  EXPECT_THROW((void)other.restore_monitor(snapshots.front()), gm::Error);
}

TEST(StreamingMonitorTest, IdleEvictionKeepsLiveEpisodeAlertsExact) {
  // Two monitors over the same stream, identical except that one evicts the
  // in-flight state of episodes idle for 3 batches.  Episode 0 keeps scoring
  // every batch (live); episode 1 starts a match in the first batch and then
  // sees nothing until its second symbol finally arrives long past the idle
  // horizon.  Eviction must drop exactly that straddling occurrence — and
  // nothing about the live episode's counts or alerts.
  MonitorSpec spec;
  spec.name = "evict";
  spec.episodes = {core::Episode({0, 1}), core::Episode({2, 3})};
  spec.threshold = 5;
  MonitorSpec evicting = spec;
  evicting.idle_eviction_generations = 3;
  StreamingMonitor plain(spec);
  StreamingMonitor pruned(evicting);

  const std::vector<std::vector<core::Symbol>> batches = {
      {2}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {3}, {0, 1}};
  std::vector<Alert> plain_alerts;
  std::vector<Alert> pruned_alerts;
  std::uint64_t generation = 1;
  for (const auto& batch : batches) {
    plain.on_append(batch, generation, plain_alerts);
    pruned.on_append(batch, generation, pruned_alerts);
    ++generation;
  }

  EXPECT_EQ(plain.idle_evictions(), 0);
  EXPECT_EQ(pruned.idle_evictions(), 1);
  // The live episode is untouched: same exact counts, same single alert at
  // the same crossing.
  EXPECT_EQ(plain.counts()[0], pruned.counts()[0]);
  ASSERT_EQ(plain_alerts.size(), pruned_alerts.size());
  for (std::size_t i = 0; i < plain_alerts.size(); ++i) {
    EXPECT_EQ(plain_alerts[i].episode_index, 0u);
    EXPECT_EQ(plain_alerts[i].episode_index, pruned_alerts[i].episode_index);
    EXPECT_EQ(plain_alerts[i].count, pruned_alerts[i].count);
    EXPECT_EQ(plain_alerts[i].position, pruned_alerts[i].position);
    EXPECT_EQ(plain_alerts[i].generation, pruned_alerts[i].generation);
  }
  // The idle episode's half-built match was really dropped: only the
  // non-evicting monitor completes it when symbol 3 finally shows up.
  EXPECT_EQ(plain.counts()[1], 1);
  EXPECT_EQ(pruned.counts()[1], 0);
}

TEST(StreamingMonitorTest, IdleEvictionSurvivesCheckpointRestore) {
  // Episode 1 starts a match in the prefix and then idles.  A monitor saved
  // and restored must keep evicting it: the idle counters restart at the
  // restore, so three idle batches later the half-built match is dropped
  // and the late symbol 3 no longer completes it.
  MonitorSpec spec;
  spec.name = "evict";
  spec.episodes = {core::Episode({0, 1}), core::Episode({2, 3})};
  spec.threshold = 5;
  spec.idle_eviction_generations = 3;
  const data::Dataset dataset{core::Alphabet(4), {2}};
  MiningSession session(dataset, serial_options());
  (void)session.register_monitor(spec);
  const std::string persisted = monitors_to_json(session.monitor_snapshots());

  const auto snapshots = monitors_from_json(persisted);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots.front().spec.idle_eviction_generations, 3);
  MiningSession restarted(dataset, serial_options());
  (void)restarted.restore_monitor(snapshots.front());
  EXPECT_EQ(restarted.monitor_snapshots().front().spec.idle_eviction_generations, 3);
  StreamingMonitor restored(snapshots.front().spec, snapshots.front().checkpoint);
  EXPECT_EQ(restored.spec().idle_eviction_generations, 3);

  const std::vector<std::vector<core::Symbol>> batches = {{0, 1}, {0, 1}, {0, 1}, {3}};
  std::vector<Alert> alerts;
  std::uint64_t generation = 2;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    restored.on_append(batches[b], generation++, alerts);
    (void)restarted.append_events(batches[b]);
    EXPECT_EQ(restored.idle_evictions(), b < 2 ? 0 : 1) << "after batch " << b;
  }
  EXPECT_EQ(restored.counts()[1], 0);
  EXPECT_EQ(restarted.monitor_counts("evict")[1], 0);
  EXPECT_EQ(restarted.monitor_counts("evict")[0], 3);
}

TEST(StreamingMonitorTest, CheckpointRefusesOutOfRangeSemantics) {
  // The spec and the checkpoint each carry a semantics value; anything but
  // the two enum values (0 and 1) is refused in either place.
  const auto document = [](const std::string& spec_semantics,
                           const std::string& checkpoint_semantics,
                           const std::string& idle_eviction = "0") {
    return R"({"schema":"gm-checkpoint/1","monitors":[{"spec":{"name":"m","episodes":[[0,1]],)"
           R"("semantics":)" + spec_semantics +
           R"(,"expiry_window":0,"threshold":1,"idle_eviction_generations":)" + idle_eviction +
           R"(},"checkpoint":{"semantics":)" + checkpoint_semantics +
           R"(,"expiry_window":0,"high_water":0,"prefix_digest":"cbf29ce484222325",)"
           R"("generation":0,"episodes":[[0,1]],"progress":[[0,0,0]]}}]})";
  };
  EXPECT_EQ(monitors_from_json(document("0", "0")).front().spec.semantics,
            core::Semantics::kNonOverlappedSubsequence);
  EXPECT_EQ(monitors_from_json(document("1", "1")).front().checkpoint.semantics,
            core::Semantics::kContiguousRestart);
  for (const std::string bad : {"2", "-1", "7"}) {
    EXPECT_THROW((void)monitors_from_json(document(bad, "0")), gm::Error) << "spec " << bad;
    EXPECT_THROW((void)monitors_from_json(document("0", bad)), gm::Error)
        << "checkpoint " << bad;
  }
  // A negative idle-eviction setting is refused too.
  EXPECT_THROW((void)monitors_from_json(document("0", "0", "-1")), gm::Error);
}

TEST(StreamingMonitorTest, CheckpointRefusesNegativeCountsWindowsAndWideStates) {
  // A progress record is [count, first_pos, state].  A state past int used
  // to narrow silently ([1,6,4294967297] restored as state 1), and a
  // negative count or expiry window used to restore, the window as "off".
  const auto document = [](const std::string& progress, const std::string& spec_window,
                           const std::string& checkpoint_window) {
    return R"({"schema":"gm-checkpoint/1","monitors":[{"spec":{"name":"m","episodes":[[0,1]],)"
           R"("semantics":0,"expiry_window":)" + spec_window +
           R"(,"threshold":1},"checkpoint":{"semantics":0,"expiry_window":)" +
           checkpoint_window +
           R"(,"high_water":8,"prefix_digest":"cbf29ce484222325",)"
           R"("generation":0,"episodes":[[0,1]],"progress":[)" + progress + "]}}]}";
  };
  const auto restored = monitors_from_json(document("[1,6,1]", "5", "5"));
  EXPECT_EQ(restored.front().checkpoint.progress.front(), (core::EpisodeProgress{1, 6, 1}));
  EXPECT_EQ(restored.front().spec.expiry.window, 5);
  for (const std::string bad : {"[1,6,4294967297]", "[1,6,-1]", "[-7,6,1]"}) {
    EXPECT_THROW((void)monitors_from_json(document(bad, "0", "0")), gm::Error) << bad;
  }
  EXPECT_THROW((void)monitors_from_json(document("[1,6,1]", "-5", "-5")), gm::Error);
  EXPECT_THROW((void)monitors_from_json(document("[1,6,1]", "-5", "0")), gm::Error);
  EXPECT_THROW((void)monitors_from_json(document("[1,6,1]", "0", "-5")), gm::Error);

  // register_monitor agrees: a negative window is refused, as the miner
  // refuses one, instead of counting without expiry.
  MonitorSpec spec;
  spec.name = "negative";
  spec.episodes = {core::Episode({0, 1})};
  spec.expiry = {-5};
  MiningSession session(make_dataset(4, 40, 3), serial_options());
  EXPECT_THROW((void)session.register_monitor(spec), gm::Error);
  EXPECT_TRUE(session.monitor_snapshots().empty());
}

TEST(StreamingMonitorTest, RestoreRefusesWhatRegisterRefuses) {
  // gm-checkpoint/1 crosses a trust boundary, so a restored spec passes the
  // check a registered one does.  Each snapshot is consistent in itself: a
  // scan of its spec's episodes at high-water mark 0, whose digest every
  // stream shares.
  MiningSession session(make_dataset(26, 300, 0x2626), serial_options());
  MonitorSpec kept;
  kept.name = "kept";
  kept.episodes = {core::Episode({0, 1})};
  (void)session.register_monitor(kept);
  const std::string before = monitors_to_json(session.monitor_snapshots());

  MonitorSpec foreign;
  foreign.name = "foreign";
  foreign.episodes = {core::Episode({3, 200})};
  MonitorSpec empty;
  empty.name = "empty";
  for (const MonitorSpec& spec : {foreign, empty}) {
    EXPECT_THROW((void)session.register_monitor(spec), gm::Error) << spec.name;
    core::ScanCheckpoint checkpoint;
    checkpoint.prefix_digest = core::stream_digest_seed();
    checkpoint.episodes = spec.episodes;
    checkpoint.progress.resize(spec.episodes.size());
    const MonitorSnapshot snapshot{spec, checkpoint};
    const auto restored = monitors_from_json(monitors_to_json({&snapshot, 1}));
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_THROW((void)session.restore_monitor(restored.front()), gm::Error) << spec.name;
    EXPECT_EQ(monitors_to_json(session.monitor_snapshots()), before) << spec.name;
  }
  // Neither refusal took its name.
  for (const std::string name : {"foreign", "empty"}) {
    MonitorSpec valid = kept;
    valid.name = name;
    EXPECT_NO_THROW((void)session.register_monitor(valid)) << name;
  }
  EXPECT_EQ(session.monitor_snapshots().size(), 3u);
}

TEST(StreamingMonitorTest, EarlierBuildsTrieMonitorRestoresExactly) {
  // A gm-checkpoint/1 document in the format earlier builds wrote: the spec
  // names the retired trie scan engine ("engine": 1) and carries no idle
  // eviction setting, and the capture is mid-window under expiry — episodes
  // 0, 1 and 3 are in flight, and episode 3's deadline (12 + 4) lies past
  // the pause at 14.  It must restore onto the flat engine and keep counting
  // exactly what a full serial recount does.
  constexpr std::string_view kDocument =
      R"({"schema":"gm-checkpoint/1","monitors":[{"spec":{"name":"legacy",)"
      R"("episodes":[[0,1,2],[0,2],[1,0],[0,3]],"semantics":0,"expiry_window":4,)"
      R"("threshold":3,"engine":1},"checkpoint":{"semantics":0,"expiry_window":4,)"
      R"("high_water":14,"prefix_digest":"d4fdd33a47c0d9e8","generation":1,)"
      R"("episodes":[[0,1,2],[0,2],[1,0],[0,3]],)"
      R"("progress":[[1,10,1],[1,10,1],[3,0,0],[1,12,1]]}}]})";
  const auto snapshots = monitors_from_json(kDocument);
  ASSERT_EQ(snapshots.size(), 1u);
  const MonitorSpec& spec = snapshots.front().spec;
  EXPECT_EQ(spec.idle_eviction_generations, 0);

  // The reloaded stream also holds events appended after the capture (the
  // last three, past the high-water mark of 14), which the restore replays
  // before live appends continue.
  data::Dataset dataset{core::Alphabet(5), {0, 1, 2, 0, 3, 1, 0, 2, 4, 1, 0, 3, 0, 4, 3, 2, 0}};
  std::vector<core::Symbol> full = dataset.events;
  MiningSession session(std::move(dataset), serial_options());
  (void)session.restore_monitor(snapshots.front());
  const auto recount = [&] {
    std::vector<std::int64_t> counts;
    for (const core::Episode& e : spec.episodes) {
      counts.push_back(core::count_occurrences(e, full, spec.semantics, spec.expiry));
    }
    return counts;
  };
  EXPECT_EQ(session.monitor_counts("legacy"), recount());
  EXPECT_EQ(session.monitor_counts("legacy")[3], 2);  // the straddling match completed

  const std::vector<core::Symbol> more = {1, 0, 1, 2, 0, 0, 3, 4, 1, 0, 2};
  (void)session.append_events(more);
  full.insert(full.end(), more.begin(), more.end());
  EXPECT_EQ(session.monitor_counts("legacy"), recount());
}

TEST(StreamingMonitorTest, TicksRecordEveryAppendBatch) {
  data::Dataset dataset = make_dataset(4, 40, 3);
  MiningSession session(std::move(dataset), serial_options());
  MonitorSpec spec;
  spec.name = "ticks";
  spec.episodes = {core::Episode({0, 1})};
  (void)session.register_monitor(spec);
  (void)session.append_events(std::vector<core::Symbol>{0, 1, 0, 1});
  (void)session.append_events(std::vector<core::Symbol>{2, 3});
  const auto snapshots = session.monitor_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots.front().checkpoint.high_water, 46);
}

}  // namespace
}  // namespace gm::service
