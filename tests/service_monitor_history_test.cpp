// Where a monitor snapshot's stream digest comes from must not show in what
// the session persists: a fixed, seeded monitor history writes byte-identical
// gm-checkpoint/1 documents, and after every step each snapshot's prefix
// digest is the digest of the session's whole stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/scan_checkpoint.hpp"
#include "data/generators.hpp"
#include "service/checkpoint_store.hpp"
#include "service/session.hpp"

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

/// The gm-checkpoint/1 documents of one fixed monitor history.
struct RecordedDocuments {
  std::string persisted;  ///< the first session's monitors after its ten appends
  std::string restored;   ///< the second session's monitors after the restore
};

/// Replays a fixed, seeded monitor history over a 7-symbol stream and calls
/// `step(session, stream)` after each of its steps, `stream` being the whole
/// stream of `session`:
/// - a 120-event session registers monitor "early", whose idle episodes are
///   evicted after two quiet appends;
/// - ten appends of 1 to 97 events; monitor "late" (contiguous restart)
///   registers after the first three;
/// - both monitors go through gm-checkpoint/1 JSON into a second session,
///   whose stream carries 23 events more, so each restore replays a tail.
template <class Step>
RecordedDocuments replay_recorded_history(Step&& step) {
  const core::Alphabet alphabet(7);
  Rng rng(0x5A9D16E5);
  data::Dataset dataset = make_dataset(7, 120, rng());
  std::vector<core::Symbol> stream = dataset.events;
  MiningSession session(std::move(dataset), serial_options());
  step(session, stream);

  MonitorSpec early;
  early.name = "early";
  early.episodes = {core::Episode({0, 1}), core::Episode({2, 3, 2}), core::Episode({4, 5, 6})};
  early.expiry = {9};
  early.threshold = 6;
  early.idle_eviction_generations = 2;
  (void)session.register_monitor(early);
  step(session, stream);

  MonitorSpec late;
  late.name = "late";
  late.episodes = {core::Episode({6, 0}), core::Episode({1, 1, 3}), core::Episode({5, 2})};
  late.semantics = core::Semantics::kContiguousRestart;
  late.threshold = 4;
  const std::int64_t batch_sizes[] = {1, 97, 13, 42, 7, 88, 2, 65, 30, 19};
  for (std::size_t b = 0; b < std::size(batch_sizes); ++b) {
    if (b == 3) {
      (void)session.register_monitor(late);
      step(session, stream);
    }
    const auto batch = data::uniform_database(alphabet, batch_sizes[b], rng());
    (void)session.append_events(batch);
    stream.insert(stream.end(), batch.begin(), batch.end());
    step(session, stream);
  }
  RecordedDocuments documents;
  documents.persisted = monitors_to_json(session.monitor_snapshots());

  const auto more = data::uniform_database(alphabet, 23, rng());
  stream.insert(stream.end(), more.begin(), more.end());
  MiningSession restarted(data::Dataset{alphabet, stream}, serial_options());
  for (const MonitorSnapshot& snapshot : monitors_from_json(documents.persisted)) {
    (void)restarted.restore_monitor(snapshot);
    step(restarted, stream);
  }
  documents.restored = monitors_to_json(restarted.monitor_snapshots());
  return documents;
}

TEST(StreamingMonitorTest, RecordedHistorySnapshotsStayByteIdentical) {
  // Both documents as a build whose every StreamScan kept its own prefix
  // digest wrote them: where the digest is computed must not change a byte.
  constexpr std::string_view kPersisted =
      R"({"schema":"gm-checkpoint/1","monitors":[{"spec":{"name":"early",)"
      R"("episodes":[[0,1],[2,3,2],[4,5,6]],"semantics":0,"expiry_window":9,"threshold":6,)"
      R"("idle_eviction_generations":2},"checkpoint":{"semantics":0,"expiry_window":9,)"
      R"("high_water":484,"prefix_digest":"441b82b26c0d3609","generation":11,)"
      R"("episodes":[[0,1],[2,3,2],[4,5,6]],"progress":[[26,483,1],[12,471,0],[11,0,0]]}},)"
      R"({"spec":{"name":"late","episodes":[[6,0],[1,1,3],[5,2]],"semantics":1,)"
      R"("expiry_window":0,"threshold":4,"idle_eviction_generations":0},)"
      R"("checkpoint":{"semantics":1,"expiry_window":0,"high_water":484,)"
      R"("prefix_digest":"441b82b26c0d3609","generation":11,)"
      R"("episodes":[[6,0],[1,1,3],[5,2]],"progress":[[15,480,0],[2,481,0],[7,476,0]]}}]})";
  constexpr std::string_view kRestored =
      R"({"schema":"gm-checkpoint/1","monitors":[{"spec":{"name":"early",)"
      R"("episodes":[[0,1],[2,3,2],[4,5,6]],"semantics":0,"expiry_window":9,"threshold":6,)"
      R"("idle_eviction_generations":2},"checkpoint":{"semantics":0,"expiry_window":9,)"
      R"("high_water":507,"prefix_digest":"477e772145a4763c","generation":1,)"
      R"("episodes":[[0,1],[2,3,2],[4,5,6]],"progress":[[27,483,0],[12,497,0],[12,496,0]]}},)"
      R"({"spec":{"name":"late","episodes":[[6,0],[1,1,3],[5,2]],"semantics":1,)"
      R"("expiry_window":0,"threshold":4,"idle_eviction_generations":0},)"
      R"("checkpoint":{"semantics":1,"expiry_window":0,"high_water":507,)"
      R"("prefix_digest":"477e772145a4763c","generation":1,)"
      R"("episodes":[[6,0],[1,1,3],[5,2]],"progress":[[15,498,0],[2,506,1],[7,500,0]]}}]})";
  const RecordedDocuments documents =
      replay_recorded_history([](const MiningSession&, const std::vector<core::Symbol>&) {});
  EXPECT_EQ(documents.persisted, kPersisted);
  EXPECT_EQ(documents.restored, kRestored);
}

TEST(StreamingMonitorTest, SnapshotDigestIsTheSessionStreamDigest) {
  const auto expect_stream_digest = [](const MiningSession& session,
                                       const std::vector<core::Symbol>& stream) {
    const std::uint64_t digest =
        core::stream_digest_extend(core::stream_digest_seed(), stream);
    for (const MonitorSnapshot& snapshot : session.monitor_snapshots()) {
      EXPECT_EQ(snapshot.checkpoint.high_water, static_cast<std::int64_t>(stream.size()))
          << snapshot.spec.name;
      EXPECT_EQ(snapshot.checkpoint.prefix_digest, digest)
          << snapshot.spec.name << " at " << stream.size() << " events";
    }
  };
  (void)replay_recorded_history(expect_stream_digest);

  // A reload replaces the stream and drops its monitors; the next monitor's
  // snapshots carry the new stream's digest.
  data::Dataset first = make_dataset(7, 90, 11);
  MiningSession session(std::move(first), serial_options());
  MonitorSpec spec;
  spec.name = "before";
  spec.episodes = {core::Episode({1, 2})};
  (void)session.register_monitor(spec);
  const data::Dataset second = make_dataset(7, 61, 12);
  session.reload(second);
  ASSERT_TRUE(session.monitor_snapshots().empty());
  spec.name = "after";
  (void)session.register_monitor(spec);
  std::vector<core::Symbol> stream = second.events;
  expect_stream_digest(session, stream);
  const std::vector<core::Symbol> batch = {0, 6, 3};
  (void)session.append_events(batch);
  stream.insert(stream.end(), batch.begin(), batch.end());
  expect_stream_digest(session, stream);
  ASSERT_EQ(session.monitor_snapshots().size(), 1u);
}

}  // namespace
}  // namespace gm::service
