#include "trace.hpp"

#include <functional>
#include <thread>
#include <utility>

#include "bench_support/json.hpp"

namespace pb {

std::int64_t Trace::add(std::string name, Clock::time_point start, Clock::time_point end,
                        std::int64_t parent) {
  const std::uint64_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back({std::move(name), id, parent, start, end, thread});
  return id;
}

void Trace::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  gm::bench::JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  for (const Span& span : spans_) {
    json.begin_object()
        .field("name", span.name)
        .field("cat", span.name.substr(0, span.name.find('.')))
        .field("ph", "X")
        .field("ts", us(span.start))
        .field("dur", us(span.end) - us(span.start))
        .field("pid", 1)
        .field("tid", static_cast<std::int64_t>(span.thread % 1'000'000))
        .key("args")
        .begin_object()
        .field("id", span.id)
        .field("parent", span.parent)
        .end_object()
        .end_object();
  }
  json.end_array().field("droppedSpans", static_cast<std::int64_t>(dropped_)).end_object();
  json.write_file(path);
}

gm::core::CountResult TimedBackend::count(const gm::core::CountRequest& request) {
  Call call;
  call.start = Clock::now();
  gm::core::CountResult result = inner_.count(request);
  call.end = Clock::now();
  call.episodes = static_cast<std::int64_t>(request.episodes.size());
  call.level = request.episodes.empty() ? 0 : request.episodes.front().level();
  call.host_ms = result.host_ms;
  call.simulated_kernel_ms = result.simulated_kernel_ms;
  call.counts = result.counts;
  calls_.push_back(std::move(call));
  return result;
}

}  // namespace pb
