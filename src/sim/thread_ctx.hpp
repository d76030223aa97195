// Per-thread execution context for simulated kernels.
//
// A kernel is a C++20 coroutine returning `KernelTask`.  The engine resumes
// every thread's coroutine in warp order; `co_await ctx.syncthreads()` models
// a CUDA `__syncthreads()` barrier: the coroutine suspends until every thread
// in the block has arrived.  All work (arithmetic, memory traffic) is charged
// to per-thread hardware counters either implicitly by the memory views
// (sim/memory.hpp) or explicitly via `ThreadCtx::charge`.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/device_spec.hpp"
#include "sim/launch.hpp"
#include "sim/profile.hpp"

namespace gpusim {

/// Counters accumulated by one simulated thread ("lane").
struct ThreadCounters {
  std::uint64_t instructions = 0;  ///< issue slots consumed (memory ops included)
  std::uint64_t tex_ops = 0;
  std::uint64_t shared_ops = 0;
  std::uint64_t global_ops = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t global_bytes = 0;
  std::uint64_t syncs = 0;

  friend bool operator==(const ThreadCounters&, const ThreadCounters&) = default;
};

/// Coroutine handle wrapper for one simulated thread's kernel invocation.
class KernelTask {
 public:
  struct promise_type {
    std::exception_ptr exception;
    bool at_barrier = false;

    KernelTask get_return_object() {
      return KernelTask(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  KernelTask() = default;
  explicit KernelTask(Handle handle) : handle_(handle) {}
  KernelTask(KernelTask&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  KernelTask& operator=(KernelTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { destroy(); }

  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }
  [[nodiscard]] bool at_barrier() const noexcept {
    return handle_ && !handle_.done() && handle_.promise().at_barrier;
  }
  void clear_barrier() noexcept {
    if (handle_ && !handle_.done()) handle_.promise().at_barrier = false;
  }

  /// Run the thread until it finishes or suspends at a barrier.  Rethrows any
  /// exception the kernel body raised.
  void resume() {
    gm::ensure(handle_ && !handle_.done(), "resumed a finished kernel thread");
    handle_.resume();
    if (handle_.done() && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_ = nullptr;
};

/// State shared by all threads of one block (the simulated SM slice).
struct BlockEnv {
  std::vector<std::byte> shared_mem;
  TexturePattern declared_pattern;  ///< kNone until the kernel declares one
};

class ThreadCtx {
 public:
  ThreadCtx(const DeviceSpec& spec, ThreadCoordinates coords, BlockEnv& env)
      : spec_(&spec), coords_(coords), env_(&env) {}

  // --- identity ------------------------------------------------------------
  [[nodiscard]] int thread_idx() const noexcept { return coords_.thread_index; }
  [[nodiscard]] int block_idx() const noexcept { return coords_.block_index; }
  [[nodiscard]] int block_dim() const noexcept { return coords_.block_dim; }
  [[nodiscard]] int grid_dim() const noexcept { return coords_.grid_dim; }
  [[nodiscard]] int global_thread() const noexcept { return coords_.global_thread(); }
  [[nodiscard]] int warp() const noexcept { return coords_.warp_in_block(spec_->warp_size); }
  [[nodiscard]] int lane() const noexcept { return coords_.lane(spec_->warp_size); }
  [[nodiscard]] const DeviceSpec& device() const noexcept { return *spec_; }

  // --- cost charging ---------------------------------------------------------
  /// Charge `n` arithmetic/control instructions to this lane.
  void charge(std::uint64_t n) noexcept { counters_.instructions += n; }

  // Called by the memory views; each memory operation also occupies one issue
  // slot.  The count-taking forms charge `n` identical accesses at once: the
  // engine reads lane counters only at barriers and at block end, so a view
  // may charge a whole staged buffer's accesses in one call.
  void note_tex_fetch() noexcept {
    ++counters_.instructions;
    ++counters_.tex_ops;
  }
  void note_shared_access(std::uint64_t n = 1) noexcept {
    counters_.instructions += n;
    counters_.shared_ops += n;
  }
  void note_global_access(int bytes, std::uint64_t n = 1) noexcept {
    counters_.instructions += n;
    counters_.global_ops += n;
    counters_.global_bytes += static_cast<std::uint64_t>(bytes) * n;
  }
  void note_atomic() {
    if (!spec_->supports_atomics()) {
      gm::raise_device("atomic operations require compute capability >= 1.1 (device is " +
                       spec_->name + ")");
    }
    ++counters_.instructions;
    ++counters_.atomic_ops;
  }

  /// Kernels declare their texture access pattern so the analytic cost model
  /// can price the block's texture traffic and cross-block cache sharing (see
  /// TexturePattern).  A block that fetches texture must declare one.
  void declare_texture_pattern(const TexturePattern& pattern) noexcept {
    env_->declared_pattern = pattern;
  }

  // --- synchronization -------------------------------------------------------
  struct SyncAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<KernelTask::promise_type> h) const noexcept {
      h.promise().at_barrier = true;
    }
    void await_resume() const noexcept {}
  };

  /// CUDA __syncthreads(): `co_await ctx.syncthreads();`
  [[nodiscard]] SyncAwaiter syncthreads() noexcept {
    ++counters_.instructions;
    ++counters_.syncs;
    return SyncAwaiter{};
  }

  // --- shared memory -----------------------------------------------------------
  [[nodiscard]] std::span<std::byte> shared_bytes() noexcept {
    return {env_->shared_mem.data(), env_->shared_mem.size()};
  }

  [[nodiscard]] const ThreadCounters& counters() const noexcept { return counters_; }

 private:
  const DeviceSpec* spec_;
  ThreadCoordinates coords_;
  BlockEnv* env_;
  ThreadCounters counters_;
};

/// A kernel: invoked once per simulated thread.
using KernelFn = std::function<KernelTask(ThreadCtx&)>;

}  // namespace gpusim
