// Simulated device memory spaces.
//
// `DeviceBuffer<T>` owns storage "on the device"; kernels access it through
// cost-charging views: `TextureView` (read-only texture fetches, whose cache
// traffic the cost model prices from the block's declared TexturePattern),
// `GlobalView` (read/write device memory, optional atomics), and
// `SharedArray` (per-block on-chip scratch).  Host code moves data in and out
// via `host()` — transfers are not part of kernel time, matching the paper's
// measurement methodology (kernel-invocation to kernel-return).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sim/thread_ctx.hpp"

namespace gpusim {

template <typename T>
class TextureView;
template <typename T>
class GlobalView;

/// Owning simulated device allocation.
template <typename T>
class DeviceBuffer {
 public:
  explicit DeviceBuffer(std::size_t count) : storage_(count) {}

  explicit DeviceBuffer(std::span<const T> host_data)
      : storage_(host_data.begin(), host_data.end()) {}

  DeviceBuffer(DeviceBuffer&&) noexcept = default;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }

  /// Host-side access (cudaMemcpy analogue; free of kernel-time charges).
  [[nodiscard]] std::span<T> host() noexcept { return storage_; }
  [[nodiscard]] std::span<const T> host() const noexcept { return storage_; }

  [[nodiscard]] TextureView<T> texture() const noexcept {
    return TextureView<T>(storage_.data(), storage_.size());
  }
  [[nodiscard]] GlobalView<T> global() noexcept {
    return GlobalView<T>(storage_.data(), storage_.size());
  }

 private:
  std::vector<T> storage_;
};

/// Read-only view served through the texture unit.
template <typename T>
class TextureView {
 public:
  TextureView() = default;
  TextureView(const T* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// tex1Dfetch analogue: charges one texture fetch to the calling lane.
  [[nodiscard]] T fetch(ThreadCtx& ctx, std::size_t index) const {
    gm::ensure(index < size_, "texture fetch out of bounds");
    ctx.note_tex_fetch();
    return data_[index];
  }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Read/write view of device ("global") memory.
template <typename T>
class GlobalView {
 public:
  GlobalView() = default;
  GlobalView(T* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T load(ThreadCtx& ctx, std::size_t index) const {
    gm::ensure(index < size_, "global load out of bounds");
    ctx.note_global_access(sizeof(T));
    return data_[index];
  }

  void store(ThreadCtx& ctx, std::size_t index, T value) {
    gm::ensure(index < size_, "global store out of bounds");
    ctx.note_global_access(sizeof(T));
    data_[index] = value;
  }

  /// `n` loads whose values the kernel drops, each at some index in
  /// [begin, end): one bounds check covers them all.
  void discard_loads(ThreadCtx& ctx, std::size_t begin, std::size_t end,
                     std::uint64_t n) const {
    gm::ensure(begin < end && end <= size_, "global load out of bounds");
    ctx.note_global_access(sizeof(T), n);
  }

  /// `n` round trips on one word, each a load of `index` followed by a store
  /// of `value` there.
  void load_store(ThreadCtx& ctx, std::size_t index, T value, std::uint64_t n) {
    gm::ensure(index < size_, "global load/store out of bounds");
    ctx.note_global_access(sizeof(T), 2 * n);
    if (n > 0) data_[index] = value;
  }

  /// 32/64-bit atomic add; requires compute capability >= 1.1 (paper §4.2.1).
  /// Returns the previous value, like CUDA atomicAdd.
  T atomic_add(ThreadCtx& ctx, std::size_t index, T delta) {
    static_assert(std::atomic_ref<T>::required_alignment <= alignof(std::max_align_t));
    gm::ensure(index < size_, "atomic out of bounds");
    ctx.note_atomic();
    ctx.note_global_access(sizeof(T));
    return std::atomic_ref<T>(data_[index]).fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Typed window into the block's shared-memory arena.  Loads and stores are
/// charged to the calling lane; the arena itself lives in BlockEnv so every
/// thread of the block sees the same bytes.
template <typename T>
class SharedArray {
 public:
  SharedArray(ThreadCtx& ctx, std::size_t count, std::size_t byte_offset = 0) : ctx_(&ctx) {
    auto bytes = ctx.shared_bytes();
    gm::expects(byte_offset + count * sizeof(T) <= bytes.size(),
                "shared array exceeds the block's shared memory allocation");
    gm::expects(reinterpret_cast<std::uintptr_t>(bytes.data() + byte_offset) % alignof(T) == 0,
                "shared array misaligned for element type");
    data_ = reinterpret_cast<T*>(bytes.data() + byte_offset);
    count_ = count;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] T load(std::size_t index) const {
    gm::ensure(index < count_, "shared load out of bounds");
    ctx_->note_shared_access();
    return data_[index];
  }

  /// `n` consecutive loads from `begin`, charged as `n` shared accesses.
  [[nodiscard]] std::span<const T> load_span(std::size_t begin, std::size_t n) const {
    gm::ensure(begin <= count_ && n <= count_ - begin, "shared load out of bounds");
    ctx_->note_shared_access(n);
    return {data_ + begin, n};
  }

  void store(std::size_t index, T value) {
    gm::ensure(index < count_, "shared store out of bounds");
    ctx_->note_shared_access();
    data_[index] = value;
  }

 private:
  ThreadCtx* ctx_;
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace gpusim
