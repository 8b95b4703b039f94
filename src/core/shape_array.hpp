#pragma once

/// \file shape_array.hpp
/// `ShapeArray<T>`: an immutable, shareable array of plan geometry.
///
/// The instance-independent tables a `SolvePlan` owns — pair lists,
/// root blocks, offset tables — were `std::vector`s, which forces every
/// consumer of a plan snapshot (snapshot/plan_snapshot.hpp) to copy its
/// geometry out of the file on load. `ShapeArray` is the seam that removes the
/// copy: it is a read-only `(data, size)` view plus a type-erased
/// keep-alive handle, so the same array type can be backed by
///  * an owned `std::vector<T>` (the build-from-scratch path — the
///    vector moves into the keep-alive and the view points at it), or
///  * a region of an mmapped snapshot file (the rehydration path — the
///    keep-alive pins the mapping, the view points straight into the
///    page cache; no allocation, no copy).
///
/// Plan geometry is immutable once built (the thread-safety contract in
/// solve_plan.hpp depends on that), so a read-only view loses nothing;
/// the engine's hot loops only ever index and iterate these arrays.
/// Copying a `ShapeArray` copies the view and bumps the keep-alive —
/// O(1), like the `shared_ptr` layout sharing it complements.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace subdp::core {

/// Immutable shared array view; see the file comment.
template <class T>
class ShapeArray {
 public:
  ShapeArray() = default;

  /// Takes ownership of `values` (the build path): the vector moves into
  /// the keep-alive handle and the view aliases its buffer.
  ShapeArray(std::vector<T> values)  // NOLINT(google-explicit-constructor)
  {
    auto owned = std::make_shared<std::vector<T>>(std::move(values));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }

  /// Aliases `[data, data + size)` whose storage `owner` keeps alive (the
  /// mmap rehydration path). `data` may be null only when `size == 0`.
  ShapeArray(const T* data, std::size_t size,
             std::shared_ptr<const void> owner)
      : data_(data), size_(size), owner_(std::move(owner)) {
    SUBDP_REQUIRE(data_ != nullptr || size_ == 0,
                  "ShapeArray view over null storage");
  }

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] const T& operator[](std::size_t idx) const noexcept {
    return data_[idx];
  }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  /// Whatever keeps `data_` valid: the owned vector or the file mapping.
  std::shared_ptr<const void> owner_;
};

}  // namespace subdp::core
