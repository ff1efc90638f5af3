#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

/// \file small_vector.h
/// \brief A vector with inline storage for its first `InlineCapacity`
/// elements.
///
/// The per-name kernel arrays of `sim::PreparedName` (trigram ids, token
/// ids, synonym groups, PEQ bitmasks) are short — a dozen entries for a
/// typical identifier — yet a `std::vector` heap-allocates each one. With
/// millions of prepared names per workload (index build, candidate
/// scoring, snapshot load) those small allocations dominate the
/// non-compute cost.
/// `SmallVector` keeps the common case in the object itself and only falls
/// back to the heap when a name overflows the inline capacity.
///
/// Deliberately minimal: exactly the operations the kernel and the
/// persistence layer use (push_back/resize/reserve/clear, iteration,
/// indexing, equality). Grows geometrically; never shrinks back to inline.

namespace smb {

template <typename T, size_t InlineCapacity>
class SmallVector {
  static_assert(InlineCapacity > 0, "inline capacity must be positive");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SmallVector relocates with move; T must not throw");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(const SmallVector& other) {
    reserve(other.size_);
    std::uninitialized_copy_n(other.data(), other.size_, data());
    size_ = other.size_;
  }

  SmallVector(SmallVector&& other) noexcept { MoveFrom(std::move(other)); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      std::uninitialized_copy_n(other.data(), other.size_, data());
      size_ = other.size_;
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      Deallocate();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { Deallocate(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T* data() { return heap_ != nullptr ? heap_ : InlineData(); }
  const T* data() const {
    return heap_ != nullptr ? heap_ : InlineData();
  }

  T& operator[](size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n <= capacity_) return;
    Grow(n);
  }

  void resize(size_t n) {
    if (n < size_) {
      std::destroy_n(data() + n, size_ - n);
    } else {
      reserve(n);
      std::uninitialized_value_construct_n(data() + size_, n - size_);
    }
    size_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      // `value` may alias an element of this vector; Grow relocates and
      // destroys the old storage, so detach it first (std::vector makes
      // the same guarantee).
      T detached(value);
      Grow(size_ + 1);
      new (data() + size_) T(std::move(detached));
    } else {
      new (data() + size_) T(value);
    }
    ++size_;
  }

  void push_back(T&& value) {
    if (size_ == capacity_) {
      T detached(std::move(value));
      Grow(size_ + 1);
      new (data() + size_) T(std::move(detached));
    } else {
      new (data() + size_) T(std::move(value));
    }
    ++size_;
  }

  bool operator==(const SmallVector& other) const {
    if (size_ != other.size_) return false;
    const T* a = data();
    const T* b = other.data();
    for (size_t i = 0; i < size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  bool operator!=(const SmallVector& other) const {
    return !(*this == other);
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_storage_); }
  const T* InlineData() const {
    return reinterpret_cast<const T*>(inline_storage_);
  }

  /// Moves `other`'s contents into this empty-and-inline vector: steals the
  /// heap block when there is one, relocates element-wise otherwise.
  void MoveFrom(SmallVector&& other) {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.size_ = 0;
      other.capacity_ = InlineCapacity;
    } else {
      std::uninitialized_move_n(other.InlineData(), other.size_,
                                InlineData());
      size_ = other.size_;
      other.clear();
    }
  }

  void Grow(size_t needed) {
    size_t new_capacity = capacity_ * 2;
    if (new_capacity < needed) new_capacity = needed;
    T* block = std::allocator<T>().allocate(new_capacity);
    std::uninitialized_move_n(data(), size_, block);
    std::destroy_n(data(), size_);
    if (heap_ != nullptr) {
      std::allocator<T>().deallocate(heap_, capacity_);
    }
    heap_ = block;
    capacity_ = new_capacity;
  }

  /// Destroys all elements and returns any heap block; leaves the vector in
  /// the empty inline state.
  void Deallocate() {
    std::destroy_n(data(), size_);
    if (heap_ != nullptr) {
      std::allocator<T>().deallocate(heap_, capacity_);
      heap_ = nullptr;
    }
    size_ = 0;
    capacity_ = InlineCapacity;
  }

  alignas(T) unsigned char inline_storage_[sizeof(T) * InlineCapacity];
  T* heap_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = InlineCapacity;
};

}  // namespace smb
