// A lock-free, fixed-size, FIFO queue (paper §2.4: "The flushing queue is a
// lock-free, fixed-size, FIFO queue").
//
// Core: a Vyukov-style bounded MPMC ring with per-cell sequence numbers —
// TryPush/TryPop never take a lock.  On top, BlockingRingQueue adds
// semaphore-based blocking so that:
//   * a producer rank blocks when the queue is full (the paper's
//     back-pressure: "the MPI rank is blocked on the put operation until the
//     queue is available"), and
//   * the consumer (the compaction thread) sleeps while the
//     queue is empty instead of spinning.
//
// Snapshot() exposes the live contents for readers that must search the
// queued immutable MemTables newest-first (paper §2.6) — that path is served
// by the MemTable registry in core/, not by the queue itself, so the queue
// stays strictly FIFO.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <memory>
#include <semaphore>
#include <vector>

namespace papyrus {

template <typename T>
class RingQueue {
 public:
  // Capacity is rounded up to a power of two; must be >= 1.
  explicit RingQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Lock-free push; returns false when full.
  bool TryPush(T item) {
    Cell* cell;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t diff = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(item);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Lock-free pop; returns nullopt when empty.
  std::optional<T> TryPop() {
    Cell* cell;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    T out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  // Approximate occupancy (racy, for metrics only).
  size_t ApproxSize() const {
    size_t t = tail_.load(std::memory_order_relaxed);
    size_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? t - h : 0;
  }

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  // Pad to separate producer/consumer cursors onto distinct cache lines.
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) std::atomic<size_t> head_{0};
};

// RingQueue plus blocking semantics via counting semaphores.
template <typename T>
class BlockingRingQueue {
 public:
  explicit BlockingRingQueue(size_t capacity)
      : ring_(capacity),
        slots_(static_cast<ptrdiff_t>(ring_.capacity())),
        items_(0) {}

  size_t capacity() const { return ring_.capacity(); }

  // Blocks while the queue is full (paper's producer back-pressure).
  void Push(T item) {
    slots_.acquire();
    bool ok = ring_.TryPush(std::move(item));
    assert(ok);
    (void)ok;  // the acquired slot guarantees ring capacity
    items_.release();
  }

  bool TryPush(T item) {
    if (!slots_.try_acquire()) return false;
    bool ok = ring_.TryPush(std::move(item));
    assert(ok);
    (void)ok;  // the acquired slot guarantees ring capacity
    items_.release();
    return true;
  }

  // Blocks while empty.
  T Pop() {
    items_.acquire();
    auto v = ring_.TryPop();
    assert(v.has_value());
    slots_.release();
    return std::move(*v);
  }

  std::optional<T> TryPop() {
    if (!items_.try_acquire()) return std::nullopt;
    auto v = ring_.TryPop();
    assert(v.has_value());
    slots_.release();
    return v;
  }

  // Blocks up to rel_time; nullopt on timeout.  Consumers use this so they
  // can periodically re-check a shutdown flag.
  template <typename Rep, typename Period>
  std::optional<T> PopFor(std::chrono::duration<Rep, Period> rel_time) {
    if (!items_.try_acquire_for(rel_time)) return std::nullopt;
    auto v = ring_.TryPop();
    assert(v.has_value());
    slots_.release();
    return v;
  }

  size_t ApproxSize() const { return ring_.ApproxSize(); }

 private:
  RingQueue<T> ring_;
  std::counting_semaphore<> slots_;
  std::counting_semaphore<> items_;
};

}  // namespace papyrus
