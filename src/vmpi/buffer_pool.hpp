// BufferPool + DataPlane: the zero-allocation, host-parallel side of the
// vmpi data plane.
//
// A BufferPool is a recycling arena for the staging blocks of the
// communication primitives (primitives.hpp) and the spatial re-assignment
// loop (core/reassign.hpp): release() keeps a block's heap capacity
// (SoaBlock lanes keep their vectors, clear()ed to size zero) and acquire()
// hands it back, so after a warm-up step the hot path performs no heap
// allocation at all (pinned by tests/test_data_plane.cpp with a counting
// operator new).
//
// A DataPlane bundles the pool with the host ThreadPool the engines already
// use for force loops, so the primitives can also fan disjoint copies
// (broadcast replicas, staging copies, per-team route splits) across host
// threads. Everything here is HOST execution only: virtual-time charges are
// issued before any data moves, from particle counts alone, so nothing in
// this file can perturb a ledger, trace, or clock (see DESIGN.md, "host
// data plane vs. virtual cost model").
//
// Threading contract: acquire()/release() are called only from the serial
// orchestration thread (between parallel regions); worker threads only
// write into blocks that were acquired before the fan-out. The pool itself
// therefore needs no locks.
#pragma once

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/parallel.hpp"

namespace canb::vmpi {

/// Empties a block for reuse while keeping whatever heap capacity it holds.
/// Falls back to value-resetting types with no clear() (PhantomBlock).
template <class B>
void recycle(B& b) {
  if constexpr (requires { b.clear(); }) {
    b.clear();
  } else {
    b = B{};
  }
}

template <class B>
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pops a recycled block (empty, capacity intact) or default-constructs
  /// one when the pool is dry.
  B acquire() {
    if (blocks_.empty()) {
      ++fresh_;
      return B{};
    }
    ++reused_;
    B b = std::move(blocks_.back());
    blocks_.pop_back();
    return b;
  }

  /// Returns a block to the pool; its contents are discarded, its lane
  /// capacity is kept for the next acquire().
  void release(B&& b) {
    recycle(b);
    blocks_.push_back(std::move(b));
  }

  /// Pops a recycled vector of exactly n empty blocks. The vector shell and
  /// the blocks inside all come from the arena, so a steady-state caller
  /// (e.g. the per-round route lists in core/reassign.hpp) allocates
  /// nothing.
  std::vector<B> acquire_list(std::size_t n) {
    std::vector<B> list;
    if (!lists_.empty()) {
      list = std::move(lists_.back());
      lists_.pop_back();
    }
    while (list.size() > n) {
      release(std::move(list.back()));
      list.pop_back();
    }
    if (list.capacity() < n) list.reserve(n);
    while (list.size() < n) list.push_back(acquire());
    return list;
  }

  /// Returns a whole list; blocks are recycled in place (capacity kept
  /// inside the stored vector, ready for the next acquire_list).
  void release_list(std::vector<B>&& list) {
    for (auto& b : list) recycle(b);
    lists_.push_back(std::move(list));
  }

  /// Arena statistics for tests and diagnostics: how many acquires were
  /// served fresh (default-constructed) vs. from recycled capacity.
  std::uint64_t fresh_count() const noexcept { return fresh_; }
  std::uint64_t reused_count() const noexcept { return reused_; }
  /// Idle blocks currently held for acquire().
  std::size_t size() const noexcept { return blocks_.size(); }

 private:
  std::vector<B> blocks_;
  std::vector<std::vector<B>> lists_;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
};

/// The host-execution context the engines thread through the primitives:
/// one arena per engine plus the host worker pool for disjoint-destination
/// copies. Every data-moving primitive and reassign_spatial takes one; it
/// is the only way the host moves particles.
template <class B>
struct DataPlane {
  BufferPool<B> pool;
  ThreadPool* workers = nullptr;  ///< not owned; null or 1-thread = serial
  std::vector<int> ints;          ///< persistent int scratch (skew distances)

  /// Runs fn(chunk_begin, chunk_end) over [0, n), fanned across the host
  /// pool when one is attached (serial otherwise). fn must only touch
  /// disjoint per-index state — the callers copy into disjoint destination
  /// blocks, which is what keeps parallel execution bitwise identical to
  /// serial.
  template <class Fn>
  void for_chunks(int n, Fn&& fn) {
    if (workers != nullptr && workers->thread_count() > 1) {
      workers->for_each_chunk(0, n, fn);
    } else if (n > 0) {
      fn(0, n);
    }
  }
};

}  // namespace canb::vmpi
