// Host-side shared-memory parallelism: a small persistent thread pool with
// one task discipline behind one blocking API.
//
// The virtual ranks of a simulation are independent within each engine
// phase (per-rank buffers, per-rank ledger rows), so the hot per-rank
// loops parallelize across host threads without changing results: each
// virtual rank's arithmetic stays sequential, so floating-point sums are
// bitwise identical to the serial execution (tests assert this).
//
// Determinism contract for the task scheduler: the scheduler may choose
// which worker *executes* a task and when, but it must never reorder a
// floating-point *fold*. Every task therefore accumulates into state that
// is private to that task (a disjoint buffer slice, a per-task partial that
// the caller reduces in fixed task-index order) — never into a shared
// accumulator whose fold order would depend on execution order. Under that
// contract trajectories, force lanes, CostLedger fields and golden traces
// are bitwise identical across any thread count (tests/test_scheduler.cpp
// pins this).
//
// The discipline: each parallel_tasks call orders its tasks by descending
// cost hint (ties, and calls without hints, in index order), and every
// worker, the calling thread included, claims the next task from one
// shared atomic cursor until none are left. Largest-first keeps a long
// task from starting last; claiming one task at a time absorbs the error
// of hints that count pairs rather than time. The order is sorted in place
// in a pooled index vector, so a warmed call performs zero heap
// allocations. A pool of one thread runs the tasks inline in index order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace canb {

/// The pool's one task discipline (see the header comment). Kept as a type
/// because perfbench names it (Simulation::Config::sched, set_sched_mode).
enum class SchedMode { kLargestFirst };

const char* to_string(SchedMode mode) noexcept;

/// Cumulative scheduler accounting since construction (or the last
/// reset_scheduler_stats). Counters are written with relaxed atomics by
/// the owning worker only; read them between calls, not mid-call.
struct SchedulerStats {
  std::uint64_t calls = 0;   ///< parallel_tasks invocations
  std::uint64_t tasks = 0;   ///< tasks executed (all workers)
  std::uint64_t steals = 0;  ///< always 0 (nothing is stolen); perfbench reads it
  std::vector<std::uint64_t> tasks_per_worker;
  std::vector<double> busy_seconds;  ///< per worker, time inside task bodies
  /// per worker, summed over parallel_tasks calls: the call's wall minus
  /// the worker's busy time (claims and the wait for the slowest worker
  /// both count)
  std::vector<double> idle_seconds;
};

class ThreadPool {
 public:
  /// Largest thread count a pool accepts. More is a usage error, caught
  /// before any thread starts rather than by running out of threads.
  static constexpr int kMaxThreads = 512;

  /// Spawns `threads` - 1 workers; the calling thread is the last one.
  /// 0 or 1 means "serial": no threads spawn and every dispatch runs
  /// inline. Throws PreconditionError outside [0, kMaxThreads] before
  /// spawning anything. If a spawn fails, the workers already started
  /// are stopped and joined before the error propagates.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// No-op: there is one discipline. Kept because perfbench calls it.
  void set_sched_mode(SchedMode) noexcept {}
  /// No-op: nothing is stolen. Kept because perfbench names it.
  void set_steal_grain(int) noexcept {}

  /// Runs fn(i) for every i in [begin, end), split into contiguous chunks
  /// across the pool plus the calling thread. Blocks until all complete.
  /// fn must not throw (engine loops are noexcept by construction).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) — lets hot loops hoist
  /// per-chunk setup out of the per-index body. Always equal contiguous
  /// chunks (the data plane's lane copies are uniform).
  void parallel_for_chunks(int begin, int end, const std::function<void(int, int)>& fn);

  /// Allocation-free chunked dispatch: type-erases the callable as a plain
  /// (function pointer, context) pair instead of a std::function, so hot
  /// per-step call sites (the vmpi data plane, the engine force loops) pay
  /// no heap allocation when the closure outgrows std::function's inline
  /// buffer. The callable must outlive the (blocking) call — always true
  /// for the stack lambdas these loops use.
  template <class Fn>
  void for_each_chunk(int begin, int end, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_chunks(
        begin, end,
        [](void* ctx, int b, int e) { (*static_cast<F*>(ctx))(b, e); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Task-list dispatch: runs fn(task, worker) exactly once for every task
  /// in [0, tasks). `worker` is a stable index in [0, thread_count())
  /// (0 = the calling thread) so task bodies can address per-worker
  /// scratch. `cost` (optional, length `tasks`) are relative per-task cost
  /// hints — e.g. the CA engines' per-rank block-pair sizes. Tasks are
  /// claimed largest hint first; a negative, NaN or infinite hint counts
  /// as 0. Allocation-free once warmed. fn must not throw and must honor
  /// the determinism contract in the header comment.
  template <class Fn>
  void parallel_tasks(int tasks, Fn&& fn, const double* cost = nullptr) {
    using F = std::remove_reference_t<Fn>;
    run_tasks(
        tasks,
        [](void* ctx, int task, int worker) { (*static_cast<F*>(ctx))(task, worker); },
        const_cast<void*>(static_cast<const void*>(&fn)), cost);
  }

  /// Snapshot of the cumulative scheduler counters (quiescent pool only).
  SchedulerStats scheduler_stats() const;
  void reset_scheduler_stats();

 private:
  /// The erased forms all dispatch funnels through.
  using RawChunkFn = void (*)(void* ctx, int begin, int end);
  using RawTaskFn = void (*)(void* ctx, int task, int worker);

  struct Task {
    RawChunkFn fn = nullptr;
    void* ctx = nullptr;
    int begin = 0;
    int end = 0;
  };

  /// Per-worker scheduler accounting, relaxed atomics written by the
  /// owning worker during a drain (idle_ns by the calling thread once the
  /// call's workers are done).
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    /// Busy time of the current call, published under mutex_ with pending_.
    std::uint64_t call_busy_ns = 0;
  };

  void run_chunks(int begin, int end, RawChunkFn fn, void* ctx);
  void run_tasks(int tasks, RawTaskFn fn, void* ctx, const double* cost);
  /// Claims tasks from the cursor until none are left.
  void drain_tasks(int worker);
  void worker_loop(std::size_t index);
  /// Wakes every worker with stopping_ set and joins it.
  void stop_workers() noexcept;

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<Task> tasks_;      // one slot per worker (chunk dispatch)
  std::size_t generation_ = 0;   // bumped per dispatch
  std::size_t pending_ = 0;      // workers still running this generation
  bool stopping_ = false;

  // The current parallel_tasks call, published to the workers under mutex_.
  RawTaskFn task_fn_ = nullptr;
  void* task_ctx_ = nullptr;
  bool task_dispatch_ = false;       // workers: claim tasks vs run chunk slot
  int task_count_ = 0;
  const int* task_order_ = nullptr;  // claim position -> task; null = index order
  std::vector<int> order_;           // pooled storage behind task_order_
  std::vector<WorkerStats> stats_;   // sized thread_count() at construction
  std::atomic<std::uint64_t> calls_{0};
  /// Next claim position of the current call; alone on its cache line,
  /// since every claim writes it.
  alignas(64) std::atomic<int> cursor_{0};
};

}  // namespace canb
