// Host-side shared-memory parallelism: a small persistent thread pool with
// two dispatch disciplines — static contiguous chunking and a work-stealing
// task scheduler — behind one blocking API.
//
// The virtual ranks of a simulation are independent within each engine
// phase (per-rank buffers, per-rank ledger rows), so the hot per-rank
// loops parallelize across host threads without changing results: each
// virtual rank's arithmetic stays sequential, so floating-point sums are
// bitwise identical to the serial execution (tests assert this).
//
// Determinism contract for the work-stealing scheduler: stealing may
// reorder which worker *executes* a task and when, but it must never
// reorder a floating-point *fold*. Every task therefore accumulates into
// state that is private to that task (a disjoint buffer slice, a per-task
// partial that the caller reduces in fixed task-index order) — never into
// a shared accumulator whose fold order would depend on execution order.
// Under that contract trajectories, force lanes, CostLedger fields and
// golden traces are bitwise identical across {static, stealing} x any
// thread count (tests/test_scheduler.cpp pins this).
//
// Design notes: per-worker deques are mutex-striped contiguous index
// ranges (owner pops the front in ascending order, thieves clip batches
// off the back), pooled at construction so a warmed parallel_tasks call
// performs zero heap allocations; victim selection uses a per-worker
// Xoshiro256 stream reseeded at every call, so steal probe sequences are
// a pure function of (worker, seed) and runs are reproducible; static
// mode and thread counts <= 1 keep the old serial/contiguous fast paths
// so the default configuration costs nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace canb {

/// How parallel_tasks distributes a task list over the pool.
///  * kStatic: contiguous index chunks, one per worker, no migration —
///    exactly the PR 2 discipline (predictable, zero scheduling overhead).
///  * kStealing: cost-hinted contiguous initial partition + randomized
///    work stealing, for workloads whose per-task cost is data-driven
///    (clustered cutoff cells, skewed rank histograms).
enum class SchedMode { kStatic, kStealing };

const char* to_string(SchedMode mode) noexcept;
std::optional<SchedMode> parse_sched_mode(std::string_view name) noexcept;

/// Cumulative scheduler accounting since construction (or the last
/// reset_scheduler_stats). Counters are written with relaxed atomics by
/// the owning worker only; read them between calls, not mid-call.
struct SchedulerStats {
  std::uint64_t calls = 0;   ///< parallel_tasks invocations
  std::uint64_t tasks = 0;   ///< tasks executed (all workers)
  std::uint64_t steals = 0;  ///< tasks executed by a non-assigned worker
  std::vector<std::uint64_t> tasks_per_worker;
  std::vector<double> busy_seconds;  ///< per worker, time inside task bodies
  /// per worker, summed over parallel_tasks calls: the call's wall minus
  /// the worker's busy time (steal probes and the wait for the slowest
  /// worker both count)
  std::vector<double> idle_seconds;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 or 1 means "serial": no threads spawn and
  /// parallel_for degenerates to a plain loop. `steal_seed` seeds the
  /// per-worker victim-selection RNG streams (any fixed value reproduces
  /// the same probe sequences).
  explicit ThreadPool(int threads, std::uint64_t steal_seed = 0x9e3779b97f4a7c15ull);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Scheduler discipline for parallel_tasks. Default kStatic: opting into
  /// stealing is an explicit choice (CLI --sched, HostTuner calibration).
  void set_sched_mode(SchedMode mode) noexcept { mode_ = mode; }
  SchedMode sched_mode() const noexcept { return mode_; }

  /// Max tasks a thief clips off a victim's deque per successful steal.
  /// Clamped to >= 1. Larger grains amortize the steal lock over more
  /// tasks; grain 1 balances best when per-task cost is wildly skewed.
  void set_steal_grain(int grain) noexcept { steal_grain_ = grain < 1 ? 1 : grain; }
  int steal_grain() const noexcept { return steal_grain_; }

  /// Runs fn(i) for every i in [begin, end), split into contiguous chunks
  /// across the pool plus the calling thread. Blocks until all complete.
  /// fn must not throw (engine loops are noexcept by construction).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) — lets hot loops hoist
  /// per-chunk setup out of the per-index body. Always static (the data
  /// plane's lane copies are uniform; stealing lives in parallel_tasks).
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
  /// in [0, tasks), distributed according to sched_mode(). `worker` is a
  /// stable index in [0, thread_count()) (0 = the calling thread) so task
  /// bodies can address per-worker scratch. `cost` (optional, length
  /// `tasks`) are relative per-task cost hints — e.g. the CA engines'
  /// per-rank block-pair sizes — used to cost-weight the initial
  /// contiguous partition under kStealing; kStatic ignores them and
  /// reproduces the historical equal-index chunks. Allocation-free once
  /// warmed. fn must not throw and must honor the determinism contract in
  /// the header comment.
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

  /// One worker's deque: a mutex-striped window [head, tail) into the
  /// global task index space. The owner pops head (ascending, serial
  /// order); thieves clip up to steal_grain_ tasks off tail. Pooled —
  /// no per-call allocation.
  struct alignas(64) WorkerQueue {
    std::mutex m;
    int head = 0;
    int tail = 0;
  };

  /// Per-worker scheduler accounting, relaxed atomics written by the
  /// owning worker during a drain (idle_ns by the calling thread once the
  /// call's workers are done).
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    /// Busy time of the current call, published under mutex_ with pending_.
    std::uint64_t call_busy_ns = 0;
  };

  void run_chunks(int begin, int end, RawChunkFn fn, void* ctx);
  void run_tasks(int tasks, RawTaskFn fn, void* ctx, const double* cost);
  void drain_tasks(int worker);
  /// Clips a batch off some victim's deque into [*b, *e). Returns false
  /// when a full scan of every other deque found them all empty.
  bool try_steal(int worker, int* b, int* e);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<Task> tasks_;      // one slot per worker (chunk dispatch)
  std::size_t generation_ = 0;   // bumped per dispatch
  std::size_t pending_ = 0;      // workers still running this generation
  bool stopping_ = false;

  // Work-stealing state (sized thread_count() at construction; pooled).
  SchedMode mode_ = SchedMode::kStatic;
  int steal_grain_ = 1;
  std::uint64_t steal_seed_;
  RawTaskFn task_fn_ = nullptr;    // current parallel_tasks op
  void* task_ctx_ = nullptr;
  bool task_dispatch_ = false;     // workers: drain deques vs run chunk slot
  bool stealing_run_ = false;      // current op steals (vs static tasks)
  std::vector<WorkerQueue> queues_;
  std::vector<WorkerStats> stats_;
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace canb
