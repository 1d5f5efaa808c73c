#include "support/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <string>

#include "support/assert.hpp"

namespace canb {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

const char* to_string(SchedMode) noexcept { return "largest-first"; }

ThreadPool::ThreadPool(int threads) {
  CANB_REQUIRE(threads >= 0 && threads <= kMaxThreads,
               "thread count must be in [0, " + std::to_string(kMaxThreads) + "]");
  const int extra = threads <= 1 ? 0 : threads - 1;  // caller thread works too
  tasks_.resize(static_cast<std::size_t>(extra));
  stats_ = std::vector<WorkerStats>(static_cast<std::size_t>(extra) + 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  try {
    for (int i = 0; i < extra; ++i)
      workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  } catch (...) {
    // Destroying a joinable std::thread terminates the process: join the
    // workers that did start, then report the failed spawn.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  std::size_t seen = 0;
  for (;;) {
    Task task;
    bool task_dispatch = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      task_dispatch = task_dispatch_;
      if (!task_dispatch) task = tasks_[index];
    }
    if (task_dispatch) {
      drain_tasks(static_cast<int>(index) + 1);
    } else if (task.fn && task.begin < task.end) {
      task.fn(task.ctx, task.begin, task.end);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_chunks(int begin, int end, RawChunkFn fn, void* ctx) {
  if (end <= begin) return;
  if (workers_.empty()) {
    fn(ctx, begin, end);
    return;
  }
  const int parts = static_cast<int>(workers_.size()) + 1;
  const int total = end - begin;
  const int chunk = (total + parts - 1) / parts;
  int next = begin + chunk;  // [begin, next) runs on the calling thread
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_dispatch_ = false;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const int b = std::min(end, next + static_cast<int>(i) * chunk);
      const int e = std::min(end, b + chunk);
      tasks_[i] = {fn, ctx, b, e};
    }
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  fn(ctx, begin, std::min(end, next));
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::run_tasks(int tasks, RawTaskFn fn, void* ctx, const double* cost) {
  if (tasks <= 0) return;
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < tasks; ++t) fn(ctx, t, 0);
    const auto t1 = std::chrono::steady_clock::now();
    stats_[0].tasks.fetch_add(static_cast<std::uint64_t>(tasks), std::memory_order_relaxed);
    stats_[0].busy_ns.fetch_add(elapsed_ns(t0, t1), std::memory_order_relaxed);
    return;
  }

  // A worker's idle time in this call is the call's wall minus its busy
  // time: the wait after the cursor runs dry counts, not only the claims.
  const auto call_start = std::chrono::steady_clock::now();

  // Claim order: descending hint, ties by ascending index. Clamping bad
  // hints to 0 keeps the comparator a strict weak ordering. std::sort
  // works in place, so a warmed call allocates nothing (stable_sort would
  // take a temporary buffer).
  const int* order = nullptr;
  if (cost != nullptr) {
    order_.resize(static_cast<std::size_t>(tasks));
    std::iota(order_.begin(), order_.end(), 0);
    const auto hint = [cost](int t) {
      const double h = cost[t];
      return h > 0.0 && h <= std::numeric_limits<double>::max() ? h : 0.0;
    };
    std::sort(order_.begin(), order_.end(), [&hint](int a, int b) {
      const double ha = hint(a);
      const double hb = hint(b);
      return ha != hb ? ha > hb : a < b;
    });
    order = order_.data();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_dispatch_ = true;
    task_fn_ = fn;
    task_ctx_ = ctx;
    task_count_ = tasks;
    task_order_ = order;
    cursor_.store(0, std::memory_order_relaxed);
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  drain_tasks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  task_dispatch_ = false;
  // Every worker's call_busy_ns was written before it released mutex_.
  const std::uint64_t wall = elapsed_ns(call_start, std::chrono::steady_clock::now());
  for (WorkerStats& ws : stats_)
    ws.idle_ns.fetch_add(wall > ws.call_busy_ns ? wall - ws.call_busy_ns : 0,
                         std::memory_order_relaxed);
}

void ThreadPool::drain_tasks(int worker) {
  // The call's state was published under mutex_ before this worker woke.
  const RawTaskFn fn = task_fn_;
  void* const ctx = task_ctx_;
  const int count = task_count_;
  const int* const order = task_order_;
  std::uint64_t busy = 0, ran = 0;
  for (int k = cursor_.fetch_add(1, std::memory_order_relaxed); k < count;
       k = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    const int task = order != nullptr ? order[k] : k;
    const auto t0 = std::chrono::steady_clock::now();
    fn(ctx, task, worker);
    busy += elapsed_ns(t0, std::chrono::steady_clock::now());
    ++ran;
  }
  WorkerStats& ws = stats_[static_cast<std::size_t>(worker)];
  ws.tasks.fetch_add(ran, std::memory_order_relaxed);
  ws.busy_ns.fetch_add(busy, std::memory_order_relaxed);
  ws.call_busy_ns = busy;
}

SchedulerStats ThreadPool::scheduler_stats() const {
  SchedulerStats out;
  out.calls = calls_.load(std::memory_order_relaxed);
  out.tasks_per_worker.resize(stats_.size());
  out.busy_seconds.resize(stats_.size());
  out.idle_seconds.resize(stats_.size());
  for (std::size_t w = 0; w < stats_.size(); ++w) {
    const std::uint64_t t = stats_[w].tasks.load(std::memory_order_relaxed);
    out.tasks_per_worker[w] = t;
    out.tasks += t;
    out.busy_seconds[w] =
        static_cast<double>(stats_[w].busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    out.idle_seconds[w] =
        static_cast<double>(stats_[w].idle_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

void ThreadPool::reset_scheduler_stats() {
  calls_.store(0, std::memory_order_relaxed);
  for (auto& ws : stats_) {
    ws.tasks.store(0, std::memory_order_relaxed);
    ws.busy_ns.store(0, std::memory_order_relaxed);
    ws.idle_ns.store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for_chunks(int begin, int end,
                                     const std::function<void(int, int)>& fn) {
  for_each_chunk(begin, end, [&fn](int b, int e) { fn(b, e); });
}

void ThreadPool::parallel_for(int begin, int end, const std::function<void(int)>& fn) {
  parallel_for_chunks(begin, end, [&](int b, int e) {
    for (int i = b; i < e; ++i) fn(i);
  });
}

}  // namespace canb
