// Host thread pool: correctness, determinism, and bitwise-identical
// engine results across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace {

using namespace canb;

// --- pool unit tests ------------------------------------------------------------

TEST(ThreadPool, SerialModeRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int sum = 0;
  pool.parallel_for(0, 100, [&](int i) { sum += i; });  // inline: no data race
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  std::mutex m;
  pool.parallel_for(5, 5, [&](int) {
    std::lock_guard<std::mutex> l(m);
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](int i) {
    std::lock_guard<std::mutex> l(m);
    calls += i;
  });
  EXPECT_EQ(calls, 7);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, [&](int i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50ll * (63 * 64 / 2));
}

TEST(ThreadPool, ChunkedVariantPartitionsContiguously) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<int, int>> chunks;
  pool.parallel_for_chunks(0, 103, [&](int b, int e) {
    std::lock_guard<std::mutex> l(m);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  int expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 103);
}

TEST(ThreadPool, RejectsThreadCountsOutsideTheCap) {
  // Rejected before any worker is spawned: nothing here starts a thread.
  EXPECT_THROW(ThreadPool pool(ThreadPool::kMaxThreads + 1), PreconditionError);
  EXPECT_THROW(ThreadPool pool(-1), PreconditionError);
}

// --- parallel_tasks: largest-first claims from a shared cursor -------------------

/// Hint shapes the engines can hand parallel_tasks: none, all zero, skewed,
/// and values the scheduler must read as 0 (negative, NaN, +-inf).
std::vector<std::vector<double>> hint_shapes(int tasks) {
  const auto n = static_cast<std::size_t>(tasks);
  std::vector<double> zeros(n, 0.0), skewed(n), bad(n);
  for (std::size_t t = 0; t < n; ++t) {
    skewed[t] = t % 7 == 0 ? 1e6 : static_cast<double>(t % 3);
    switch (t % 5) {
      case 0: bad[t] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: bad[t] = std::numeric_limits<double>::infinity(); break;
      case 2: bad[t] = -std::numeric_limits<double>::infinity(); break;
      case 3: bad[t] = -2.0; break;
      default: bad[t] = static_cast<double>(t); break;
    }
  }
  return {{}, zeros, skewed, bad};
}

/// The hint parallel_tasks claims by: bad values count as 0.
double effective_hint(const std::vector<double>& hints, int t) {
  if (hints.empty()) return 0.0;
  const double h = hints[static_cast<std::size_t>(t)];
  return h > 0.0 && h <= std::numeric_limits<double>::max() ? h : 0.0;
}

TEST(Scheduler, TasksRunExactlyOnceForEveryHintShape) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (const int tasks : {0, 1, threads - 1, threads + 1, 1000}) {
      for (const auto& hints : hint_shapes(tasks)) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(tasks));
        pool.parallel_tasks(
            tasks,
            [&](int t, int w) {
              ASSERT_GE(w, 0);
              ASSERT_LT(w, pool.thread_count());
              hits[static_cast<std::size_t>(t)]++;
            },
            hints.empty() ? nullptr : hints.data());
        for (const auto& h : hits)
          EXPECT_EQ(h.load(), 1) << "threads=" << threads << " tasks=" << tasks
                                 << " hinted=" << !hints.empty();
      }
    }
  }
}

// Each worker's claims are increasing cursor positions, so the tasks one
// worker runs must follow the claim order: hint descending, then index
// ascending. This holds however the claims interleave across workers.
TEST(Scheduler, EachWorkerClaimsLargestHintFirst) {
  const int tasks = 200;
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    for (const auto& hints : hint_shapes(tasks)) {
      std::vector<std::vector<int>> ran(static_cast<std::size_t>(threads));
      pool.parallel_tasks(
          tasks, [&](int t, int w) { ran[static_cast<std::size_t>(w)].push_back(t); },
          hints.empty() ? nullptr : hints.data());
      std::size_t total = 0;
      bool largest_claimed_first = false;
      int largest = 0;
      for (int t = 1; t < tasks; ++t)
        if (effective_hint(hints, t) > effective_hint(hints, largest)) largest = t;
      for (const auto& seq : ran) {
        total += seq.size();
        if (!seq.empty() && seq.front() == largest) largest_claimed_first = true;
        for (std::size_t i = 1; i < seq.size(); ++i) {
          const double prev = effective_hint(hints, seq[i - 1]);
          const double cur = effective_hint(hints, seq[i]);
          EXPECT_TRUE(prev > cur || (prev == cur && seq[i - 1] < seq[i]))
              << "threads=" << threads << " task " << seq[i] << " after " << seq[i - 1];
        }
      }
      EXPECT_EQ(total, static_cast<std::size_t>(tasks));
      EXPECT_TRUE(largest_claimed_first) << "threads=" << threads;
    }
  }
}

TEST(Scheduler, CostHintsCoverEveryTaskEvenWhenSkewed) {
  ThreadPool pool(4);
  // One giant task and a tail of tiny ones: every task still runs once.
  std::vector<double> cost(64, 1.0);
  cost[0] = 1e6;
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_tasks(
      64, [&](int t, int) { hits[static_cast<std::size_t>(t)]++; }, cost.data());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ZeroAndNegativeTaskCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_tasks(0, [&](int, int) { ++calls; });
  pool.parallel_tasks(-3, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Scheduler, StatsCountCallsTasksAndWorkers) {
  ThreadPool pool(2);
  pool.reset_scheduler_stats();
  for (int round = 0; round < 3; ++round)
    pool.parallel_tasks(100, [&](int, int) {});
  const SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.tasks, 300u);
  EXPECT_EQ(stats.steals, 0u);
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  std::uint64_t sum = 0;
  for (const auto t : stats.tasks_per_worker) sum += t;
  EXPECT_EQ(sum, 300u);
  ASSERT_EQ(stats.busy_seconds.size(), 2u);
  ASSERT_EQ(stats.idle_seconds.size(), 2u);

  pool.reset_scheduler_stats();
  const SchedulerStats zeroed = pool.scheduler_stats();
  EXPECT_EQ(zeroed.calls, 0u);
  EXPECT_EQ(zeroed.tasks, 0u);
}

// A worker that finds the cursor past the last task waits for the slowest
// one; that wait is idle time.
TEST(Scheduler, IdleCountsTheWaitForTheSlowestWorker) {
  ThreadPool pool(2);
  pool.reset_scheduler_stats();
  std::atomic<int> sleeper{-1};
  pool.parallel_tasks(2, [&](int task, int worker) {
    if (task == 0) {
      sleeper.store(worker);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  ASSERT_GE(sleeper.load(), 0);
  const SchedulerStats stats = pool.scheduler_stats();
  ASSERT_EQ(stats.idle_seconds.size(), 2u);
  const auto other = static_cast<std::size_t>(1 - sleeper.load());
  EXPECT_GE(stats.idle_seconds[other], 0.015);
  EXPECT_GE(stats.busy_seconds[static_cast<std::size_t>(sleeper.load())], 0.015);
}

// The TSan target: many rounds of skewed task lists over one pool, with
// per-task writes to disjoint slots and relaxed shared counters — exactly
// the access pattern the engines submit. A race on the cursor, the
// published call state, the dispatch flags or the stats counters shows up
// here.
TEST(Scheduler, CursorStressManyRoundsDisjointWrites) {
  ThreadPool pool(4);
  const int tasks = 257;
  std::vector<double> spiky(static_cast<std::size_t>(tasks)), rising(spiky.size());
  for (int t = 0; t < tasks; ++t) {
    spiky[static_cast<std::size_t>(t)] = (t % 17 == 0) ? 400.0 : 1.0;
    rising[static_cast<std::size_t>(t)] = static_cast<double>(t);
  }
  std::vector<std::uint64_t> out(static_cast<std::size_t>(tasks), 0);
  std::atomic<std::uint64_t> total{0};
  const double* const shapes[] = {spiky.data(), rising.data(), nullptr};
  for (int round = 0; round < 200; ++round) {
    for (const double* cost : shapes) {
      pool.parallel_tasks(
          tasks,
          [&](int t, int) {
            // Disjoint per-task slot plus a relaxed shared counter: the two
            // sanctioned communication patterns under the determinism
            // contract.
            out[static_cast<std::size_t>(t)] += static_cast<std::uint64_t>(t) + 1;
            total.fetch_add(1, std::memory_order_relaxed);
          },
          cost);
    }
  }
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(200 * 3 * tasks));
  for (int t = 0; t < tasks; ++t)
    EXPECT_EQ(out[static_cast<std::size_t>(t)], 600ull * (static_cast<std::uint64_t>(t) + 1));
}

// --- engine determinism across thread counts --------------------------------------

TEST(ThreadPool, EngineResultsBitwiseIdenticalAcrossThreadCounts) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const auto box = particles::Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(96, box, 123, 0.02);

  auto run_with = [&](int threads) {
    Policy policy({box, particles::InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
    core::CaAllPairs<Policy> engine({16, 2, machine::laptop()}, std::move(policy),
                                    decomp::split_even(init, 8));
    if (threads > 1) engine.set_host_pool(std::make_shared<ThreadPool>(threads));
    engine.run(5);
    auto all = decomp::concat(engine.team_results());
    particles::sort_by_id(all);
    return all;
  };

  const auto serial = run_with(1);
  for (int threads : {2, 4}) {
    const auto parallel = run_with(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bitwise: each virtual rank's arithmetic is untouched by threading.
      EXPECT_EQ(parallel[i].px, serial[i].px) << i;
      EXPECT_EQ(parallel[i].py, serial[i].py) << i;
      EXPECT_EQ(parallel[i].vx, serial[i].vx) << i;
      EXPECT_EQ(parallel[i].fx, serial[i].fx) << i;
    }
  }
}

TEST(ThreadPool, LedgerIdenticalAcrossThreadCounts) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const auto box = particles::Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(64, box, 9, 0.0);

  auto run_with = [&](int threads) {
    Policy policy({box, particles::InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
    core::CaAllPairs<Policy> engine({16, 4, machine::laptop()}, std::move(policy),
                                    decomp::split_even(init, 4));
    if (threads > 1) engine.set_host_pool(std::make_shared<ThreadPool>(threads));
    engine.step();
    return std::pair{engine.comm().max_clock(), engine.comm().ledger().critical_bytes()};
  };
  const auto [clock1, bytes1] = run_with(1);
  const auto [clock4, bytes4] = run_with(4);
  EXPECT_EQ(clock1, clock4);
  EXPECT_EQ(bytes1, bytes4);
}

}  // namespace
