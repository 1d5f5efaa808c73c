// Task scheduler contracts (support/parallel.hpp):
//
//  1. Bitwise identity — trajectories, ledgers, and serialized traces are
//     byte-for-byte identical across threads {1,2,8} x {all-pairs, cutoff}
//     x {uniform, plummer} x fault model {off, on}. The scheduler may only
//     move *execution*, never a floating-point fold.
//  2. Zero allocation — a warmed parallel_tasks call, hinted or not,
//     performs no heap allocation (counted by a global operator-new hook).
//
// The clustered input honors CANB_CLUSTER_SEED (the CI matrix sweeps it):
// identity must hold for every seed, so any seed-dependent divergence in
// the scheduler shows up as a matrix failure, not a lucky pass.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "vmpi/trace.hpp"

// --- global allocation counter --------------------------------------------
// Replaceable global operator new/delete: every heap allocation in the
// process bumps the counter. The zero-alloc test snapshots it around a
// warmed task loop; nothing else runs concurrently in this binary.

static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// GCC can't see that the replaced operator new above is malloc-backed and
// flags free() as mismatched; in this TU it is the matching deallocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace canb;

std::uint64_t cluster_seed() {
  if (const char* env = std::getenv("CANB_CLUSTER_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<std::uint64_t>(v);
  }
  return 4242;
}

particles::Block make_input(const std::string& dist, int n, const particles::Box& box) {
  if (dist == "plummer") return particles::init_plummer(n, box, 0.1, cluster_seed(), 0.02);
  return particles::init_uniform(n, box, cluster_seed(), 0.02);
}

using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

struct RunOut {
  particles::Block traj;
  double clock = 0.0;
  std::uint64_t critical_bytes = 0;
  std::vector<double> rank_compute;
  std::string trace;
};

RunOut run_case(sim::Method method, const std::string& dist, int threads, bool fault) {
  Sim::Config cfg;
  cfg.method = method;
  cfg.machine = machine::laptop();
  cfg.p = 16;
  cfg.c = method == sim::Method::CaAllPairs ? 2 : 1;
  cfg.cutoff = method == sim::Method::CaCutoff ? 0.2 : 0.0;
  cfg.kernel = particles::InverseSquareRepulsion{1e-4, 1e-2};
  if (fault) {
    vmpi::FaultConfig fc;
    fc.seed = 77;
    fc.straggler_rate = 0.05;
    fc.jitter = 0.1;
    fc.drop_rate = 0.05;
    fc.link_degrade_rate = 0.1;
    cfg.fault = fc;
  }
  Sim simulation(cfg, make_input(dist, 160, cfg.box));
  vmpi::TraceRecorder trace;
  simulation.comm().set_trace(&trace);
  if (threads > 1) simulation.set_host_pool(std::make_shared<ThreadPool>(threads));
  simulation.run(3);

  RunOut out;
  out.traj = simulation.gather();
  out.clock = simulation.comm().max_clock();
  out.critical_bytes = simulation.comm().ledger().critical_bytes();
  for (int r = 0; r < simulation.comm().size(); ++r)
    out.rank_compute.push_back(
        simulation.comm().ledger().seconds(r, vmpi::Phase::Compute));
  out.trace = vmpi::serialize_trace(trace);
  return out;
}

::testing::AssertionResult bitwise_equal(const RunOut& got, const RunOut& want) {
  if (got.traj.size() != want.traj.size())
    return ::testing::AssertionFailure() << "particle count diverged";
  for (std::size_t i = 0; i < want.traj.size(); ++i) {
    const auto& a = got.traj[i];
    const auto& b = want.traj[i];
    // bit_cast: stricter than float ==, catches even a sign-of-zero flip.
    for (const auto& [x, y] : {std::pair{a.px, b.px}, std::pair{a.py, b.py},
                               std::pair{a.vx, b.vx}, std::pair{a.vy, b.vy},
                               std::pair{a.fx, b.fx}, std::pair{a.fy, b.fy}}) {
      if (std::bit_cast<std::uint32_t>(x) != std::bit_cast<std::uint32_t>(y))
        return ::testing::AssertionFailure()
               << "particle " << i << " diverged (" << x << " vs " << y << ")";
    }
  }
  if (std::bit_cast<std::uint64_t>(got.clock) != std::bit_cast<std::uint64_t>(want.clock))
    return ::testing::AssertionFailure() << "max_clock diverged";
  if (got.critical_bytes != want.critical_bytes)
    return ::testing::AssertionFailure() << "ledger critical_bytes diverged";
  if (got.rank_compute.size() != want.rank_compute.size())
    return ::testing::AssertionFailure() << "rank count diverged";
  for (std::size_t r = 0; r < want.rank_compute.size(); ++r) {
    if (std::bit_cast<std::uint64_t>(got.rank_compute[r]) !=
        std::bit_cast<std::uint64_t>(want.rank_compute[r]))
      return ::testing::AssertionFailure() << "rank " << r << " compute seconds diverged";
  }
  if (got.trace != want.trace)
    return ::testing::AssertionFailure() << "serialized trace diverged";
  return ::testing::AssertionSuccess();
}

using SchedulerCase = std::tuple<sim::Method, std::string, bool>;

class SchedulerBitwise : public ::testing::TestWithParam<SchedulerCase> {};

std::string scheduler_case_name(const ::testing::TestParamInfo<SchedulerCase>& param_info) {
  const auto& [method, dist, fault] = param_info.param;
  std::string name = method == sim::Method::CaAllPairs ? "AllPairs" : "Cutoff";
  name += "_" + dist + (fault ? "_faulted" : "");
  return name;
}

TEST_P(SchedulerBitwise, IdenticalAcrossModesAndThreads) {
  const auto [method, dist, fault] = GetParam();
  const RunOut baseline = run_case(method, dist, 1, fault);
  ASSERT_GT(baseline.traj.size(), 0u);
  for (const int threads : {2, 8}) {
    const RunOut got = run_case(method, dist, threads, fault);
    EXPECT_TRUE(bitwise_equal(got, baseline)) << "threads=" << threads << " dist=" << dist
                                              << " fault=" << fault
                                              << " seed=" << cluster_seed();
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndWorkloads, SchedulerBitwise,
    ::testing::Values(
        std::tuple{sim::Method::CaAllPairs, std::string("uniform"), false},
        std::tuple{sim::Method::CaAllPairs, std::string("plummer"), false},
        std::tuple{sim::Method::CaAllPairs, std::string("plummer"), true},
        std::tuple{sim::Method::CaCutoff, std::string("uniform"), false},
        std::tuple{sim::Method::CaCutoff, std::string("plummer"), false},
        std::tuple{sim::Method::CaCutoff, std::string("plummer"), true}),
    scheduler_case_name);

// --- zero allocation on the warmed task path ------------------------------

TEST(SchedulerAllocation, WarmedTaskPathAllocatesNothing) {
  ThreadPool pool(4);
  const int tasks = 96;
  std::vector<double> cost(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t)
    cost[static_cast<std::size_t>(t)] = (t % 7 == 0) ? 50.0 : 1.0;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(tasks), 0);
  const auto body = [&](int t, int) {
    out[static_cast<std::size_t>(t)] += static_cast<std::uint64_t>(t);
  };

  // Warm: first dispatch may fault in thread-local and libc state, and the
  // first hinted call sizes the pooled claim order.
  for (int i = 0; i < 4; ++i) pool.parallel_tasks(tasks, body, cost.data());

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) {
    pool.parallel_tasks(tasks, body, cost.data());
    pool.parallel_tasks(tasks, body);  // unhinted: index order
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "warmed parallel_tasks path heap-allocated "
                           << (after - before) << " times across 64 calls";

  std::uint64_t sum = 0;
  for (const auto v : out) sum += v;
  EXPECT_EQ(sum, 68ull * (static_cast<std::uint64_t>(tasks - 1) * tasks / 2));
}

}  // namespace
