// The host data-plane acceptance contract (vmpi/buffer_pool.hpp,
// primitives.hpp, core/reassign.hpp):
//
//  1. The pooled, host-parallel data plane changes NOTHING observable:
//     trajectories, per-phase ledger fields, and full message traces are
//     bitwise identical to the legacy serial/allocating host path, across
//     engines, host thread counts, and under an active PerturbationModel.
//  2. After warm-up, the primitives' hot path performs zero heap
//     allocations (counted with a global operator new hook).
//  3. The BufferPool actually recycles capacity, and SoaBlock::assign_from
//     preserves destination capacity (the documented guarantee).
//  4. Host-phase wall seconds surface as gauges at --obs-level=metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "machine/presets.hpp"
#include "obs/telemetry.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "tests/parity.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook: every global new in this binary bumps a counter.
// The steady-state tests snapshot it around a hot-path region and assert a
// zero delta. Counting (not banning) keeps gtest and setup code unaffected.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs the malloc-backed replacement operator new with the library's
// free and flags a mismatch; the pairing is exactly what the replacement
// defines, so the warning is spurious in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace canb;
using namespace canb::parity;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;
using particles::SoaBlock;

constexpr int kSteps = 3;

// --- the pooled-vs-legacy property matrix ----------------------------------

struct Arm {
  bool pooled = true;
  int threads = 1;
};

Sim make_sim(sim::Method method, double cutoff, bool fault, const Arm& arm) {
  Sim::Config cfg;
  cfg.method = method;
  cfg.p = method == sim::Method::CaCutoff ? 32 : 16;
  cfg.c = method == sim::Method::SpatialHalo ? 1 : 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = cutoff;
  cfg.dt = 1e-4;
  cfg.pooled_data_plane = arm.pooled;
  if (fault) {
    vmpi::FaultConfig fc;
    fc.seed = 4242;
    fc.straggler_rate = 0.05;
    fc.jitter = 0.1;
    fc.drop_rate = 0.02;
    fc.link_degrade_rate = 0.1;
    cfg.fault = fc;
  }
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  if (arm.threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(arm.threads));
  return s;
}

RunResult run_arm(sim::Method method, double cutoff, bool fault, const Arm& arm) {
  auto s = make_sim(method, cutoff, fault, arm);
  return run_traced(s, kSteps);
}

void run_matrix(sim::Method method, double cutoff, bool fault) {
  // Reference: the legacy serial host path on one thread — the exact
  // pre-data-plane behavior.
  const auto want = run_arm(method, cutoff, fault, {/*pooled=*/false, /*threads=*/1});
  const Arm arms[] = {{true, 1}, {true, 2}, {true, 8}, {false, 8}};
  for (const Arm& arm : arms) {
    SCOPED_TRACE(::testing::Message() << (arm.pooled ? "pooled" : "legacy") << " plane, "
                                      << arm.threads << " threads");
    expect_run_equal(run_arm(method, cutoff, fault, arm), want);
  }
}

TEST(DataPlaneBitwise, CaAllPairs) { run_matrix(sim::Method::CaAllPairs, 0.0, false); }

TEST(DataPlaneBitwise, CaCutoff) { run_matrix(sim::Method::CaCutoff, 0.12, false); }

TEST(DataPlaneBitwise, CaAllPairsUnderFaultInjection) {
  run_matrix(sim::Method::CaAllPairs, 0.0, true);
}

TEST(DataPlaneBitwise, CaCutoffUnderFaultInjection) {
  run_matrix(sim::Method::CaCutoff, 0.12, true);
}

TEST(DataPlaneBitwise, SpatialHaloReassign) {
  // The halo baseline shares reassign_spatial; cover its pooled arm too.
  const auto want = run_arm(sim::Method::SpatialHalo, 0.12, false, {false, 1});
  expect_run_equal(run_arm(sim::Method::SpatialHalo, 0.12, false, {true, 1}), want);
}

// --- BufferPool / SoaBlock capacity units ----------------------------------

SoaBlock filled_block(int n, float x0 = 0.25f) {
  SoaBlock b;
  for (int i = 0; i < n; ++i) {
    particles::Particle p;
    p.px = x0;
    p.py = 0.5f;
    p.id = i;
    p.mass = 1.0f;
    p.charge = 1.0f;
    b.push_back(p);
  }
  return b;
}

TEST(BufferPool, RecyclesCapacity) {
  vmpi::BufferPool<SoaBlock> pool;
  auto b = pool.acquire();
  EXPECT_EQ(pool.fresh_count(), 1u);
  for (int i = 0; i < 64; ++i) b.push_back(particles::Particle{});
  const auto cap = b.px.capacity();
  pool.release(std::move(b));
  auto b2 = pool.acquire();
  EXPECT_EQ(pool.reused_count(), 1u);
  EXPECT_EQ(b2.size(), 0u) << "recycled blocks come back empty";
  EXPECT_GE(b2.px.capacity(), cap) << "recycled blocks keep their lane capacity";
}

TEST(BufferPool, AcquireListReusesShellsAndBlocks) {
  vmpi::BufferPool<SoaBlock> pool;
  auto list = pool.acquire_list(8);
  ASSERT_EQ(list.size(), 8u);
  for (auto& b : list) b.push_back(particles::Particle{});
  pool.release_list(std::move(list));
  const auto fresh_before = pool.fresh_count();
  g_alloc_count.store(0);
  auto list2 = pool.acquire_list(8);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "steady-state acquire_list must not allocate";
  EXPECT_EQ(pool.fresh_count(), fresh_before) << "no fresh blocks on a warm pool";
  ASSERT_EQ(list2.size(), 8u);
  for (const auto& b : list2) EXPECT_EQ(b.size(), 0u);
  pool.release_list(std::move(list2));
}

TEST(SoaBlockAssign, AssignFromPreservesCapacityAndBits) {
  const auto src = filled_block(48);
  SoaBlock dst = filled_block(48, 0.75f);
  g_alloc_count.store(0);
  dst.assign_from(src);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "same-size assign_from must reuse capacity";
  ASSERT_EQ(dst.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.id[i], src.id[i]);
    EXPECT_TRUE(bits_equal(dst.px[i], src.px[i]));
  }
}

// --- zero-allocation steady state over the primitives hot path -------------

TEST(DataPlaneSteadyState, PrimitivesHotPathAllocatesNothing) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const int p = 16;
  const int c = 4;
  const auto g = vmpi::Grid2d::make(p, c);
  const int q = g.cols();
  vmpi::VirtualComm vc(p, machine::hopper());
  vmpi::DataPlane<SoaBlock> plane;  // no worker pool: serial fan-out

  // One resident block per leader: particles pinned to the center of team
  // t's 1D segment, so the re-assignment split finds no movers and the
  // route lists stay empty (the steady-state case for sane timesteps).
  const auto geom = core::CutoffGeometry::make_1d(q, 1);
  const auto box = particles::Box::reflective_2d(1.0);
  Policy policy(Policy::Config{box, {1e-4, 1e-2}, 0.25, 1e-4});
  std::vector<SoaBlock> bufs(static_cast<std::size_t>(p));
  for (int t = 0; t < q; ++t)
    bufs[static_cast<std::size_t>(g.leader(t))] =
        filled_block(32, (static_cast<float>(t) + 0.5f) / static_cast<float>(q));
  std::vector<SoaBlock> staged(static_cast<std::size_t>(p));
  std::vector<SoaBlock> scratch;
  std::vector<int> perm(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) perm[static_cast<std::size_t>(r)] = (r + q) % p;

  auto one_iteration = [&] {
    vmpi::broadcast_teams(vc, g, bufs, &Policy::bytes, vmpi::Phase::Broadcast, &plane);
    vmpi::stage_buffers(
        vc, bufs, staged,
        [](int, SoaBlock& dst, const SoaBlock& src) { vmpi::detail::assign_visitor(dst, src); },
        &plane);
    vmpi::skew_rows(vc, g, [](int row) { return row; }, staged, &Policy::bytes,
                    vmpi::Phase::Skew, &plane.ints);
    vmpi::shift_rows(vc, g, 1, staged, &Policy::bytes);
    vmpi::permute_buffers(vc, [&](int r) { return perm[static_cast<std::size_t>(r)]; }, staged,
                          scratch, &Policy::bytes, vmpi::Phase::Shift);
    vmpi::reduce_teams(vc, g, bufs, &Policy::bytes, core::TeamCombine<Policy>{},
                       vmpi::Phase::Reduce, &plane);
    core::reassign_spatial(vc, g, geom, policy, bufs, vc.model(), &plane);
  };

  for (int i = 0; i < 3; ++i) one_iteration();  // warm-up: grow every capacity

  g_alloc_count.store(0);
  for (int i = 0; i < 5; ++i) one_iteration();
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "primitives hot path must be allocation-free after warm-up";
}

// --- host-phase gauges ------------------------------------------------------

TEST(DataPlaneObservability, HostPhaseSecondsSurfaceAsGauges) {
  Sim::Config cfg;
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 16;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.dt = 1e-4;
  cfg.obs = obs::ObsLevel::Metrics;
  Sim s(cfg, particles::init_uniform(128, cfg.box, 2013, 0.01));
  s.run(2);
  s.finalize_telemetry();
  const auto& families = s.telemetry()->metrics().families();
  const auto it = families.find("canb_host_phase_seconds");
  ASSERT_NE(it, families.end()) << "host-phase gauge family missing at metrics level";
  EXPECT_FALSE(it->second.series.empty());
}

}  // namespace
