// Kernel-generic engine coverage: every force kernel through the CA
// engines against the serial reference (typed test over the kernel set) —
// the scalar AoS reference and the batched span engine both — plus the
// Batched-vs-Scalar span-engine parity suite: forces must agree within
// 1e-5 relative error and InteractionCount must be bitwise equal for every
// kernel across cutoff/boundary/self-interaction cases — the batched
// engine may only change host time, never physics or the ledger. The
// resident sweep's own bitwise suite is test_force_sweep.
#include <gtest/gtest.h>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/batched_engine.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "particles/reference.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace canb;
using particles::Block;
using particles::Box;

// Per-kernel parameters chosen so forces are O(1) at typical spacings.
template <class K>
K make_kernel();
template <>
particles::InverseSquareRepulsion make_kernel() {
  return {1e-4, 1e-2};
}
template <>
particles::Gravity make_kernel() {
  return {1e-4, 1e-2};
}
template <>
particles::LennardJones make_kernel() {
  return {1e-6, 0.05};
}
template <>
particles::Yukawa make_kernel() {
  return {1e-3, 0.1, 1e-2};
}
template <>
particles::Morse make_kernel() {
  return {1e-4, 8.0, 0.1};
}
template <>
particles::SoftSphere make_kernel() {
  return {5.0, 0.06};
}

template <class K>
class KernelEngines : public ::testing::Test {};

using AllKernels =
    ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity,
                     particles::LennardJones, particles::Yukawa, particles::Morse,
                     particles::SoftSphere>;

class KernelNames {
 public:
  template <class K>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<K, particles::InverseSquareRepulsion>) return "InverseSquare";
    if constexpr (std::is_same_v<K, particles::Gravity>) return "Gravity";
    if constexpr (std::is_same_v<K, particles::LennardJones>) return "LennardJones";
    if constexpr (std::is_same_v<K, particles::Yukawa>) return "Yukawa";
    if constexpr (std::is_same_v<K, particles::Morse>) return "Morse";
    if constexpr (std::is_same_v<K, particles::SoftSphere>) return "SoftSphere";
    return "Unknown";
  }
};

TYPED_TEST_SUITE(KernelEngines, AllKernels, KernelNames);

// --- Batched vs Scalar parity ----------------------------------------------

// Runs one block-block sweep with both engines on identical inputs and
// checks force agreement (<= 1e-5 relative) plus bitwise-equal counts.
template <class K>
void expect_engine_parity(const Box& box, double cutoff, bool self_interaction,
                          std::uint64_t seed) {
  const K kernel = make_kernel<K>();
  auto targets_scalar = particles::init_uniform(96, box, seed);
  // Self-interaction: the visiting block is a copy of the resident block
  // (same ids), exactly what a CA engine's same_block step produces.
  auto sources = self_interaction ? targets_scalar : particles::init_uniform(96, box, seed + 1);
  if (!self_interaction) {
    for (auto& s : sources) s.id += 1000;  // distinct ids across blocks
  }
  auto targets_batched = targets_scalar;

  const auto count_scalar = particles::accumulate_forces(
      std::span<particles::Particle>(targets_scalar),
      std::span<const particles::Particle>(sources), box, kernel, cutoff);
  const auto count_batched = particles::accumulate_forces_batched(
      std::span<particles::Particle>(targets_batched),
      std::span<const particles::Particle>(sources), box, kernel, cutoff);

  EXPECT_EQ(count_scalar.examined, count_batched.examined);
  EXPECT_EQ(count_scalar.within_cutoff, count_batched.within_cutoff);
  EXPECT_LT(particles::max_force_deviation(targets_batched, targets_scalar, 1e-12), 1e-5);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarNoCutoff) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.0, false, 21);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarWithCutoff) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.25, false, 23);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarSelfInteraction) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.0, true, 25);
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.25, true, 27);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarPeriodic) {
  expect_engine_parity<TypeParam>(Box::periodic_2d(1.0), 0.0, false, 29);
  expect_engine_parity<TypeParam>(Box::periodic_2d(1.0), 0.3, true, 31);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarOneDimensional) {
  expect_engine_parity<TypeParam>(Box::reflective_1d(1.0), 0.0, true, 33);
  expect_engine_parity<TypeParam>(Box::periodic_1d(1.0), 0.2, false, 35);
}

TYPED_TEST(KernelEngines, BatchedCellListMatchesScalarCellList) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  for (const Box& box : {Box::reflective_2d(1.0), Box::periodic_2d(1.0)}) {
    const double cutoff = 0.2;
    auto scalar_ps = particles::init_uniform(200, box, 41);
    auto batched_ps = scalar_ps;
    const auto applied_scalar = particles::cell_list_forces(
        std::span<particles::Particle>(scalar_ps), box, kernel, cutoff,
        particles::KernelEngine::Scalar);
    const auto applied_batched = particles::cell_list_forces(
        std::span<particles::Particle>(batched_ps), box, kernel, cutoff,
        particles::KernelEngine::Batched);
    EXPECT_EQ(applied_scalar, applied_batched);
    particles::sort_by_id(scalar_ps);
    particles::sort_by_id(batched_ps);
    EXPECT_LT(particles::max_force_deviation(batched_ps, scalar_ps, 1e-12), 1e-5);
  }
}

TYPED_TEST(KernelEngines, CaAllPairsMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(64, box, 0.4, 11);

  core::RealPolicy<K> policy({box, kernel, 0.0, 1e-4});
  core::CaAllPairs<core::RealPolicy<K>> engine({16, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 8));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

TYPED_TEST(KernelEngines, CaCutoffMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const double cutoff = 0.25;
  const auto init = particles::init_lattice(80, box, 0.4, 13);
  const int qx = 4;
  const int qy = 4;
  const int m = core::window_radius_teams(cutoff, 1.0, qx);

  core::RealPolicy<K> policy({box, kernel, cutoff, 1e-4});
  core::CaCutoff<core::RealPolicy<K>> engine(
      {32, 2, machine::laptop(), core::CutoffGeometry::make_2d(qx, qy, m, m), false},
      std::move(policy), decomp::split_spatial_2d(init, box, qx, qy));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4, cutoff});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

// The CA engines against the serial reference run on the batched span
// engine (N3L half-sweep included): the two host sweep implementations that
// remain agree through a whole step.
TYPED_TEST(KernelEngines, CaAllPairsBatchedMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(64, box, 0.4, 11);

  core::RealPolicy<K> policy({box, kernel, 0.0, 1e-4});
  core::CaAllPairs<core::RealPolicy<K>> engine({16, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 8));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(
      init, {box, kernel, 1e-4, 0.0, false, particles::KernelEngine::Batched});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

TYPED_TEST(KernelEngines, CaCutoffBatchedMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const double cutoff = 0.25;
  const auto init = particles::init_lattice(80, box, 0.4, 13);
  const int qx = 4;
  const int qy = 4;
  const int m = core::window_radius_teams(cutoff, 1.0, qx);

  core::RealPolicy<K> policy({box, kernel, cutoff, 1e-4});
  core::CaCutoff<core::RealPolicy<K>> engine(
      {32, 2, machine::laptop(), core::CutoffGeometry::make_2d(qx, qy, m, m), false},
      std::move(policy), decomp::split_spatial_2d(init, box, qx, qy));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(
      init, {box, kernel, 1e-4, cutoff, false, particles::KernelEngine::Batched});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

// The acceptance contract of the sweep's engines — its scalar and widest
// SIMD backend bodies: the per-step ledger (messages, words, per-phase
// virtual seconds, critical path) must be IDENTICAL across them, because
// the backend only changes how the host executes the sweep, never what the
// virtual machine is charged.
template <class MakeSim>
void expect_ledger_invariant_across_engines(MakeSim make_sim) {
  namespace simd = particles::simd;
  const simd::Backend saved = simd::active();
  simd::set_backend(simd::Backend::Scalar);
  auto scalar_sim = make_sim();
  scalar_sim.run(3);
  simd::set_backend(simd::max_supported());
  auto widest_sim = make_sim();
  widest_sim.run(3);
  simd::set_backend(saved);

  const auto rs = scalar_sim.report();
  const auto rb = widest_sim.report();
  EXPECT_EQ(rs.messages, rb.messages);
  EXPECT_EQ(rs.bytes, rb.bytes);
  EXPECT_EQ(rs.compute, rb.compute);
  EXPECT_EQ(rs.broadcast, rb.broadcast);
  EXPECT_EQ(rs.skew, rb.skew);
  EXPECT_EQ(rs.shift, rb.shift);
  EXPECT_EQ(rs.reduce, rb.reduce);
  EXPECT_EQ(rs.reassign, rb.reassign);
  EXPECT_EQ(rs.wall, rb.wall);
  EXPECT_EQ(rs.imbalance, rb.imbalance);

  // And the physics agrees to the parity tolerance.
  const auto ps = scalar_sim.gather();
  const auto pb = widest_sim.gather();
  ASSERT_EQ(ps.size(), pb.size());
  EXPECT_LT(particles::max_position_deviation(pb, ps), 1e-5);
}

TEST(KernelEngineLedger, CaAllPairsLedgerIdenticalAcrossEngines) {
  expect_ledger_invariant_across_engines([] {
    sim::Simulation<particles::InverseSquareRepulsion>::Config cfg;
    cfg.method = sim::Method::CaAllPairs;
    cfg.p = 16;
    cfg.c = 2;
    cfg.machine = machine::hopper();
    cfg.kernel = {1e-4, 1e-2};
    cfg.dt = 1e-4;
    return sim::Simulation<particles::InverseSquareRepulsion>(
        cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  });
}

TEST(KernelEngineLedger, CaCutoffLedgerIdenticalAcrossEngines) {
  expect_ledger_invariant_across_engines([] {
    sim::Simulation<particles::InverseSquareRepulsion>::Config cfg;
    cfg.method = sim::Method::CaCutoff;
    cfg.p = 32;
    cfg.c = 2;
    cfg.machine = machine::hopper();
    cfg.kernel = {1e-4, 1e-2};
    cfg.cutoff = 0.12;
    cfg.dt = 1e-4;
    return sim::Simulation<particles::InverseSquareRepulsion>(
        cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  });
}

TYPED_TEST(KernelEngines, MultiStepTrajectoryStaysFiniteAndInBox) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(48, box, 0.3, 17);
  core::RealPolicy<K> policy({box, kernel, 0.0, 5e-4});
  core::CaAllPairs<core::RealPolicy<K>> engine({8, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 4));
  engine.run(20);
  auto got = decomp::concat(engine.team_results());
  for (const auto& p : got) {
    EXPECT_TRUE(std::isfinite(p.px) && std::isfinite(p.py));
    EXPECT_TRUE(std::isfinite(p.vx) && std::isfinite(p.vy));
    EXPECT_TRUE(particles::inside(p, box));
  }
}

}  // namespace
