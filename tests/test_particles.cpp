// Particle substrate: record layout, boxes/boundaries, kernels, integrators,
// initializers, diagnostics, and the serial reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "particles/box.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "particles/integrator.hpp"
#include "particles/kernels.hpp"
#include "particles/reference.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace {

using namespace canb;
using namespace canb::particles;

// --- record layout ----------------------------------------------------------

TEST(Particle, Is52BytesAsInThePaper) {
  EXPECT_EQ(sizeof(Particle), 52u);
  EXPECT_EQ(kParticleBytes, 52u);
  Block b(3);
  EXPECT_EQ(block_bytes(b), 156u);
}

// --- box / boundaries ----------------------------------------------------------

TEST(Box, PairDeltaPlain) {
  const Box box = Box::reflective_2d(1.0);
  Particle a;
  a.px = 0.8f;
  a.py = 0.1f;
  Particle b;
  b.px = 0.1f;
  b.py = 0.3f;
  const auto [dx, dy] = pair_delta(a, b, box);
  EXPECT_NEAR(dx, 0.7, 1e-6);
  EXPECT_NEAR(dy, -0.2, 1e-6);
}

TEST(Box, PairDeltaMinimumImage) {
  const Box box = Box::periodic_2d(1.0);
  Particle a;
  a.px = 0.95f;
  Particle b;
  b.px = 0.05f;
  const auto [dx, dy] = pair_delta(a, b, box);
  EXPECT_NEAR(dx, -0.1, 1e-6);  // wraps: 0.9 -> -0.1
  EXPECT_DOUBLE_EQ(dy, 0.0);
}

TEST(Box, ReflectiveBoundaryFlipsVelocity) {
  const Box box = Box::reflective_2d(1.0);
  Particle p;
  p.px = 1.1f;
  p.vx = 0.5f;
  p.py = -0.2f;
  p.vy = -0.3f;
  apply_boundary(p, box);
  EXPECT_NEAR(p.px, 0.9f, 1e-6);
  EXPECT_NEAR(p.vx, -0.5f, 1e-6);
  EXPECT_NEAR(p.py, 0.2f, 1e-6);
  EXPECT_NEAR(p.vy, 0.3f, 1e-6);
  EXPECT_TRUE(inside(p, box));
}

// The reflective fold before it was bounded: the reference wherever its
// bounces are exact.
void reflect_by_bouncing(float& x, float& v, double l) {
  double xd = x;
  double vd = v;
  while (xd < 0.0 || xd > l) {
    xd = xd < 0.0 ? -xd : 2.0 * l - xd;
    vd = -vd;
  }
  x = static_cast<float>(xd);
  v = static_cast<float>(vd);
}

TEST(Box, ReflectiveBoundaryMatchesTheBounceLoopBitwise) {
  // The loop's bounces are exact on [-4l, 4l] (2l - x by Sterbenz), and for
  // l = 1 on a 1/8 grid at any distance, so the bounded fold must agree bit
  // for bit: the loop itself on [-2l, 3l], the closed form beyond it.
  std::vector<std::pair<double, float>> cases;
  for (const double l : {1.0, 0.7, 3.3})
    for (int i = 0; i <= 40000; ++i) cases.emplace_back(l, l * (i / 5000.0 - 4.0));
  for (int k = -1024; k <= 1024; ++k) cases.emplace_back(1.0, k / 8.0f);
  for (const auto& [l, x0] : cases) {
    Particle p;
    p.px = x0;
    p.vx = 0.75f;
    float x = x0;
    float v = p.vx;
    reflect_by_bouncing(x, v, l);
    apply_boundary(p, Box::reflective_1d(l));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(p.px), std::bit_cast<std::uint32_t>(x)) << x0;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(p.vx), std::bit_cast<std::uint32_t>(v)) << x0;
  }
}

TEST(Box, ReflectiveBoundaryReturnsForAnyInput) {
  // The loop alone bounced ~|x|/l times, forever for infinities and past
  // ~2^53 l, where 2l - x rounds to -x.
  const Box box = Box::reflective_2d(1.0);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float x : {1e30f, -1e30f, 3.5f, -2.5f, inf, -inf, nan}) {
    Particle p;
    p.px = x;
    p.py = x;
    p.vx = 0.25f;
    apply_boundary(p, box);
    if (!std::isfinite(x)) {  // left as it is, velocity included
      EXPECT_EQ(std::bit_cast<std::uint32_t>(p.px), std::bit_cast<std::uint32_t>(x));
      EXPECT_EQ(p.vx, 0.25f);
    } else {
      EXPECT_TRUE(inside(p, box)) << x;  // exact values: the test above
    }
  }
}

TEST(Box, PeriodicBoundaryWraps) {
  const Box box = Box::periodic_2d(1.0);
  Particle p;
  p.px = 1.25f;
  p.py = -0.25f;
  apply_boundary(p, box);
  EXPECT_NEAR(p.px, 0.25f, 1e-6);
  EXPECT_NEAR(p.py, 0.75f, 1e-6);
}

TEST(Box, OneDimensionalIgnoresY) {
  const Box box = Box::reflective_1d(1.0);
  Particle a;
  a.px = 0.2f;
  a.py = 99.0f;
  Particle b;
  b.px = 0.5f;
  b.py = -42.0f;
  const auto [dx, dy] = pair_delta(a, b, box);
  EXPECT_NEAR(dx, -0.3, 1e-6);
  EXPECT_DOUBLE_EQ(dy, 0.0);
}

TEST(Box, ValidationRejectsBadDims) {
  Box box;
  box.dims = 3;
  EXPECT_THROW(box.validate(), PreconditionError);
  box.dims = 2;
  box.lx = -1;
  EXPECT_THROW(box.validate(), PreconditionError);
}

// --- kernels ----------------------------------------------------------------

TEST(Kernels, InverseSquareRepulsionPushesApart) {
  const InverseSquareRepulsion k{1.0, 0.0};
  Particle a;
  a.px = 1.0f;
  Particle b;
  b.px = 0.0f;
  b.id = 1;
  const Box box = Box::reflective_2d(4.0);
  const auto [dx, dy] = pair_delta(a, b, box);
  const auto f = k.force(dx, dy, dx * dx + dy * dy, a, b);
  EXPECT_GT(f.fx, 0.0);  // pushes a away from b (in +x)
  EXPECT_DOUBLE_EQ(f.fy, 0.0);
  EXPECT_NEAR(f.fx, 1.0, 1e-12);  // 1/r^2 at r=1
}

TEST(Kernels, InverseSquareDropsWithSquaredDistance) {
  const InverseSquareRepulsion k{1.0, 0.0};
  Particle a;
  Particle b;
  b.id = 1;
  const auto f1 = k.force(1.0, 0.0, 1.0, a, b);
  const auto f2 = k.force(2.0, 0.0, 4.0, a, b);
  EXPECT_NEAR(f1.fx / f2.fx, 4.0, 1e-9);
}

TEST(Kernels, GravityAttracts) {
  const Gravity g{1.0, 0.0};
  Particle a;
  Particle b;
  b.id = 1;
  const auto f = g.force(1.0, 0.0, 1.0, a, b);
  EXPECT_LT(f.fx, 0.0);  // pulls a toward b
  EXPECT_LT(g.potential(1.0, a, b), 0.0);
}

TEST(Kernels, LennardJonesHasMinimumAtSigma2Pow16) {
  const LennardJones lj{1.0, 1.0};
  Particle a;
  Particle b;
  b.id = 1;
  const double rmin = std::pow(2.0, 1.0 / 6.0);
  // Repulsive inside the minimum, attractive outside.
  const auto inside_f = lj.force(0.9, 0.0, 0.81, a, b);
  const auto outside_f = lj.force(1.5, 0.0, 2.25, a, b);
  EXPECT_GT(inside_f.fx, 0.0);
  EXPECT_LT(outside_f.fx, 0.0);
  // Near-zero force at the minimum.
  const auto at_min = lj.force(rmin, 0.0, rmin * rmin, a, b);
  EXPECT_NEAR(at_min.fx, 0.0, 1e-6);
}

TEST(Kernels, SoftSphereOnlyActsWhenOverlapping) {
  const SoftSphere ss{100.0, 0.1};
  Particle a;
  Particle b;
  b.id = 1;
  const auto far = ss.force(0.2, 0.0, 0.04, a, b);
  EXPECT_DOUBLE_EQ(far.fx, 0.0);
  const auto near_f = ss.force(0.05, 0.0, 0.0025, a, b);
  EXPECT_GT(near_f.fx, 0.0);
}

TEST(Kernels, AccumulateForcesSkipsSelfPairs) {
  const Box box = Box::reflective_2d(1.0);
  Block ps = init_uniform(10, box, 1);
  Block copy = ps;  // same ids
  const InverseSquareRepulsion k{1.0, 1e-2};
  const auto count = accumulate_forces(std::span<Particle>(ps),
                                       std::span<const Particle>(copy), box, k);
  EXPECT_EQ(count.examined, 90u);  // 10*10 - 10 self pairs
}

TEST(Kernels, AccumulateForcesRespectsCutoff) {
  const Box box = Box::reflective_2d(1.0);
  Block targets(1);
  targets[0].px = 0.0f;
  targets[0].id = 0;
  Block sources(2);
  sources[0].px = 0.1f;
  sources[0].id = 1;
  sources[1].px = 0.9f;
  sources[1].id = 2;
  const InverseSquareRepulsion k{1.0, 1e-2};
  const auto count = accumulate_forces(std::span<Particle>(targets),
                                       std::span<const Particle>(sources), box, k, 0.25);
  EXPECT_EQ(count.examined, 2u);
  EXPECT_EQ(count.within_cutoff, 1u);
}

TEST(Kernels, NewtonsThirdLawForSymmetricKernel) {
  const Box box = Box::reflective_2d(1.0);
  const InverseSquareRepulsion k{1.0, 1e-2};
  Particle a;
  a.px = 0.3f;
  a.py = 0.4f;
  a.id = 0;
  Particle b;
  b.px = 0.6f;
  b.py = 0.1f;
  b.id = 1;
  const auto [dab_x, dab_y] = pair_delta(a, b, box);
  const auto [dba_x, dba_y] = pair_delta(b, a, box);
  const double r2 = dab_x * dab_x + dab_y * dab_y;
  const auto f_ab = k.force(dab_x, dab_y, r2, a, b);
  const auto f_ba = k.force(dba_x, dba_y, r2, b, a);
  EXPECT_NEAR(f_ab.fx, -f_ba.fx, 1e-12);
  EXPECT_NEAR(f_ab.fy, -f_ba.fy, 1e-12);
}

// --- integrators ------------------------------------------------------------

TEST(Integrators, SymplecticEulerFreeParticleMovesLinearly) {
  SymplecticEuler integ;
  Block ps(1);
  ps[0].px = 0.5f;
  ps[0].vx = 0.1f;
  const Box box = Box::reflective_2d(10.0);
  integ.post_force(ps, 0.25, box);
  EXPECT_NEAR(ps[0].px, 0.525f, 1e-6);
}

TEST(Integrators, VelocityVerletMatchesConstantAcceleration) {
  // Under a constant force, velocity Verlet is exact: x = x0 + v0 t + a t^2/2.
  VelocityVerlet integ;
  Block ps(1);
  ps[0].vx = 1.0f;
  ps[0].fx = 2.0f;  // "previous" force; we keep it constant
  const Box box = Box::reflective_2d(1000.0);
  const double dt = 0.1;
  double expect_x = 0.0;
  double expect_v = 1.0;
  for (int i = 0; i < 10; ++i) {
    integ.pre_force(ps, dt);
    ps[0].fx = 2.0f;  // force evaluation yields the same constant force
    integ.post_force(ps, dt, box);
    expect_x += expect_v * dt + 0.5 * 2.0 * dt * dt;
    expect_v += 2.0 * dt;
  }
  EXPECT_NEAR(ps[0].px, expect_x, 1e-4);
  EXPECT_NEAR(ps[0].vx, expect_v, 1e-4);
}

TEST(Integrators, FactoryKnowsNames) {
  EXPECT_EQ(make_integrator("velocity-verlet")->name(), "velocity-verlet");
  EXPECT_EQ(make_integrator("symplectic-euler")->name(), "symplectic-euler");
  EXPECT_THROW(make_integrator("rk4"), PreconditionError);
}

// --- initializers -------------------------------------------------------------

TEST(Init, UniformIsDeterministicAndInBox) {
  const Box box = Box::reflective_2d(2.0);
  const auto a = init_uniform(100, box, 42, 0.1);
  const auto b = init_uniform(100, box, 42, 0.1);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].px, b[i].px);
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_TRUE(inside(a[i], box));
  }
}

TEST(Init, LatticeCoversBoxEvenly) {
  const Box box = Box::reflective_2d(1.0);
  const auto ps = init_lattice(16, box);
  ASSERT_EQ(ps.size(), 16u);
  for (const auto& p : ps) EXPECT_TRUE(inside(p, box));
  // 4x4 lattice: first two points are 0.25 apart in x.
  EXPECT_NEAR(ps[1].px - ps[0].px, 0.25f, 1e-6);
}

TEST(Init, ClustersAreClustered) {
  const Box box = Box::reflective_2d(1.0);
  const auto ps = init_clusters(200, box, 2, 0.01, 7);
  // With two tight clusters, the position variance is far below uniform.
  RunningStats sx;
  for (const auto& p : ps) sx.add(p.px);
  EXPECT_LT(sx.stddev(), 0.25);  // uniform would be ~0.29 only if centers coincide; clusters are tight
  for (const auto& p : ps) EXPECT_TRUE(inside(p, box));
}

TEST(Init, OneDimensionalInitializersZeroY) {
  const Box box = Box::reflective_1d(1.0);
  for (const auto& p : init_uniform(50, box, 3, 0.5)) {
    EXPECT_EQ(p.py, 0.0f);
    EXPECT_EQ(p.vy, 0.0f);
  }
}

// --- diagnostics ---------------------------------------------------------------

TEST(Diagnostics, KineticEnergy) {
  Block ps(2);
  ps[0].vx = 3.0f;
  ps[0].vy = 4.0f;  // |v|=5, ke=12.5
  ps[1].vx = 0.0f;
  EXPECT_DOUBLE_EQ(kinetic_energy(ps), 12.5);
}

TEST(Diagnostics, EnergyConservedByVerletOnGravityOrbit) {
  // A tight two-body problem integrated with velocity Verlet conserves
  // total energy to a few percent over many steps.
  const Box box = Box::reflective_2d(100.0);
  const Gravity g{1.0, 1e-3};
  Block ps(2);
  ps[0].px = 49.5f;
  ps[0].py = 50.0f;
  ps[0].vy = 0.7f;
  ps[0].id = 0;
  ps[1].px = 50.5f;
  ps[1].py = 50.0f;
  ps[1].vy = -0.7f;
  ps[1].id = 1;
  SerialReference<Gravity> ref(ps, {box, g, 1e-3});
  const auto e0 = full_state<Gravity>(ref.particles(), box, g).total();
  ref.run(2000);
  const auto e1 = full_state<Gravity>(ref.particles(), box, g).total();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 0.05);
}

TEST(Diagnostics, MomentumConservedWithoutBoundaries) {
  const Box box = Box::reflective_2d(50.0);
  const InverseSquareRepulsion k{0.01, 1e-2};
  // Small interior cloud: nothing reaches a wall in 100 steps.
  Block ps = init_uniform(20, Box::reflective_2d(1.0), 5, 0.01);
  for (auto& p : ps) {
    p.px += 24.5f;
    p.py += 24.5f;
  }
  SerialReference<InverseSquareRepulsion> ref(ps, {box, k, 1e-3});
  const auto s0 = quick_state(ref.particles());
  ref.run(100);
  const auto s1 = quick_state(ref.particles());
  EXPECT_NEAR(s1.momentum_x, s0.momentum_x, 1e-3);
  EXPECT_NEAR(s1.momentum_y, s0.momentum_y, 1e-3);
}

TEST(Diagnostics, DeviationHelpersRequireAlignment) {
  Block a(2);
  a[0].id = 0;
  a[1].id = 1;
  Block b(2);
  b[0].id = 1;
  b[1].id = 0;
  EXPECT_THROW(max_force_deviation(a, b), PreconditionError);
}

}  // namespace
