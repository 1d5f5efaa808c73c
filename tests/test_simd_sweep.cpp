// The SIMD lane-pipeline and N3L half-sweep contracts from
// particles/simd/simd.hpp and particles/batched_engine.hpp:
//
//  * exact lane pipelines (inv_cube_lanes, exp_lanes) are BITWISE identical
//    across backends — inv_cube additionally bitwise-equal to the scalar
//    expression, exp within 5e-14 of std::exp;
//  * the opt-in rsqrt fast path stays within 1e-12 and never leaks past its
//    explicit enable;
//  * sweep_self (the N3L half-sweep) produces bitwise-identical force lanes
//    and identical examined/within counts to the full sweep, at roughly
//    half the computed pair evaluations, across kernels, boxes, cutoffs,
//    block sizes, and SIMD backends — and falls back to the full sweep when
//    its replica contract does not hold;
//  * the ± scatter is race-free when independent blocks sweep concurrently
//    on a ThreadPool (the TSan leg runs this file).
//
// The half-sweep serves the batched span sweeps (SerialReference, cell
// lists, benches). The resident sweep every Simulation runs has its own
// bitwise suite, test_force_sweep; test_layout_invariance pins its SIMD
// backends and thread counts end to end.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "particles/batched_engine.hpp"
#include "particles/init.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_tile.hpp"
#include "support/parallel.hpp"

namespace {

using namespace canb;
using particles::BatchedEngine;
using particles::Box;
namespace simd = particles::simd;

// Per-kernel parameters chosen so forces are O(1) at typical spacings
// (mirrors test_kernel_engines).
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

/// Saves and restores the process-wide SIMD dispatch state so a failing
/// assertion cannot leak a pinned backend into later tests.
struct SimdStateGuard {
  simd::Backend backend = simd::active();
  bool fast = simd::fast_rsqrt();
  ~SimdStateGuard() {
    simd::set_backend(backend);
    simd::set_fast_rsqrt(fast);
  }
};

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs 0x" << std::bit_cast<std::uint64_t>(b)
         << ")";
}

// --- dispatch plumbing -----------------------------------------------------

TEST(SimdDispatch, BackendNamesRoundTrip) {
  for (const auto b : {simd::Backend::Scalar, simd::Backend::Sse2, simd::Backend::Avx2}) {
    const auto parsed = simd::parse_backend(simd::backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << simd::backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(simd::parse_backend("").has_value());
  EXPECT_FALSE(simd::parse_backend("avx512").has_value());
  EXPECT_FALSE(simd::parse_backend("AVX2").has_value());
}

TEST(SimdDispatch, SetBackendClampsToSupportAndInstalls) {
  SimdStateGuard guard;
  const simd::Backend max = simd::max_supported();
  for (int b = 0; b <= static_cast<int>(max); ++b) {
    const auto want = static_cast<simd::Backend>(b);
    EXPECT_EQ(simd::set_backend(want), want);
    EXPECT_EQ(simd::active(), want);
  }
  // Requesting past the hardware clamps instead of installing garbage.
  EXPECT_LE(simd::set_backend(simd::Backend::Avx2), max);
  EXPECT_LE(simd::active(), max);
}

// --- lane pipelines --------------------------------------------------------

TEST(SimdLanes, ExpMatchesStdExpAndIsBackendBitwise) {
  SimdStateGuard guard;
  std::vector<double> xs;
  for (int i = 0; i <= 2047; ++i) xs.push_back(-700.0 + 705.0 * i / 2047.0);
  // Clamp boundaries and denormal-adjacent inputs.
  for (const double s : {-750.0, -700.0, -0.0, 0.0, 1e-300, -1e-300, 700.0, 750.0})
    xs.push_back(s);

  std::vector<std::vector<double>> per_backend;
  for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
    simd::set_backend(static_cast<simd::Backend>(b));
    std::vector<double> out(xs.size());
    simd::exp_lanes(xs.data(), out.data(), xs.size());
    per_backend.push_back(std::move(out));
  }

  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double got = per_backend[0][i];
    if (std::fabs(xs[i]) <= 700.0) {
      const double want = std::exp(xs[i]);
      EXPECT_LE(std::fabs(got - want), 5e-14 * std::fabs(want)) << "x = " << xs[i];
    } else {
      // Out-of-range inputs clamp to the boundary, bitwise.
      double clamped = xs[i] > 0.0 ? 700.0 : -700.0;
      double boundary = 0.0;
      simd::exp_lanes(&clamped, &boundary, 1);
      EXPECT_TRUE(bits_equal(got, boundary)) << "x = " << xs[i];
    }
    for (std::size_t b = 1; b < per_backend.size(); ++b)
      EXPECT_TRUE(bits_equal(per_backend[b][i], got))
          << "x = " << xs[i] << " backend " << simd::backend_name(static_cast<simd::Backend>(b));
  }
}

TEST(SimdLanes, InvCubeExactIsBitwiseEqualToScalarExpression) {
  SimdStateGuard guard;
  simd::set_fast_rsqrt(false);
  constexpr std::size_t kN = 513;  // odd: exercises every vector tail
  const double soft2 = 1e-4;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> r2d(1e-8, 2.0);
  std::uniform_real_distribution<double> cpld(-1.0, 1.0);
  std::vector<double> r2(kN), cpl(kN), want(kN);
  for (const double scale : {1e-4, -6.674e-3}) {
    for (std::size_t i = 0; i < kN; ++i) {
      r2[i] = r2d(rng);
      cpl[i] = cpld(rng);
      const double d2 = r2[i] + soft2;
      want[i] = (scale * cpl[i]) / (d2 * std::sqrt(d2));
    }
    for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
      simd::set_backend(static_cast<simd::Backend>(b));
      std::vector<double> out(kN, 0.0);
      simd::inv_cube_lanes(r2.data(), cpl.data(), out.data(), kN, scale, soft2);
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_TRUE(bits_equal(out[i], want[i]))
            << "lane " << i << " backend "
            << simd::backend_name(static_cast<simd::Backend>(b));
    }
  }
}

TEST(SimdLanes, FastRsqrtStaysWithinDocumentedErrorAndIsOptIn) {
  SimdStateGuard guard;
  EXPECT_FALSE(simd::fast_rsqrt());  // exact by default
  constexpr std::size_t kN = 257;
  const double soft2 = 1e-4;
  const double scale = 1e-4;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> r2d(1e-8, 2.0);
  std::vector<double> r2(kN), cpl(kN, 1.0), out(kN);
  for (auto& v : r2) v = r2d(rng);

  simd::set_fast_rsqrt(true);
  EXPECT_TRUE(simd::fast_rsqrt());
  for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
    simd::set_backend(static_cast<simd::Backend>(b));
    simd::inv_cube_lanes(r2.data(), cpl.data(), out.data(), kN, scale, soft2);
    for (std::size_t i = 0; i < kN; ++i) {
      const double d2 = r2[i] + soft2;
      const double want = scale / (d2 * std::sqrt(d2));
      EXPECT_LE(std::fabs(out[i] - want), 1e-12 * std::fabs(want))
          << "lane " << i << " backend "
          << simd::backend_name(static_cast<simd::Backend>(b));
    }
  }
  simd::set_fast_rsqrt(false);
  EXPECT_FALSE(simd::fast_rsqrt());
}

// --- N3L half-sweep vs full sweep ------------------------------------------

// SoaTile targets accumulate raw doubles (no float fold until scatter), so
// comparing tile lanes checks the half-sweep's accumulation ORDER at full
// double precision — strictly harder than comparing post-fold forces.
template <class K>
class HalfSweep : public ::testing::Test {};

using AllKernels =
    ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity,
                     particles::LennardJones, particles::Yukawa, particles::Morse,
                     particles::SoftSphere>;
TYPED_TEST_SUITE(HalfSweep, AllKernels, KernelNames);

TYPED_TEST(HalfSweep, BitwiseMatchesFullSweep) {
  const auto kernel = make_kernel<TypeParam>();
  const Box boxes[] = {Box::reflective_2d(1.0), Box::periodic_2d(1.0), Box::periodic_1d(1.0)};
  std::uint64_t seed = 101;
  for (const Box& box : boxes) {
    for (const double cutoff : {0.0, 0.15}) {
      for (const int n : {1, 2, 3, 127, 128, 129, 300}) {
        SCOPED_TRACE(::testing::Message() << "dims=" << box.dims << " cutoff=" << cutoff
                                          << " n=" << n);
        const auto ps = particles::init_uniform(n, box, ++seed);
        particles::SoaTile full;
        particles::SoaTile half;
        full.pack(ps, box);
        half.pack(ps, box);

        const auto cf = BatchedEngine::sweep(full, full, box, kernel, cutoff);
        const auto ch = BatchedEngine::sweep_self(half, half, box, kernel, cutoff);

        EXPECT_EQ(cf.examined, ch.examined);
        EXPECT_EQ(cf.within_cutoff, ch.within_cutoff);
        EXPECT_FALSE(cf.half_sweep);
        EXPECT_TRUE(ch.half_sweep);
        EXPECT_LE(ch.computed, cf.computed);
        if (n >= 2) {
          EXPECT_LT(ch.computed, cf.computed);
        }
        for (int i = 0; i < n; ++i) {
          ASSERT_TRUE(bits_equal(half.fx[static_cast<std::size_t>(i)],
                                 full.fx[static_cast<std::size_t>(i)]))
              << "fx of particle " << i;
          ASSERT_TRUE(bits_equal(half.fy[static_cast<std::size_t>(i)],
                                 full.fy[static_cast<std::size_t>(i)]))
              << "fy of particle " << i;
        }
      }
    }
  }
}

TYPED_TEST(HalfSweep, ForcesSumToNearZero) {
  const auto kernel = make_kernel<TypeParam>();
  for (const Box& box : {Box::reflective_2d(1.0), Box::periodic_2d(1.0)}) {
    for (const double cutoff : {0.0, 0.15}) {
      SCOPED_TRACE(::testing::Message() << "periodic="
                                        << (box.boundary == particles::Boundary::Periodic)
                                        << " cutoff=" << cutoff);
      const auto ps = particles::init_uniform(300, box, 99);
      particles::SoaTile tile;
      tile.pack(ps, box);
      BatchedEngine::sweep_self(tile, tile, box, kernel, cutoff);
      double sx = 0.0, sy = 0.0, ax = 0.0, ay = 0.0;
      for (std::size_t i = 0; i < tile.size(); ++i) {
        sx += tile.fx[i];
        sy += tile.fy[i];
        ax += std::fabs(tile.fx[i]);
        ay += std::fabs(tile.fy[i]);
      }
      // Newton's third law: the ± scatter cancels pairwise, so the total
      // momentum flux is zero up to summation rounding.
      EXPECT_LE(std::fabs(sx), 1e-9 * std::max(ax, 1e-300));
      EXPECT_LE(std::fabs(sy), 1e-9 * std::max(ay, 1e-300));
    }
  }
}

// Exact lane pipelines keep the bitwise contract under every backend, so
// the half-sweep result cannot depend on the dispatch decision.
template <class K>
class HalfSweepLanes : public ::testing::Test {};
using LaneKernels = ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity,
                                     particles::Yukawa, particles::Morse>;
TYPED_TEST_SUITE(HalfSweepLanes, LaneKernels, KernelNames);

TYPED_TEST(HalfSweepLanes, BackendInvariantBitwise) {
  SimdStateGuard guard;
  simd::set_fast_rsqrt(false);
  const auto kernel = make_kernel<TypeParam>();
  const Box box = Box::reflective_2d(1.0);
  const auto ps = particles::init_uniform(256, box, 4242);

  simd::set_backend(simd::Backend::Scalar);
  particles::SoaTile want;
  want.pack(ps, box);
  BatchedEngine::sweep_self(want, want, box, kernel, 0.0);

  for (int b = 1; b <= static_cast<int>(simd::max_supported()); ++b) {
    simd::set_backend(static_cast<simd::Backend>(b));
    particles::SoaTile got;
    got.pack(ps, box);
    BatchedEngine::sweep_self(got, got, box, kernel, 0.0);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(bits_equal(got.fx[i], want.fx[i]))
          << "fx of particle " << i << " backend "
          << simd::backend_name(static_cast<simd::Backend>(b));
      ASSERT_TRUE(bits_equal(got.fy[i], want.fy[i]))
          << "fy of particle " << i << " backend "
          << simd::backend_name(static_cast<simd::Backend>(b));
    }
  }
}

TEST(HalfSweepFallback, MismatchedReplicaFallsBackToFullSweep) {
  const auto kernel = make_kernel<particles::InverseSquareRepulsion>();
  const Box box = Box::reflective_2d(1.0);
  const auto tgt_ps = particles::init_uniform(64, box, 5);
  auto src_ps = particles::init_uniform(65, box, 6);
  for (auto& p : src_ps) p.id += 1000;

  particles::SoaTile tgt_half, tgt_full, src;
  tgt_half.pack(tgt_ps, box);
  tgt_full.pack(tgt_ps, box);
  src.pack(src_ps, box);

  // Different sizes violate the replica contract: sweep_self must refuse
  // the half path and produce exactly the full sweep's result.
  const auto ch = BatchedEngine::sweep_self(tgt_half, src, box, kernel, 0.0);
  const auto cf = BatchedEngine::sweep(tgt_full, src, box, kernel, 0.0);
  EXPECT_FALSE(ch.half_sweep);
  EXPECT_EQ(cf.examined, ch.examined);
  EXPECT_EQ(cf.within_cutoff, ch.within_cutoff);
  EXPECT_EQ(cf.computed, ch.computed);
  for (std::size_t i = 0; i < tgt_half.size(); ++i) {
    ASSERT_TRUE(bits_equal(tgt_half.fx[i], tgt_full.fx[i]));
    ASSERT_TRUE(bits_equal(tgt_half.fy[i], tgt_full.fy[i]));
  }
}

TEST(HalfSweepFallback, OversizeBlockFallsBackToFullSweep) {
  const auto kernel = make_kernel<particles::InverseSquareRepulsion>();
  const Box box = Box::reflective_2d(1.0);
  const int n = static_cast<int>(BatchedEngine::kMaxHalfBlock) + 1;
  const auto ps = particles::init_uniform(n, box, 77);
  particles::SoaTile tile;
  tile.pack(ps, box);
  const auto c = BatchedEngine::sweep_self(tile, tile, box, kernel, 0.0);
  EXPECT_FALSE(c.half_sweep);
  EXPECT_EQ(c.examined, static_cast<std::uint64_t>(n) * (n - 1));
}

// --- concurrency: the ± scatter under a ThreadPool -------------------------

// Each rank owns its block and scratch; concurrent half-sweeps must neither
// race (TSan runs this file) nor perturb a single bit of any rank's forces.
TEST(HalfSweepThreads, ConcurrentSelfSweepsAreRaceFreeAndBitwise) {
  const auto kernel = make_kernel<particles::InverseSquareRepulsion>();
  const Box box = Box::reflective_2d(1.0);
  constexpr int kBlocks = 12;

  std::vector<particles::Block> want;
  std::vector<particles::Block> got;
  for (int r = 0; r < kBlocks; ++r) {
    want.push_back(particles::init_uniform(192, box, 300 + static_cast<std::uint64_t>(r)));
    got.push_back(want.back());
  }
  for (auto& blk : want) {
    particles::SweepScratch scratch;
    particles::accumulate_forces_with(particles::KernelEngine::Batched,
                                      std::span<particles::Particle>(blk),
                                      std::span<const particles::Particle>(blk), box, kernel,
                                      0.0, &scratch);
  }

  std::vector<particles::SweepScratch> scratch(kBlocks);
  ThreadPool pool(8);
  pool.parallel_for_chunks(0, kBlocks, [&](int b, int e) {
    for (int r = b; r < e; ++r) {
      auto& blk = got[static_cast<std::size_t>(r)];
      particles::accumulate_forces_with(particles::KernelEngine::Batched,
                                        std::span<particles::Particle>(blk),
                                        std::span<const particles::Particle>(blk), box, kernel,
                                        0.0, &scratch[static_cast<std::size_t>(r)]);
    }
  });

  for (int r = 0; r < kBlocks; ++r) {
    for (std::size_t i = 0; i < want[static_cast<std::size_t>(r)].size(); ++i) {
      const auto& w = want[static_cast<std::size_t>(r)][i];
      const auto& g = got[static_cast<std::size_t>(r)][i];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(g.fx), std::bit_cast<std::uint32_t>(w.fx));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(g.fy), std::bit_cast<std::uint32_t>(w.fy));
    }
  }
}

}  // namespace
