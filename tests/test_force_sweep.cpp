// The resident force sweep (particles/sweep.hpp) against the AoS reference
// particles::accumulate_forces: for every kernel, boundary, dimension,
// cutoff, self or cross block pair, block size at the SIMD lane and sweep
// chunk edges, and SIMD backend this machine supports, the float force
// lanes must match bit for bit and `examined` / `within_cutoff` exactly.
// The test pass itself (simd::test_lanes) is also pinned lane by lane
// across backends. The simd-backends CI job re-runs this binary with each
// CANB_SIMD value.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "particles/init.hpp"
#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_block.hpp"
#include "particles/sweep.hpp"

namespace {

using namespace canb;
using particles::Block;
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

/// Restores the process-wide SIMD dispatch when a test ends.
struct BackendGuard {
  simd::Backend saved = simd::active();
  ~BackendGuard() { simd::set_backend(saved); }
};

std::vector<simd::Backend> supported_backends() {
  std::vector<simd::Backend> out;
  for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b)
    out.push_back(static_cast<simd::Backend>(b));
  return out;
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// n particles spread over the box with varied couplings and nonzero
/// starting forces, so the per-target float fold is exercised too.
Block make_block(int n, const Box& box, std::uint64_t seed, std::int32_t id_base) {
  Block b = particles::init_uniform(n, box, seed);
  std::mt19937_64 rng(seed * 7919u + 1u);
  std::uniform_real_distribution<float> cpl(0.25f, 2.0f);
  std::uniform_real_distribution<float> f0(-1.0f, 1.0f);
  for (auto& p : b) {
    p.id += id_base;
    p.charge = cpl(rng);
    p.mass = cpl(rng);
    p.fx = f0(rng);
    p.fy = box.dims == 2 ? f0(rng) : 0.0f;
  }
  return b;
}

const int kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 127, 128, 129, 255, 256, 257};

struct BoxCase {
  const char* name;
  Box box;
};
const BoxCase kBoxes[] = {
    {"reflective-2d", Box::reflective_2d(1.0)},
    {"periodic-2d", Box::periodic_2d(1.0)},
    {"reflective-1d", Box::reflective_1d(1.0)},
    {"periodic-1d", Box::periodic_1d(1.0)},
};

template <class K>
class ForceSweep : public ::testing::Test {};

using AllKernels =
    ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity,
                     particles::LennardJones, particles::Yukawa, particles::Morse,
                     particles::SoftSphere>;
TYPED_TEST_SUITE(ForceSweep, AllKernels, KernelNames);

TYPED_TEST(ForceSweep, BitwiseMatchesAosReferenceOnEveryBackend) {
  BackendGuard guard;
  const auto kernel = make_kernel<TypeParam>();
  std::uint64_t seed = 1;
  for (const BoxCase& bc : kBoxes) {
    for (const double cutoff : {0.0, 0.1, 0.3}) {
      for (const bool self : {true, false}) {
        for (const int n : kSizes) {
          ++seed;
          const Block targets = make_block(n, bc.box, seed, 0);
          // Self: the visitor is a replica of the resident block (a CA
          // engine's same-block step). Cross: distinct particles and ids.
          const Block sources = self ? targets : make_block(n, bc.box, seed + 500, 100000);

          Block want = targets;
          const particles::InteractionCount ref = particles::accumulate_forces(
              std::span<particles::Particle>(want), std::span<const particles::Particle>(sources),
              bc.box, kernel, cutoff);

          const particles::SoaBlock src(sources);
          for (const simd::Backend backend : supported_backends()) {
            simd::set_backend(backend);
            particles::SoaBlock got(targets);
            const particles::InteractionCount c =
                particles::sweep_blocks(got, src, bc.box, kernel, cutoff);
            const std::string where = std::string(bc.name) + " cutoff=" + std::to_string(cutoff) +
                                      (self ? " self" : " cross") + " n=" + std::to_string(n) +
                                      " backend=" + simd::backend_name(backend);
            ASSERT_EQ(c.examined, ref.examined) << where;
            ASSERT_EQ(c.within_cutoff, ref.within_cutoff) << where;
            ASSERT_EQ(c.computed, cutoff > 0.0 ? ref.within_cutoff
                                               : static_cast<std::uint64_t>(n) * n)
                << where;
            for (int i = 0; i < n; ++i) {
              const auto& w = want[static_cast<std::size_t>(i)];
              const auto k = static_cast<std::size_t>(i);
              ASSERT_EQ(bits(static_cast<float>(got.fx[k])), bits(w.fx)) << where << " i=" << i;
              ASSERT_EQ(bits(static_cast<float>(got.fy[k])), bits(w.fy)) << where << " i=" << i;
              // Resident force lanes stay float-representable.
              ASSERT_EQ(got.fx[k], static_cast<double>(w.fx)) << where << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// RealPolicy may hand the sweep the same block on both sides; reading the
// sources while the row results land must not change anything.
TYPED_TEST(ForceSweep, AliasedSelfSweepMatchesReplica) {
  const auto kernel = make_kernel<TypeParam>();
  for (const double cutoff : {0.0, 0.2}) {
    const Block ps = make_block(131, Box::periodic_2d(1.0), 42, 0);
    particles::SoaBlock aliased(ps);
    particles::SoaBlock with_copy(ps);
    const particles::SoaBlock replica(ps);
    const auto ca = particles::sweep_blocks(aliased, aliased, Box::periodic_2d(1.0), kernel,
                                            cutoff);
    const auto cr = particles::sweep_blocks(with_copy, replica, Box::periodic_2d(1.0), kernel,
                                            cutoff);
    EXPECT_EQ(ca.examined, cr.examined);
    EXPECT_EQ(ca.within_cutoff, cr.within_cutoff);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      ASSERT_EQ(bits(aliased.fx[i]), bits(with_copy.fx[i])) << "cutoff=" << cutoff;
      ASSERT_EQ(bits(aliased.fy[i]), bits(with_copy.fy[i])) << "cutoff=" << cutoff;
    }
  }
}

// --- the test pass ---------------------------------------------------------

/// The reference loop's geometry for one lane, written out independently
/// of simd.cpp (same as particles::pair_delta).
void reference_lane(const simd::LaneTest& row, float sx, float sy, double& dx, double& dy,
                    double& r2) {
  dx = row.x - static_cast<double>(sx);
  dy = row.two_d ? row.y - static_cast<double>(sy) : 0.0;
  if (row.wrap_x > 0.0) {
    if (dx > 0.5 * row.wrap_x)
      dx -= row.wrap_x;
    else if (dx < -0.5 * row.wrap_x)
      dx += row.wrap_x;
    if (row.two_d) {
      if (dy > 0.5 * row.wrap_y)
        dy -= row.wrap_y;
      else if (dy < -0.5 * row.wrap_y)
        dy += row.wrap_y;
    }
  }
  r2 = dx * dx + dy * dy;
}

TEST(TestLanes, EveryBackendWritesTheReferenceLanesAndKeepList) {
  BackendGuard guard;
  constexpr std::size_t kN = 131;  // every vector width's tail
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<float> pos(0.0f, 1.0f);
  std::vector<float> sx(kN), sy(kN);
  std::vector<std::int32_t> sid(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    sx[j] = pos(rng);
    sy[j] = pos(rng);
    sid[j] = static_cast<std::int32_t>(j % 17);  // the target id recurs
  }
  sx[5] = 0.7f;  // sits exactly on the cutoff below
  sy[5] = 0.5f;

  for (const bool periodic : {false, true}) {
    for (const bool two_d : {false, true}) {
      for (const bool cut : {false, true}) {
        simd::LaneTest row;
        row.x = 0.5;
        row.y = 0.5;
        row.id = 3;
        row.two_d = two_d;
        row.wrap_x = periodic ? 1.0 : 0.0;
        row.wrap_y = periodic && two_d ? 1.0 : 0.0;
        // A lane exactly at the cutoff is kept: the reference skips only
        // r2 > cut2.
        double edge_dx = 0.0, edge_dy = 0.0, edge_r2 = 0.0;
        reference_lane(row, sx[5], sy[5], edge_dx, edge_dy, edge_r2);
        const double cut2 = cut ? edge_r2 : 0.0;
        row.cut2 = cut2;

        std::vector<double> wdx(kN), wdy(kN), wr2(kN);
        std::vector<std::uint32_t> wkeep;
        std::size_t wexamined = 0;
        for (std::size_t j = 0; j < kN; ++j) {
          reference_lane(row, sx[j], sy[j], wdx[j], wdy[j], wr2[j]);
          if (sid[j] == row.id) {
            if (cut2 == 0.0) {
              wdx[j] = wdy[j] = 0.0;
              wr2[j] = 1.0;
            }
            continue;
          }
          ++wexamined;
          if (cut2 > 0.0 && wr2[j] > cut2) continue;
          wkeep.push_back(static_cast<std::uint32_t>(j));
        }

        for (const simd::Backend backend : supported_backends()) {
          simd::set_backend(backend);
          std::vector<double> dx(kN), dy(kN), r2(kN);
          std::vector<std::uint32_t> keep(kN, 0xFFFFFFFFu);
          const simd::LaneTestCount c = simd::test_lanes(
              row, sx.data(), sy.data(), sid.data(), kN, dx.data(), dy.data(), r2.data(),
              keep.data());
          const std::string where = std::string(simd::backend_name(backend)) +
                                    (periodic ? " periodic" : " reflective") +
                                    (two_d ? " 2d" : " 1d") + " cut2=" + std::to_string(cut2);
          EXPECT_EQ(c.examined, wexamined) << where;
          EXPECT_EQ(c.kept, cut2 > 0.0 ? wkeep.size() : wexamined) << where;
          for (std::size_t j = 0; j < kN; ++j) {
            ASSERT_EQ(bits(dx[j]), bits(wdx[j])) << where << " lane " << j;
            ASSERT_EQ(bits(dy[j]), bits(wdy[j])) << where << " lane " << j;
            ASSERT_EQ(bits(r2[j]), bits(wr2[j])) << where << " lane " << j;
          }
          if (cut2 > 0.0) {
            for (std::size_t k = 0; k < wkeep.size(); ++k)
              ASSERT_EQ(keep[k], wkeep[k]) << where << " kept #" << k;
          }
        }
      }
    }
  }
}

// A NaN r2 is not `> cut2`, so the reference keeps it; the mask must agree.
TEST(TestLanes, NanDistanceIsKeptLikeTheReference) {
  BackendGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> sx = {0.1f, nan, 0.9f, 0.2f, nan};
  std::vector<float> sy(sx.size(), 0.0f);
  std::vector<std::int32_t> sid = {1, 2, 3, 4, 5};
  simd::LaneTest row;
  row.x = 0.15;
  row.id = 0;
  row.cut2 = 0.01;
  for (const simd::Backend backend : supported_backends()) {
    simd::set_backend(backend);
    std::vector<double> dx(sx.size()), dy(sx.size()), r2(sx.size());
    std::vector<std::uint32_t> keep(sx.size());
    const auto c = simd::test_lanes(row, sx.data(), sy.data(), sid.data(), sx.size(), dx.data(),
                                    dy.data(), r2.data(), keep.data());
    ASSERT_EQ(c.kept, 4u) << simd::backend_name(backend);
    EXPECT_EQ(keep[0], 0u);
    EXPECT_EQ(keep[1], 1u);
    EXPECT_EQ(keep[2], 3u);
    EXPECT_EQ(keep[3], 4u);
  }
}

}  // namespace
