// The resident force sweep (particles/sweep.hpp) against the AoS reference
// particles::accumulate_forces: for every kernel, boundary, dimension,
// cutoff, self or cross block pair, block size at the SIMD lane and sweep
// chunk edges, and SIMD backend this machine supports, the float force
// lanes must match bit for bit and `examined` / `within_cutoff` exactly.
// The cell cull is pinned at its edges (non-finite and far-away lanes, a
// pair exactly at the cutoff across a cell boundary, periodic pairs across
// the box edge, a tiny cutoff on a large block), and so are the cases where
// `computed` is exact. The paired and self sweeps (sweep_pair,
// sweep_self) are pinned the same way for both sides of every pair, their
// loops double for double against the direct loop, and RealPolicy's
// choice of them (a lane replica for a self step; interact_pair for every
// kernel and cutoff). The test pass itself (simd::test_lanes) is also
// pinned lane by lane across backends, and so is the dispatch plumbing
// (backend names, set_backend's clamp). The simd-backends CI job re-runs
// this binary with each CANB_SIMD value.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/policy.hpp"
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
            // `computed` counts the candidate pairs the cull kept: every pair
            // without a cutoff, at least the pairs in range under one.
            const auto all_pairs = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
            if (cutoff > 0.0) {
              ASSERT_LE(c.within_cutoff, c.computed) << where;
              ASSERT_LE(c.computed, all_pairs) << where;
            } else {
              ASSERT_EQ(c.computed, all_pairs) << where;
            }
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

// --- the cell cull at its edges ---------------------------------------------

/// Runs the sweep on every backend and checks it against the reference:
/// float forces bit for bit where the reference's are not NaN, NaN exactly
/// where they are, and `examined` / `within_cutoff` exactly. Returns the
/// sweep's counts (the same on every backend).
template <class K>
particles::InteractionCount expect_matches_reference(const Block& targets, const Block& sources,
                                                     const Box& box, const K& kernel,
                                                     double cutoff, const std::string& what) {
  Block want = targets;
  const particles::InteractionCount ref = particles::accumulate_forces(
      std::span<particles::Particle>(want), std::span<const particles::Particle>(sources), box,
      kernel, cutoff);
  const particles::SoaBlock src(sources);
  particles::InteractionCount got_count;
  for (const simd::Backend backend : supported_backends()) {
    simd::set_backend(backend);
    particles::SoaBlock got(targets);
    got_count = particles::sweep_blocks(got, src, box, kernel, cutoff);
    const std::string where = what + " kernel=" + K::kName + " backend=" + simd::backend_name(backend);
    EXPECT_EQ(got_count.examined, ref.examined) << where;
    EXPECT_EQ(got_count.within_cutoff, ref.within_cutoff) << where;
    EXPECT_LE(got_count.within_cutoff, got_count.computed) << where;
    EXPECT_LE(got_count.computed,
              static_cast<std::uint64_t>(targets.size()) * sources.size())
        << where;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      for (const auto& [g, w] : {std::pair{static_cast<float>(got.fx[i]), want[i].fx},
                                 std::pair{static_cast<float>(got.fy[i]), want[i].fy}}) {
        if (std::isnan(w))
          EXPECT_TRUE(std::isnan(g)) << where << " i=" << i;
        else
          EXPECT_EQ(bits(g), bits(w)) << where << " i=" << i;
      }
    }
  }
  return got_count;
}

/// Both sweep paths: the inverse-cube lanes and the generic test pass.
template <class Fn>
void for_both_paths(Fn&& fn) {
  fn(make_kernel<particles::InverseSquareRepulsion>());
  fn(make_kernel<particles::Yukawa>());
}

TEST(SweepCull, NonFiniteLanesMatchTheReference) {
  BackendGuard guard;
  const float kValues[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  for (const BoxCase& bc : kBoxes) {
    for (const float v : kValues) {
      for (const int where : {0, 1, 2}) {  // source lane, target lane, both
        Block targets = make_block(67, bc.box, 11, 0);
        Block sources = make_block(71, bc.box, 12, 100000);
        if (where != 1) sources[5].px = v;
        if (where != 0) targets[9].px = v;
        if (where == 2 && bc.box.dims == 2) sources[40].py = v;
        for_both_paths([&](const auto& kernel) {
          expect_matches_reference(targets, sources, bc.box, kernel, 0.1,
                                   std::string(bc.name) + " value=" + std::to_string(v) +
                                       " where=" + std::to_string(where));
        });
      }
    }
  }
}

TEST(SweepCull, FarAwayFiniteCoordinatesMatchTheReference) {
  BackendGuard guard;
  for (const BoxCase& bc : kBoxes) {
    Block targets = make_block(67, bc.box, 21, 0);
    Block sources = make_block(71, bc.box, 22, 100000);
    // Two lanes at the same far point (a kept pair), one far on the other
    // side, and one far only in y.
    targets[3].px = 1e30f;
    sources[7].px = 1e30f;
    sources[8].px = -1e30f;
    targets[4].py = bc.box.dims == 2 ? -1e30f : targets[4].py;
    for_both_paths([&](const auto& kernel) {
      expect_matches_reference(targets, sources, bc.box, kernel, 0.1, bc.name);
    });
  }
}

TEST(SweepCull, PairExactlyAtTheCutoffAcrossACellBoundaryIsKept) {
  BackendGuard guard;
  // Binary-exact 3-4-5 triangle: r2 == cut2 exactly, and the two lanes are
  // two cell sides apart on each axis — the edge of the cull's reach.
  const double cutoff = 0.3125;
  for (const BoxCase& bc : kBoxes) {
    const bool two_d = bc.box.dims == 2;
    Block targets = make_block(3, bc.box, 31, 0);
    Block sources = make_block(3, bc.box, 32, 100000);
    targets[0].px = 0.5f;
    targets[0].py = 0.5f;
    targets[1].px = 0.0f;  // pins the grid's origin at 0: the pair is two
    targets[1].py = 0.0f;  // cells apart on each axis
    sources[1].px = two_d ? 0.3125f : 0.1875f;  // dx = 0.1875 (2D) or 0.3125 (1D)
    sources[1].py = 0.25f;                      // dy = 0.25
    for_both_paths([&](const auto& kernel) {
      const auto c = expect_matches_reference(targets, sources, bc.box, kernel, cutoff, bc.name);
      EXPECT_GE(c.within_cutoff, 1u) << bc.name;
    });
  }
}

TEST(SweepCull, PeriodicPairsAcrossTheBoxEdgeMatchTheReference) {
  BackendGuard guard;
  for (const Box& box : {Box::periodic_2d(1.0), Box::periodic_1d(1.0)}) {
    // Targets hug the low edge, sources the high edge: every pair in range
    // is one the minimum image wraps.
    Block targets = make_block(97, box, 41, 0);
    Block sources = make_block(89, box, 42, 100000);
    for (auto& p : targets) p.px *= 0.08f;
    for (auto& p : sources) p.px = 1.0f - p.px * 0.08f;
    for_both_paths([&](const auto& kernel) {
      const auto c = expect_matches_reference(targets, sources, box, kernel, 0.1,
                                              box.dims == 2 ? "periodic-2d" : "periodic-1d");
      EXPECT_GT(c.within_cutoff, 0u);
    });
  }
}

TEST(SweepCull, TinyCutoffOnALargeBlockKeepsTheGridSmall) {
  BackendGuard guard;
  const double cutoff = 1e-6;
  for (const BoxCase& bc : kBoxes) {
    const Block block = make_block(2000, bc.box, 51, 0);
    const particles::SoaBlock soa(block);
    particles::detail::CullGrid grid;
    EXPECT_TRUE(grid.build(soa, soa, bc.box, cutoff)) << bc.name;
    // About one cell per lane at most, and never finer than cutoff/2.
    EXPECT_LE(grid.cells(), 2 * block.size()) << bc.name;
    EXPECT_GE(grid.side_x(), cutoff / 2) << bc.name;
    for_both_paths([&](const auto& kernel) {
      expect_matches_reference(block, block, bc.box, kernel, cutoff, bc.name);
    });
  }
}

TEST(SweepCull, ComputedIsExactForFarAndForNearBlocks) {
  BackendGuard guard;
  const Box box = Box::reflective_2d(1.0);
  const double cutoff = 0.1;
  const int n = 37;
  Block targets = make_block(n, box, 61, 0);
  Block far = make_block(n, box, 62, 100000);
  Block near = make_block(n, box, 63, 200000);
  for (auto& p : far) {  // 3 cutoffs away in x
    p.px = 0.4f + p.px * 0.1f;
    p.py *= 0.1f;
  }
  for (auto& p : near) {  // every pair closer than cutoff/2
    p.px = 0.01f + p.px * 0.02f;
    p.py = 0.01f + p.py * 0.02f;
  }
  for (auto& p : targets) {
    p.px = 0.01f + p.px * 0.02f;
    p.py = 0.01f + p.py * 0.02f;
  }
  for_both_paths([&](const auto& kernel) {
    const auto cf = expect_matches_reference(targets, far, box, kernel, cutoff, "far");
    EXPECT_EQ(cf.computed, 0u);
    EXPECT_EQ(cf.examined, static_cast<std::uint64_t>(n) * n);
    const auto cn = expect_matches_reference(targets, near, box, kernel, cutoff, "near");
    EXPECT_EQ(cn.computed, static_cast<std::uint64_t>(n) * n);
    EXPECT_EQ(cn.within_cutoff, static_cast<std::uint64_t>(n) * n);
  });
}

// --- the paired sweeps ------------------------------------------------------

template <class K>
class PairedSweep : public ::testing::Test {};

using InvCubeKernels = ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity>;
TYPED_TEST_SUITE(PairedSweep, InvCubeKernels, KernelNames);

/// The first lane whose float force differs from the reference's (NaN
/// matches NaN), or -1.
int first_force_mismatch(const particles::SoaBlock& got, const Block& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (const auto& [g, w] : {std::pair{static_cast<float>(got.fx[i]), want[i].fx},
                               std::pair{static_cast<float>(got.fy[i]), want[i].fy}}) {
      if (std::isnan(w) ? !std::isnan(g) : bits(g) != bits(w)) return static_cast<int>(i);
    }
  }
  return -1;
}

/// What a lane-test block carries besides its seeded particles.
enum class Lanes { SameIds, NanFirst, NanSecond };

/// Blocks of na and nb particles in `box` with distinct ids across the
/// blocks, except: SameIds gives each block a lane with another lane's id
/// and b a lane with one of a's ids; NanFirst / NanSecond put a NaN
/// coordinate in a lane of a / of b (every sum that pairs with it is NaN).
std::pair<Block, Block> lane_test_blocks(int na, int nb, const Box& box, std::uint64_t seed,
                                         Lanes lanes) {
  Block a = make_block(na, box, seed, 0);
  Block b = make_block(nb, box, seed + 500, 100000);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  switch (lanes) {
    case Lanes::SameIds:
      if (na > 3) a[3].id = a[1].id;
      if (nb > 5) b[5].id = b[4].id;
      if (na > 0 && nb > 2) b[2].id = a[0].id;
      break;
    case Lanes::NanFirst:
      if (na > 1) a[1].px = nan;
      break;
    case Lanes::NanSecond:
      if (nb > 3) b[3].px = nan;
      break;
  }
  return {std::move(a), std::move(b)};
}

std::string lanes_name(Lanes lanes) {
  switch (lanes) {
    case Lanes::SameIds: return "same-ids";
    case Lanes::NanFirst: return "nan-in-a";
    case Lanes::NanSecond: return "nan-in-b";
  }
  return "?";
}

// sweep_pair against two accumulate_forces calls: a's lanes directly, b's
// after folding the partner sums into a block with b's lanes.
TYPED_TEST(PairedSweep, BothDirectionsMatchTheReferenceOnEveryBackend) {
  BackendGuard guard;
  const auto kernel = make_kernel<TypeParam>();
  std::uint64_t seed = 7;
  for (const BoxCase& bc : kBoxes) {
    for (const Lanes lanes : {Lanes::SameIds, Lanes::NanFirst, Lanes::NanSecond}) {
      for (const int na : kSizes) {
        for (const int nb : kSizes) {
          if (na == nb) continue;
          ++seed;
          const auto [a, b] = lane_test_blocks(na, nb, bc.box, seed, lanes);
          Block want_a = a;
          Block want_b = b;
          const auto ref_a = particles::accumulate_forces(
              std::span<particles::Particle>(want_a), std::span<const particles::Particle>(b),
              bc.box, kernel);
          const auto ref_b = particles::accumulate_forces(
              std::span<particles::Particle>(want_b), std::span<const particles::Particle>(a),
              bc.box, kernel);
          ASSERT_EQ(ref_a.examined, ref_b.examined);
          const particles::SoaBlock visitor(b);
          for (const simd::Backend backend : supported_backends()) {
            simd::set_backend(backend);
            const std::string where = std::string(bc.name) + " " + lanes_name(lanes) +
                                      " na=" + std::to_string(na) + " nb=" +
                                      std::to_string(nb) + " backend=" +
                                      simd::backend_name(backend);
            particles::SoaBlock got_a(a);
            particles::SoaBlock got_b(b);
            particles::LaneSums sums;
            const auto c = particles::sweep_pair(got_a, visitor, bc.box, kernel, sums);
            particles::fold_sums(got_b, sums);
            ASSERT_EQ(c.examined, ref_a.examined) << where;
            ASSERT_EQ(c.within_cutoff, ref_a.within_cutoff) << where;
            ASSERT_EQ(c.computed, static_cast<std::uint64_t>(na) * static_cast<std::uint64_t>(nb))
                << where;
            ASSERT_EQ(first_force_mismatch(got_a, want_a), -1) << where << " (a's lanes)";
            ASSERT_EQ(first_force_mismatch(got_b, want_b), -1) << where << " (b's lanes)";
          }
        }
      }
    }
  }
}

// sweep_self against accumulate_forces of a block on its replica.
TYPED_TEST(PairedSweep, SelfMatchesTheReferenceOnAReplica) {
  BackendGuard guard;
  const auto kernel = make_kernel<TypeParam>();
  std::uint64_t seed = 900;
  for (const BoxCase& bc : kBoxes) {
    for (const Lanes lanes : {Lanes::SameIds, Lanes::NanFirst}) {
      for (const int n : kSizes) {
        ++seed;
        const Block a = lane_test_blocks(n, 0, bc.box, seed, lanes).first;
        Block want = a;
        const auto ref = particles::accumulate_forces(
            std::span<particles::Particle>(want), std::span<const particles::Particle>(a),
            bc.box, kernel);
        for (const simd::Backend backend : supported_backends()) {
          simd::set_backend(backend);
          const std::string where = std::string(bc.name) + " " + lanes_name(lanes) +
                                    " n=" + std::to_string(n) + " backend=" +
                                    simd::backend_name(backend);
          particles::SoaBlock got(a);
          const auto c = particles::sweep_self(got, bc.box, kernel);
          ASSERT_EQ(c.examined, ref.examined) << where;
          ASSERT_EQ(c.within_cutoff, ref.within_cutoff) << where;
          const auto un = static_cast<std::uint64_t>(n);
          ASSERT_EQ(c.computed, n > 0 ? un * (un - 1) / 2 : 0) << where;
          ASSERT_EQ(first_force_mismatch(got, want), -1) << where;
        }
      }
    }
  }
}

// The loops themselves, before any float fold: the paired loop's sums for
// both sides, and the self loop's, equal the direct loop's double for
// double, at every lane edge of both sides.
TEST(PairedSweepLoops, DoubleSumsEqualTheDirectLoopOnEveryBackend) {
  BackendGuard guard;
  std::mt19937_64 rng(2013);
  std::uniform_real_distribution<double> pos(0.0, 1.0);
  std::uniform_real_distribution<double> cpl(0.25, 2.0);
  const auto lanes_of = [&](std::size_t n, double id_base, std::vector<double> (&v)[4]) {
    for (auto& lane : v) lane.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[0][i] = static_cast<double>(static_cast<float>(pos(rng)));
      v[1][i] = static_cast<double>(static_cast<float>(pos(rng)));
      v[2][i] = id_base + static_cast<double>(i % 11 == 10 ? i - 1 : i);  // a repeated id
      v[3][i] = static_cast<double>(static_cast<float>(cpl(rng)));
    }
    return simd::SweepLanes{v[0].data(), v[1].data(), v[2].data(), v[3].data(), n};
  };
  const auto same = [](const std::vector<double>& got, const std::vector<double>& want) {
    for (std::size_t i = 0; i < want.size(); ++i)
      if (bits(got[i]) != bits(want[i])) return static_cast<int>(i);
    return -1;
  };
  for (const bool periodic : {false, true}) {
    for (const bool two_d : {false, true}) {
      const simd::InvCubeSweep p{two_d, periodic ? 1.0 : 0.0, periodic && two_d ? 1.0 : 0.0,
                                 0.0, -1e-4, 1e-4};
      for (const int na : kSizes) {
        for (const int nb : kSizes) {
          std::vector<double> va[4], vb[4];
          const auto a = lanes_of(static_cast<std::size_t>(na), 0.0, va);
          auto b = lanes_of(static_cast<std::size_t>(nb), 1e6, vb);
          if (na > 0 && nb > 1) vb[2][1] = va[2][0];  // a same-id pair across the blocks
          for (const simd::Backend backend : supported_backends()) {
            simd::set_backend(backend);
            const std::string where = std::string(simd::backend_name(backend)) +
                                      (periodic ? " periodic" : " reflective") +
                                      (two_d ? " 2d" : " 1d") + " na=" + std::to_string(na) +
                                      " nb=" + std::to_string(nb);
            std::vector<double> wax(va[0].size()), way(va[0].size());
            std::vector<double> wbx(vb[0].size()), wby(vb[0].size());
            const std::size_t kept = simd::inv_cube_sweep(p, a, b, wax.data(), way.data());
            ASSERT_EQ(simd::inv_cube_sweep(p, b, a, wbx.data(), wby.data()), kept) << where;
            std::vector<double> ax(wax.size()), ay(wax.size()), bx(wbx.size()), by(wbx.size());
            ASSERT_EQ(simd::inv_cube_sweep_pair(p, a, b, ax.data(), ay.data(), bx.data(),
                                                by.data()),
                      kept)
                << where;
            ASSERT_EQ(same(ax, wax), -1) << where << " ax";
            ASSERT_EQ(same(ay, way), -1) << where << " ay";
            ASSERT_EQ(same(bx, wbx), -1) << where << " bx";
            ASSERT_EQ(same(by, wby), -1) << where << " by";
            if (nb != 0) continue;
            // Self: once per na, on a's lanes.
            std::vector<double> sx(wax.size()), sy(wax.size());
            const std::size_t self_kept = simd::inv_cube_sweep(p, a, a, sx.data(), sy.data());
            std::vector<double> hx(wax.size()), hy(wax.size());
            ASSERT_EQ(2 * simd::inv_cube_sweep_self(p, a, hx.data(), hy.data()), self_kept)
                << where;
            ASSERT_EQ(same(hx, sx), -1) << where << " self x";
            ASSERT_EQ(same(hy, sy), -1) << where << " self y";
          }
        }
      }
    }
  }
}

// RealPolicy runs the self sweep only on a lane replica; a visitor with
// one lane moved falls back to the direct sweep, and both match.
TEST(PairedSweepPolicy, SelfStepNeedsALaneReplica) {
  BackendGuard guard;
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const Box box = Box::periodic_2d(1.0);
  const Policy policy({box, make_kernel<particles::InverseSquareRepulsion>(), 0.0, 1e-3});
  const Block a = make_block(130, box, 77, 0);
  Block moved = a;
  moved[64].px = std::nextafter(moved[64].px, 1.0f);
  for (const auto& [visitor_ps, replica] : {std::pair{a, true}, std::pair{moved, false}}) {
    Block want = a;
    particles::accumulate_forces(std::span<particles::Particle>(want),
                                 std::span<const particles::Particle>(visitor_ps), box,
                                 policy.config().kernel);
    const particles::SoaBlock visitor(visitor_ps);
    for (const simd::Backend backend : supported_backends()) {
      simd::set_backend(backend);
      particles::SoaBlock got(a);
      const auto stats = policy.interact(got, visitor, /*same_block=*/true);
      const std::string where = std::string(replica ? "replica" : "near-replica") +
                                " backend=" + simd::backend_name(backend);
      EXPECT_EQ(stats.computed, replica ? 130u * 129u / 2 : 130u * 130u) << where;
      ASSERT_EQ(first_force_mismatch(got, want), -1) << where;
    }
  }
}

// interact_pair's partner sums, folded with fold_pair, match the partner's
// own sweep for both inverse-cube kernels. Any other kernel, or a cutoff,
// does not pair: the engine keeps its two sweeps.
TEST(PairedSweepPolicy, InteractPairMatchesBothSweeps) {
  BackendGuard guard;
  const auto check = [](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    using Policy = core::RealPolicy<K>;
    constexpr double cutoff = 0.0;
    for (const BoxCase& bc : kBoxes) {
      const Policy policy({bc.box, kernel, cutoff, 1e-3});
      ASSERT_TRUE(policy.pairs_once());
      const auto [a, b] = lane_test_blocks(131, 67, bc.box, 31, Lanes::SameIds);
      Block want_a = a;
      Block want_b = b;
      particles::accumulate_forces(std::span<particles::Particle>(want_a),
                                   std::span<const particles::Particle>(b), bc.box, kernel,
                                   cutoff);
      particles::accumulate_forces(std::span<particles::Particle>(want_b),
                                   std::span<const particles::Particle>(a), bc.box, kernel,
                                   cutoff);
      const particles::SoaBlock visitor(b);
      for (const simd::Backend backend : supported_backends()) {
        simd::set_backend(backend);
        const std::string where =
            std::string(K::kName) + " " + bc.name + " backend=" + simd::backend_name(backend);
        particles::SoaBlock got_a(a);
        particles::SoaBlock got_b(b);
        typename Policy::PairSums sums;
        policy.interact_pair(got_a, visitor, sums);
        Policy::fold_pair(got_b, sums);
        ASSERT_EQ(first_force_mismatch(got_a, want_a), -1) << where << " (resident)";
        ASSERT_EQ(first_force_mismatch(got_b, want_b), -1) << where << " (partner)";
      }
    }
  };
  check(make_kernel<particles::InverseSquareRepulsion>());
  check(make_kernel<particles::Gravity>());
  const Box box = Box::periodic_2d(1.0);
  EXPECT_FALSE(core::RealPolicy<particles::InverseSquareRepulsion>(
                   {box, make_kernel<particles::InverseSquareRepulsion>(), 0.2, 1e-3})
                   .pairs_once());
  EXPECT_FALSE(core::RealPolicy<particles::Yukawa>({box, make_kernel<particles::Yukawa>(), 0.0,
                                                    1e-3})
                   .pairs_once());
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
  BackendGuard guard;
  const simd::Backend max = simd::max_supported();
  for (const simd::Backend want : supported_backends()) {
    EXPECT_EQ(simd::set_backend(want), want);
    EXPECT_EQ(simd::active(), want);
  }
  // Requesting past the hardware clamps instead of installing garbage.
  EXPECT_LE(simd::set_backend(simd::Backend::Avx2), max);
  EXPECT_LE(simd::active(), max);
}

}  // namespace
