// The resident force sweep: test every lane, then evaluate the kept ones.
//
// core::RealPolicy::interact runs this for every block-block interaction of
// every engine on real payloads. It is bitwise the AoS reference
// particles::accumulate_forces (kernels.hpp) on SoA lanes, in two passes per
// source chunk of one target:
//
//  1. simd::test_lanes computes dx, dy and r2 for every lane of the chunk
//     and tests id and cutoff as lane masks, with no branches (scalar, SSE2
//     or AVX2 body, dispatched at run time). Under a cutoff it packs the
//     indices of the lanes the reference loop does not `continue` past;
//     without one, every lane stays in place and the self lane is masked so
//     it adds an exact zero.
//  2. The kernel runs on those lanes only — `magnitude_lanes` for kernels
//     whose lane pipeline is bitwise `magnitude` (K::kLanesExact),
//     `magnitude` otherwise — and each target adds `mag * dx` and
//     `mag * dy` into one running double sum in source order.
//
// Why this stays bitwise: a kept pair gets the reference's operations in the
// reference's order (same promotions, same minimum-image compare and one
// add or subtract, r2 = dx*dx + dy*dy, the same magnitude, no FMA anywhere),
// so every partial sum is the same double. A skipped pair is exactly one the
// reference skips, and a masked lane adds ±0.0 to a sum that started at
// +0.0 — which cannot change it. The call's total folds through float once
// per target, where the AoS loop stored into its float field.
//
// `examined` (what the vmpi ledger is charged from) counts lanes whose id
// differs from the target's, `within_cutoff` the kept ones, exactly as the
// reference counts them; `computed` is the lanes the host evaluated.
#pragma once

#include <algorithm>
#include <cstdint>

#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_block.hpp"

namespace canb::particles {

/// Kernels whose `magnitude_lanes` is bitwise `magnitude` (the exact simd
/// inverse-cube lanes); the sweep evaluates them a lane batch at a time.
template <class K>
concept ExactLaneKernel = LaneBatchedKernel<K> && K::kLanesExact;

/// Source lanes per test pass: its dx/dy/r2 scratch stays L1-resident.
inline constexpr std::size_t kSweepChunk = 128;

/// Accumulates the forces of `src` on `tgt` (see the header comment).
/// Same-id pairs are skipped; with cutoff > 0 only pairs within it add.
template <ForceKernel K>
InteractionCount sweep_blocks(SoaBlock& tgt, const SoaBlock& src, const Box& box,
                              const K& kernel, double cutoff = 0.0) {
  InteractionCount count;
  const bool periodic = box.boundary == Boundary::Periodic;
  const bool two_d = box.dims == 2;
  simd::LaneTest row;
  row.two_d = two_d;
  row.wrap_x = periodic ? box.lx : 0.0;
  row.wrap_y = periodic && two_d ? box.ly : 0.0;
  row.cut2 = cutoff > 0.0 ? cutoff * cutoff : 0.0;
  const bool cut = row.cut2 > 0.0;

  const float* tcpl = nullptr;
  const float* scpl = nullptr;
  if constexpr (K::kCoupling == Coupling::Charge) {
    tcpl = tgt.charges();
    scpl = src.charges();
  } else if constexpr (K::kCoupling == Coupling::Mass) {
    tcpl = tgt.masses();
    scpl = src.masses();
  }

  alignas(32) double dx[kSweepChunk];
  alignas(32) double dy[kSweepChunk];
  alignas(32) double r2[kSweepChunk];
  alignas(32) double r2k[kSweepChunk];
  alignas(32) double cpl[kSweepChunk];
  alignas(32) double mag[kSweepChunk];
  std::uint32_t keep[kSweepChunk];

  const std::size_t nt = tgt.size();
  const std::size_t ns = src.size();
  for (std::size_t i = 0; i < nt; ++i) {
    row.x = static_cast<double>(tgt.px[i]);
    row.y = two_d ? static_cast<double>(tgt.py[i]) : 0.0;
    row.id = tgt.id[i];
    // The coupling lane_coupling forms: each float lane widened, then one
    // product.
    const double ci = K::kCoupling == Coupling::None ? 1.0 : static_cast<double>(tcpl[i]);
    const auto coupling = [&](std::size_t j) {
      if constexpr (K::kCoupling == Coupling::None) {
        return 1.0;
      } else {
        return ci * static_cast<double>(scpl[j]);
      }
    };
    double ax = 0.0;
    double ay = 0.0;
    for (std::size_t j0 = 0; j0 < ns; j0 += kSweepChunk) {
      const std::size_t len = std::min(kSweepChunk, ns - j0);
      const simd::LaneTestCount t =
          simd::test_lanes(row, src.xs() + j0, src.ys() + j0, src.ids() + j0, len, dx, dy, r2,
                           keep);
      count.examined += t.examined;
      count.within_cutoff += t.kept;
      if (cut) {
        count.computed += t.kept;
        if constexpr (ExactLaneKernel<K>) {
          for (std::size_t k = 0; k < t.kept; ++k) {
            r2k[k] = r2[keep[k]];
            cpl[k] = coupling(j0 + keep[k]);
          }
          kernel.magnitude_lanes(r2k, cpl, mag, t.kept);
          for (std::size_t k = 0; k < t.kept; ++k) {
            ax += mag[k] * dx[keep[k]];
            ay += mag[k] * dy[keep[k]];
          }
        } else {
          for (std::size_t k = 0; k < t.kept; ++k) {
            const std::size_t j = keep[k];
            const double m = kernel.magnitude(r2[j], coupling(j0 + j));
            ax += m * dx[j];
            ay += m * dy[j];
          }
        }
      } else {
        count.computed += len;
        if constexpr (ExactLaneKernel<K>) {
          for (std::size_t j = 0; j < len; ++j) cpl[j] = coupling(j0 + j);
          kernel.magnitude_lanes(r2, cpl, mag, len);
          for (std::size_t j = 0; j < len; ++j) {
            ax += mag[j] * dx[j];
            ay += mag[j] * dy[j];
          }
        } else {
          for (std::size_t j = 0; j < len; ++j) {
            const double m = kernel.magnitude(r2[j], coupling(j0 + j));
            ax += m * dx[j];
            ay += m * dy[j];
          }
        }
      }
    }
    // Float fold per target, as the AoS loop's `t.fx += float(ax)`: resident
    // force lanes hold float-representable values at every phase boundary.
    tgt.fx[i] = static_cast<double>(static_cast<float>(tgt.fx[i]) + static_cast<float>(ax));
    tgt.fy[i] = static_cast<double>(static_cast<float>(tgt.fy[i]) + static_cast<float>(ay));
  }
  return count;
}

}  // namespace canb::particles
