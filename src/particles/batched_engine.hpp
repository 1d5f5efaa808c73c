// The batched kernel engine: SoA-tiled, branch-minimized force sweeps.
//
// Scope: the span and cell-list sweeps (particles::SerialReference with
// KernelEngine::Batched, cell_list_forces, bench/kernel_engines_bench). The
// resident path every CA engine runs is particles/sweep.hpp instead.
//
// Host time vs virtual time: everything in this file changes only how fast
// the *host* executes a block-block interaction. The α-β-γ ledger is charged
// from the returned InteractionCount, so both engines must agree on
// `examined`/`within_cutoff` exactly (bitwise) — tests enforce this. The
// scalar AoS loop (particles::accumulate_forces) stays the exactness
// reference.
//
// The sweep is generic over its operand layout: resident SoaBlocks (float
// lanes, promoted to double per load — an exact conversion the vectorizer
// folds into the loads) and gathered SoaTiles (double lanes) share one
// implementation, so the resident pipeline pays zero pack/scatter while the
// cell-list path still gathers neighborhoods into tiles by index list.
//
// Inner-loop shape (the part compilers can vectorize):
//  * sources are swept in cache-resident tiles of kTileWidth lanes;
//  * the minimum-image correction, self-pair test, and cutoff test are all
//    arithmetic masks (compares producing 0.0/1.0), not branches;
//  * masked-out lanes get their r2 pushed away from the singularity
//    (r2 + 1.0) so every kernel magnitude stays finite, then the magnitude
//    is multiplied by the mask — adding an exact 0.0 to the accumulator;
//  * per-target accumulation runs in double and in source order, so active
//    pairs produce the same sums as the scalar engine;
//  * one store per target into the operand's force lanes.
//
// Force-lane precision invariant: resident SoaBlock force lanes hold
// float-representable values at every phase boundary. Sweeps accumulate in
// double *within* a call and fold the call's total through float on store —
// exactly where the AoS pipeline stored to a float field. This keeps
// trajectories (and therefore every position-dependent real-policy ledger
// charge, e.g. re-assignment bytes) bitwise identical to the wire-format
// pipeline, and makes the 52-byte serialization lossless at any time.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_block.hpp"
#include "particles/soa_tile.hpp"
#include "support/parallel.hpp"

namespace canb::particles {

/// Selects the host-side implementation of the block-block force sweep.
/// Scalar is the original pairwise loop (the exactness reference); Batched
/// is the SoA tiled engine. Virtual-time results are identical by
/// construction.
enum class KernelEngine { Scalar, Batched };

/// Caller-owned scratch tiles for the span-based sweep paths (the serial
/// reference, benches, and the cell-list neighborhood gathers). Owning the
/// scratch at the call site bounds its lifetime to the simulation using it —
/// the previous thread_local tiles retained peak capacity per thread for the
/// process lifetime across unrelated simulations.
struct SweepScratch {
  SoaTile targets;
  SoaTile sources;
};

class BatchedEngine {
 public:
  /// Source lanes processed per tile: 3 double scratch buffers + 5 source
  /// lanes at this width stay comfortably inside L1.
  static constexpr std::size_t kTileWidth = 128;

  /// Seeded default for sweep's inline-vs-lane pipeline threshold: at or
  /// below this many sources, kernels with an exact lane pipeline
  /// (K::kLanesExact) run the inlined auto-vectorized pipeline instead of
  /// the out-of-line SIMD lane call — sized from the PR 6 small-block
  /// regression (n=128/rank cross-sweeps ~16% slower out-of-lined). The
  /// host tuner can calibrate per (kernel, n); this default needs no
  /// calibration run.
  static constexpr std::size_t kInlineLaneMax = 192;

  /// Runs the tiled sweep of `src` against `tgt`, accumulating into the
  /// target's double fx/fy lanes. Operands are anything exposing the shared
  /// lane accessors (SoaBlock, SoaTile). Pair semantics match the scalar
  /// engine: same-id pairs are skipped, every other pair is examined, and
  /// only pairs within the cutoff (all of them when cutoff <= 0) contribute.
  /// `tile` (clamped to [1, kTileWidth]) is the runtime source-tile width;
  /// the default matches the historical constant, and the host tuner may
  /// lower it for small blocks. Tile width changes double-level partial
  /// grouping only — the per-call float fold at the store collapses it, so
  /// trajectories are unaffected (layout-invariance tests pin this).
  ///
  /// `inline_lane_max`: source blocks at or below this size run kernels
  /// with an EXACT lane pipeline (K::kLanesExact) through the inlined
  /// pre-dispatch pipeline instead of the out-of-line lane call, which
  /// costs more than it vectorizes on small tiles. Bitwise-neutral by the
  /// kLanesExact contract; approximate lane kernels (exp) never switch.
  ///
  /// `pool`: optional host pool — target-tile chunks fan out as scheduler
  /// tasks. Chunks store to disjoint target ranges and each target's fold
  /// runs entirely inside its chunk in serial source order, so forces are
  /// bitwise identical for any schedule and thread count; the counters are
  /// exact integer sums. Do NOT pass a pool from inside another
  /// parallel_tasks body (the scheduler does not nest).
  template <ForceKernel K, class TgtT, class SrcT>
  static InteractionCount sweep(TgtT& tgt, const SrcT& src, const Box& box, const K& kernel,
                                double cutoff, std::size_t tile = kTileWidth,
                                std::size_t inline_lane_max = kInlineLaneMax,
                                ThreadPool* pool = nullptr) {
    tile = std::clamp<std::size_t>(tile, 1, kTileWidth);
    const std::size_t nt = tgt.size();
    const std::size_t ns = src.size();
    const bool periodic = box.boundary == Boundary::Periodic;
    // Reflective boxes zero the wrap length, turning the minimum-image
    // correction into an exact no-op without a per-pair branch; 1D boxes
    // zero the y displacement the same way (multiply by 0.0).
    const double lxs = periodic ? box.lx : 0.0;
    const double lys = periodic && box.dims == 2 ? box.ly : 0.0;
    const double dimy = box.dims == 2 ? 1.0 : 0.0;
    const double hx = 0.5 * box.lx;
    const double hy = 0.5 * box.ly;
    const double cut2 =
        cutoff > 0.0 ? cutoff * cutoff : std::numeric_limits<double>::infinity();

    const auto* const sx = src.xs();
    const auto* const sy = src.ys();
    const std::int32_t* const sid = src.ids();
    decltype(src.charges()) scpl = nullptr;
    if constexpr (K::kCoupling == Coupling::Charge) scpl = src.charges();
    if constexpr (K::kCoupling == Coupling::Mass) scpl = src.masses();

    const auto* const tx = tgt.xs();
    const auto* const ty = tgt.ys();
    const std::int32_t* const tid = tgt.ids();
    double* const tfx = tgt.fxs();
    double* const tfy = tgt.fys();

    // Source-tile bounding boxes for the cutoff cull below. A culled tile is
    // one where a conservative lower bound on the min-image distance from
    // the target to the tile's bbox already exceeds the cutoff: every lane's
    // mask would be 0.0 and its force contribution an exact ±0.0, so
    // skipping the tile leaves force sums bitwise unchanged (a sum that
    // starts at +0.0 is unaffected by adding signed zeros). `within` gains
    // nothing and `examined` only needs the id compares, so the ledger is
    // bitwise identical too — the cull elides only sqrt/divide work.
    constexpr std::size_t kMaxCullTiles = 256;
    const std::size_t ntiles = (ns + tile - 1) / tile;
    const bool cull = cutoff > 0.0 && ns > 0 && ntiles <= kMaxCullTiles;
    double bminx[kMaxCullTiles];
    double bmaxx[kMaxCullTiles];
    double bminy[kMaxCullTiles];
    double bmaxy[kMaxCullTiles];
    if (cull) {
      for (std::size_t b = 0; b < ntiles; ++b) {
        const std::size_t j0 = b * tile;
        const std::size_t len = std::min(tile, ns - j0);
        double mnx = static_cast<double>(sx[j0]);
        double mxx = mnx;
        double mny = static_cast<double>(sy[j0]);
        double mxy = mny;
        for (std::size_t t = 1; t < len; ++t) {
          const double x = static_cast<double>(sx[j0 + t]);
          const double y = static_cast<double>(sy[j0 + t]);
          mnx = std::min(mnx, x);
          mxx = std::max(mxx, x);
          mny = std::min(mny, y);
          mxy = std::max(mxy, y);
        }
        bminx[b] = mnx;
        bmaxx[b] = mxx;
        bminy[b] = mny;
        bmaxy[b] = mxy;
      }
    }
    // Lower bound on the min-image |d| from point v to interval [lo, hi]:
    // direct distance when reflective; under wrap, min-image(|diff|) >=
    // min(d_lo, L - d_hi) for |diff| in [d_lo, d_hi] (clamped at 0).
    const auto axis_bound = [](double v, double lo, double hi, double wrap) noexcept {
      const double dlo = v < lo ? lo - v : (v > hi ? v - hi : 0.0);
      if (wrap <= 0.0) return dlo;
      const double dhi = std::max(v < lo ? hi - v : v - lo, hi - lo);
      return std::max(0.0, std::min(dlo, wrap - dhi));
    };

    // Row pipeline choice for lane-batched kernels: exact-lane kernels
    // (kLanesExact) drop to the inlined pre-dispatch pipeline on small
    // source blocks, where the out-of-line lane call costs more than it
    // vectorizes. Bitwise-neutral by the kLanesExact contract; approximate
    // lane kernels (exp) never switch, and opting into fast rsqrt keeps
    // the lane path (the caller asked for it).
    [[maybe_unused]] bool lane_rows = true;
    if constexpr (LaneBatchedKernel<K>) {
      if constexpr (K::kLanesExact) {
        if (ns <= inline_lane_max && !simd::fast_rsqrt()) lane_rows = false;
      }
    }

    // Doubly tiled: targets advance in stack-accumulated chunks, source
    // tiles run innermost so one tile stays L1-hot across the whole chunk.
    // Each target still forms per-source-tile partial sums from zero and
    // adds them in tile order — the same grouping a zeroed gather tile
    // produced — so the single store per target below can fold the call's
    // contribution at the right precision for the operand.
    //
    // One target-tile chunk is the scheduler task unit: its stores hit a
    // disjoint target range and every fold inside it runs in serial source
    // order, so chunks can execute in any order on any worker.
    const auto sweep_chunk = [&](std::size_t i0, std::uint64_t& examined,
                                 std::uint64_t& within, std::uint64_t& computed) {
      const std::size_t ilen = std::min(tile, nt - i0);
      double accx[kTileWidth];
      double accy[kTileWidth];
      for (std::size_t ii = 0; ii < ilen; ++ii) accx[ii] = accy[ii] = 0.0;
      for (std::size_t j0 = 0; j0 < ns; j0 += tile) {
        const std::size_t len = std::min(tile, ns - j0);
        for (std::size_t ii = 0; ii < ilen; ++ii) {
          const std::size_t i = i0 + ii;
          const double xi = static_cast<double>(tx[i]);
          const double yi = static_cast<double>(ty[i]);
          const std::int32_t idi = tid[i];
          if (cull) {
            const std::size_t b = j0 / tile;
            const double bx = axis_bound(xi, bminx[b], bmaxx[b], lxs);
            const double by =
                dimy != 0.0 ? axis_bound(yi, bminy[b], bmaxy[b], lys) : 0.0;
            // The (1 - 1e-9) slack absorbs the few-ulp rounding in the
            // bound itself; a tile is only culled when provably out of
            // range, so the per-pair masks it skips were all exactly 0.0.
            if ((bx * bx + by * by) * (1.0 - 1e-9) > cut2) {
              for (std::size_t t = 0; t < len; ++t)
                examined += static_cast<std::uint64_t>(idi != sid[j0 + t]);
              continue;
            }
          }
          double ci = 1.0;
          if constexpr (K::kCoupling == Coupling::Charge)
            ci = static_cast<double>(tgt.charges()[i]);
          if constexpr (K::kCoupling == Coupling::Mass)
            ci = static_cast<double>(tgt.masses()[i]);
          double gx[kTileWidth];
          double gy[kTileWidth];
          double gm[kTileWidth];
          // Pass 1: independent lanes, no cross-iteration state — this is
          // the loop the auto-vectorizer packs.
          const auto plain_row = [&] {
            for (std::size_t t = 0; t < len; ++t) {
              const std::size_t j = j0 + t;
              double dx = xi - static_cast<double>(sx[j]);
              double dy = dimy * (yi - static_cast<double>(sy[j]));
              dx -= lxs * (static_cast<double>(dx > hx) - static_cast<double>(dx < -hx));
              dy -= lys * (static_cast<double>(dy > hy) - static_cast<double>(dy < -hy));
              const double r2 = dx * dx + dy * dy;
              const double m =
                  static_cast<double>(idi != sid[j]) * static_cast<double>(r2 <= cut2);
              const double r2g = r2 + (1.0 - m);
              double cpl = 1.0;
              if constexpr (K::kCoupling != Coupling::None)
                cpl = ci * static_cast<double>(scpl[j]);
              const double mag = kernel.magnitude(r2g, cpl) * m;
              gx[t] = mag * dx;
              gy[t] = mag * dy;
              gm[t] = m;
            }
          };
          if constexpr (LaneBatchedKernel<K>) {
            if (lane_rows) {
              // Kernels with a libm call in `magnitude` (exp) get a split
              // pass: geometry and masks into buffers (vectorizable), the
              // kernel's own lane loop (which hoists the libm call so it
              // doesn't clobber the vector registers mid-loop), then a
              // vectorizable combine. Masked lanes still evaluate at
              // r2g >= 1 and multiply to an exact 0.0.
              double r2b[kTileWidth];
              double mg[kTileWidth];
              double cb[kTileWidth];
              for (std::size_t t = 0; t < len; ++t) {
                const std::size_t j = j0 + t;
                double dx = xi - static_cast<double>(sx[j]);
                double dy = dimy * (yi - static_cast<double>(sy[j]));
                dx -= lxs * (static_cast<double>(dx > hx) - static_cast<double>(dx < -hx));
                dy -= lys * (static_cast<double>(dy > hy) - static_cast<double>(dy < -hy));
                const double r2 = dx * dx + dy * dy;
                const double m =
                    static_cast<double>(idi != sid[j]) * static_cast<double>(r2 <= cut2);
                gx[t] = dx;
                gy[t] = dy;
                gm[t] = m;
                r2b[t] = r2 + (1.0 - m);
                if constexpr (K::kCoupling != Coupling::None)
                  cb[t] = ci * static_cast<double>(scpl[j]);
              }
              kernel.magnitude_lanes(r2b, cb, mg, len);
              for (std::size_t t = 0; t < len; ++t) {
                const double mag = mg[t] * gm[t];
                gx[t] *= mag;
                gy[t] *= mag;
              }
            } else {
              plain_row();
            }
          } else {
            plain_row();
          }
          // Pass 2: in-order reduction, matching the scalar engine's
          // source-order accumulation (masked lanes add an exact 0.0).
          double fxi = 0.0;
          double fyi = 0.0;
          for (std::size_t t = 0; t < len; ++t) {
            fxi += gx[t];
            fyi += gy[t];
          }
          // Counting is exact integer arithmetic (masks are 0.0 or 1.0),
          // so it lives in its own vectorizable loop off the FP add ports
          // instead of riding the latency-bound reduction chain above.
          for (std::size_t t = 0; t < len; ++t) {
            within += static_cast<std::uint64_t>(gm[t] != 0.0);
            examined += static_cast<std::uint64_t>(idi != sid[j0 + t]);
          }
          computed += static_cast<std::uint64_t>(len);
          accx[ii] += fxi;
          accy[ii] += fyi;
        }
      }
      for (std::size_t ii = 0; ii < ilen; ++ii) {
        const std::size_t i = i0 + ii;
        if constexpr (std::is_same_v<std::remove_cv_t<TgtT>, SoaBlock>) {
          // Resident lanes: fold through float, where the AoS pipeline did
          // `p.fx += float(total)` at scatter (see the precision invariant
          // in the header comment).
          tfx[i] =
              static_cast<double>(static_cast<float>(tfx[i]) + static_cast<float>(accx[ii]));
          tfy[i] =
              static_cast<double>(static_cast<float>(tfy[i]) + static_cast<float>(accy[ii]));
        } else {
          // Gather tiles round at scatter_add_forces, not here.
          tfx[i] += accx[ii];
          tfy[i] += accy[ii];
        }
      }
    };

    std::uint64_t examined = 0;
    std::uint64_t within = 0;
    std::uint64_t computed = 0;
    const std::size_t nchunks = nt == 0 ? 0 : (nt + tile - 1) / tile;
    if (pool != nullptr && pool->thread_count() > 1 && nchunks > 1) {
      // Counters fold through per-task locals into relaxed atomics —
      // integer sums, exact in any order.
      std::atomic<std::uint64_t> aex{0}, awi{0}, aco{0};
      pool->parallel_tasks(static_cast<int>(nchunks), [&](int c, int) {
        std::uint64_t ex = 0, wi = 0, co = 0;
        sweep_chunk(static_cast<std::size_t>(c) * tile, ex, wi, co);
        aex.fetch_add(ex, std::memory_order_relaxed);
        awi.fetch_add(wi, std::memory_order_relaxed);
        aco.fetch_add(co, std::memory_order_relaxed);
      });
      examined = aex.load(std::memory_order_relaxed);
      within = awi.load(std::memory_order_relaxed);
      computed = aco.load(std::memory_order_relaxed);
    } else {
      for (std::size_t i0 = 0; i0 < nt; i0 += tile)
        sweep_chunk(i0, examined, within, computed);
    }
    return {examined, within, computed, /*half_sweep=*/false};
  }

  /// Largest block the N3L half-sweep handles with stack accumulators
  /// (2 x 64 KiB); larger blocks fall back to the full sweep.
  static constexpr std::size_t kMaxHalfBlock = 8192;

  /// N3L half-sweep of a block against a bitwise replica of itself.
  ///
  /// Contract: `src` holds the SAME position/id/coupling lanes as `tgt`
  /// (the intra-rank "interact with your own copy" case: CaAllPairs when
  /// the carried replica is home, CaCutoff's self slot, SpatialHalo's
  /// aliased self-interaction, and span sweeps where targets == sources).
  /// Each unordered pair is evaluated once and the force scattered to both
  /// accumulators with opposite sign.
  ///
  /// Bitwise contract (in double, before the per-operand store fold): the
  /// result equals `sweep(tgt, src, ...)` with the same tile width, lane
  /// for lane. The construction:
  ///  * tile pairs (A,B), A ascending outer, B >= A ascending inner, so
  ///    every target receives its per-source-tile partials in ascending
  ///    source-tile order — the full sweep's fold sequence;
  ///  * every partial builds from +0.0 in ascending source order within
  ///    the tile and folds into the per-target running sum exactly once:
  ///    the A side as a row-local scalar, the B side (and the diagonal)
  ///    via per-pair partial buffers written in the order the full sweep's
  ///    own reduction visits those lanes;
  ///  * the scattered contribution is `partial -= f`, i.e. adding -f,
  ///    which is bitwise f_ji because IEEE negation commutes through the
  ///    min-image subtraction and the magnitude product (mask, r2, and
  ///    coupling are symmetric); signed-zero differences on masked or
  ///    coincident lanes are absorbed because a +0.0-seeded partial never
  ///    becomes -0.0 by adding signed zeros;
  ///  * the per-row cutoff cull (off-diagonal pairs only) skips lanes
  ///    whose mask is exactly 0.0 in BOTH directions, so it stays
  ///    force-neutral and ledger-exact just like the full sweep's cull.
  ///
  /// `examined` counts both directions of each evaluated pair (2 id
  /// compares per unordered pair — exact small integers in double), so the
  /// vmpi ledger charge is identical to the full sweep's. `computed`
  /// reports the lanes actually evaluated: ~half of the full sweep's.
  ///
  /// Scheduling note: the N3L scatter writes -f across the whole block, so
  /// tile pairs are NOT disjoint tasks — the half-sweep is a serial unit
  /// and deliberately takes no pool. Host parallelism lives one level up
  /// (per-rank and per-cell task fan-out), where state is disjoint; a
  /// parallel full `sweep` is the alternative when a caller wants
  /// intra-block threading badly enough to forfeit the 2x halving.
  template <ForceKernel K, class TgtT, class SrcT>
  static InteractionCount sweep_self(TgtT& tgt, const SrcT& src, const Box& box,
                                     const K& kernel, double cutoff,
                                     std::size_t tile = kTileWidth,
                                     std::size_t inline_lane_max = kInlineLaneMax) {
    tile = std::clamp<std::size_t>(tile, 1, kTileWidth);
    const std::size_t n = tgt.size();
    if (src.size() != n || n > kMaxHalfBlock)
      return sweep(tgt, src, box, kernel, cutoff, tile, inline_lane_max);

    const bool periodic = box.boundary == Boundary::Periodic;
    const double lxs = periodic ? box.lx : 0.0;
    const double lys = periodic && box.dims == 2 ? box.ly : 0.0;
    const double dimy = box.dims == 2 ? 1.0 : 0.0;
    const double hx = 0.5 * box.lx;
    const double hy = 0.5 * box.ly;
    const double cut2 =
        cutoff > 0.0 ? cutoff * cutoff : std::numeric_limits<double>::infinity();

    // Both roles read the target's lanes: `src` is a bitwise replica (see
    // the contract above), and reading one set keeps the aliased
    // self-interaction case trivially safe.
    const auto* const px = tgt.xs();
    const auto* const py = tgt.ys();
    const std::int32_t* const pid = tgt.ids();
    decltype(tgt.charges()) pcpl = nullptr;
    if constexpr (K::kCoupling == Coupling::Charge) pcpl = tgt.charges();
    if constexpr (K::kCoupling == Coupling::Mass) pcpl = tgt.masses();
    double* const tfx = tgt.fxs();
    double* const tfy = tgt.fys();

    constexpr std::size_t kMaxCullTiles = 256;
    const std::size_t ntiles = n == 0 ? 0 : (n + tile - 1) / tile;
    const bool cull = cutoff > 0.0 && n > 0 && ntiles <= kMaxCullTiles;
    double bminx[kMaxCullTiles];
    double bmaxx[kMaxCullTiles];
    double bminy[kMaxCullTiles];
    double bmaxy[kMaxCullTiles];
    if (cull) {
      for (std::size_t b = 0; b < ntiles; ++b) {
        const std::size_t j0 = b * tile;
        const std::size_t len = std::min(tile, n - j0);
        double mnx = static_cast<double>(px[j0]);
        double mxx = mnx;
        double mny = static_cast<double>(py[j0]);
        double mxy = mny;
        for (std::size_t t = 1; t < len; ++t) {
          const double x = static_cast<double>(px[j0 + t]);
          const double y = static_cast<double>(py[j0 + t]);
          mnx = std::min(mnx, x);
          mxx = std::max(mxx, x);
          mny = std::min(mny, y);
          mxy = std::max(mxy, y);
        }
        bminx[b] = mnx;
        bmaxx[b] = mxx;
        bminy[b] = mny;
        bmaxy[b] = mxy;
      }
    }
    const auto axis_bound = [](double v, double lo, double hi, double wrap) noexcept {
      const double dlo = v < lo ? lo - v : (v > hi ? v - hi : 0.0);
      if (wrap <= 0.0) return dlo;
      const double dhi = std::max(v < lo ? hi - v : v - lo, hi - lo);
      return std::max(0.0, std::min(dlo, wrap - dhi));
    };

    // Per-target running sums of per-tile partials (the full sweep's
    // accx/accy, but full-length so scattered partials can land anywhere).
    double afx[kMaxHalfBlock];
    double afy[kMaxHalfBlock];
    for (std::size_t i = 0; i < n; ++i) afx[i] = afy[i] = 0.0;

    std::uint64_t examined = 0;
    std::uint64_t within = 0;
    std::uint64_t computed = 0;

    // Same pipeline choice as the full sweep — and because `examined` here
    // counts the same pairs, the ledger can't see it either.
    [[maybe_unused]] bool lane_rows = true;
    if constexpr (LaneBatchedKernel<K>) {
      if constexpr (K::kLanesExact) {
        if (n <= inline_lane_max && !simd::fast_rsqrt()) lane_rows = false;
      }
    }

    // One row's compute pass: lanes j = j0+t for t in [0, len), identical
    // arithmetic to the full sweep's pass 1 / split pass. Two buffer sets
    // let the off-diagonal loop below run two independent rows back to
    // back, overlapping their latency-bound reduction chains.
    double gxa[kTileWidth];
    double gya[kTileWidth];
    double gma[kTileWidth];
    double gxb[kTileWidth];
    double gyb[kTileWidth];
    double gmb[kTileWidth];
    const auto compute_row = [&](std::size_t i, std::size_t j0, std::size_t len, double* gx,
                                 double* gy, double* gm) {
      const double xi = static_cast<double>(px[i]);
      const double yi = static_cast<double>(py[i]);
      const std::int32_t idi = pid[i];
      double ci = 1.0;
      if constexpr (K::kCoupling != Coupling::None) ci = static_cast<double>(pcpl[i]);
      const auto plain_row = [&] {
        for (std::size_t t = 0; t < len; ++t) {
          const std::size_t j = j0 + t;
          double dx = xi - static_cast<double>(px[j]);
          double dy = dimy * (yi - static_cast<double>(py[j]));
          dx -= lxs * (static_cast<double>(dx > hx) - static_cast<double>(dx < -hx));
          dy -= lys * (static_cast<double>(dy > hy) - static_cast<double>(dy < -hy));
          const double r2 = dx * dx + dy * dy;
          const double m =
              static_cast<double>(idi != pid[j]) * static_cast<double>(r2 <= cut2);
          const double r2g = r2 + (1.0 - m);
          double cpl = 1.0;
          if constexpr (K::kCoupling != Coupling::None)
            cpl = ci * static_cast<double>(pcpl[j]);
          const double mag = kernel.magnitude(r2g, cpl) * m;
          gx[t] = mag * dx;
          gy[t] = mag * dy;
          gm[t] = m;
        }
      };
      if constexpr (LaneBatchedKernel<K>) {
        if (lane_rows) {
          double r2b[kTileWidth];
          double mg[kTileWidth];
          double cb[kTileWidth];
          for (std::size_t t = 0; t < len; ++t) {
            const std::size_t j = j0 + t;
            double dx = xi - static_cast<double>(px[j]);
            double dy = dimy * (yi - static_cast<double>(py[j]));
            dx -= lxs * (static_cast<double>(dx > hx) - static_cast<double>(dx < -hx));
            dy -= lys * (static_cast<double>(dy > hy) - static_cast<double>(dy < -hy));
            const double r2 = dx * dx + dy * dy;
            const double m =
                static_cast<double>(idi != pid[j]) * static_cast<double>(r2 <= cut2);
            gx[t] = dx;
            gy[t] = dy;
            gm[t] = m;
            r2b[t] = r2 + (1.0 - m);
            if constexpr (K::kCoupling != Coupling::None)
              cb[t] = ci * static_cast<double>(pcpl[j]);
          }
          kernel.magnitude_lanes(r2b, cb, mg, len);
          for (std::size_t t = 0; t < len; ++t) {
            const double mag = mg[t] * gm[t];
            gx[t] *= mag;
            gy[t] *= mag;
          }
        } else {
          plain_row();
        }
      } else {
        plain_row();
      }
      computed += static_cast<std::uint64_t>(len);
    };

    double pax[kTileWidth];
    double pay[kTileWidth];
    for (std::size_t a = 0; a < ntiles; ++a) {
      const std::size_t i0 = a * tile;
      const std::size_t ilen = std::min(tile, n - i0);

      // Diagonal pair (a,a): per-pair partials pax/pay receive, for every
      // target in the tile, exactly the lane sequence the full sweep's
      // in-order reduction adds — scattered -f from earlier rows lands at
      // pax[ii] before row i0+ii runs its own lanes j >= i.
      for (std::size_t ii = 0; ii < ilen; ++ii) pax[ii] = pay[ii] = 0.0;
      for (std::size_t ii = 0; ii < ilen; ++ii) {
        const std::size_t i = i0 + ii;
        const std::int32_t idi = pid[i];
        const std::size_t len = ilen - ii;  // lanes j = i (self) .. tile end
        compute_row(i, i, len, gxa, gya, gma);
        // Ordered row reduction into this target's own partial slot: the
        // in-order lane sequence continues from the scattered -f
        // contributions already sitting in pax[ii].
        for (std::size_t t = 0; t < len; ++t) {
          pax[ii] += gxa[t];
          pay[ii] += gya[t];
        }
        // Elementwise N3L scatter to the later targets. Disjoint slots —
        // hoisting it out of the reduction loop reorders across slots only
        // and never regroups any single target's sum.
        for (std::size_t t = 1; t < len; ++t) {
          pax[ii + t] -= gxa[t];
          pay[ii + t] -= gya[t];
        }
        // Self lane (t == 0) has an id-equal mask: both directed counts
        // are zero, so the uniform 2x accounting stays exact (integer
        // arithmetic; masks are 0.0 or 1.0).
        for (std::size_t t = 0; t < len; ++t) {
          examined += 2u * static_cast<std::uint64_t>(idi != pid[i + t]);
          within += 2u * static_cast<std::uint64_t>(gma[t] != 0.0);
        }
      }
      for (std::size_t ii = 0; ii < ilen; ++ii) {
        afx[i0 + ii] += pax[ii];
        afy[i0 + ii] += pay[ii];
      }

      // Off-diagonal pairs (a, b > a): the A side folds one row-local
      // partial per row; the B side accumulates -f into per-pair partials
      // (ascending row order == the full sweep's source order) and folds
      // them once at pair end.
      for (std::size_t b = a + 1; b < ntiles; ++b) {
        const std::size_t j0 = b * tile;
        const std::size_t jlen = std::min(tile, n - j0);
        for (std::size_t t = 0; t < jlen; ++t) pax[t] = pay[t] = 0.0;

        // True when the row's tile-level cull proves every mask exactly
        // 0.0; such a row only contributes id-compare counts.
        const auto row_culled = [&](std::size_t i) {
          if (!cull) return false;
          const double xi = static_cast<double>(px[i]);
          const double yi = static_cast<double>(py[i]);
          const double bx = axis_bound(xi, bminx[b], bmaxx[b], lxs);
          const double by = dimy != 0.0 ? axis_bound(yi, bminy[b], bmaxy[b], lys) : 0.0;
          return (bx * bx + by * by) * (1.0 - 1e-9) > cut2;
        };
        const auto count_culled_row = [&](std::size_t i) {
          const std::int32_t idi = pid[i];
          for (std::size_t t = 0; t < jlen; ++t)
            examined += 2u * static_cast<std::uint64_t>(idi != pid[j0 + t]);
        };
        // Ordered A-side reduction (the latency-bound chain), then the
        // vectorizable elementwise B-side scatter and integer counting.
        const auto finish_row = [&](std::size_t i, const double* gx, const double* gy,
                                    const double* gm) {
          const std::int32_t idi = pid[i];
          double fxi = 0.0;
          double fyi = 0.0;
          for (std::size_t t = 0; t < jlen; ++t) {
            fxi += gx[t];
            fyi += gy[t];
          }
          for (std::size_t t = 0; t < jlen; ++t) {
            pax[t] -= gx[t];
            pay[t] -= gy[t];
          }
          for (std::size_t t = 0; t < jlen; ++t) {
            examined += 2u * static_cast<std::uint64_t>(idi != pid[j0 + t]);
            within += 2u * static_cast<std::uint64_t>(gm[t] != 0.0);
          }
          afx[i] += fxi;
          afy[i] += fyi;
        };

        // Rows run in PAIRS where possible: two rows' reduction chains are
        // independent, so interleaving them hides the 4-cycle FP-add
        // latency that serializes a single row's in-order sum. Bitwise
        // neutrality: each row's own sums keep their exact lane order, and
        // each pax/pay slot still receives row i's -f before row i+1's
        // (finish_row runs A then B) — only work on disjoint slots and the
        // independent chains overlap.
        std::size_t ii = 0;
        while (ii < ilen) {
          const std::size_t i = i0 + ii;
          if (row_culled(i)) {
            count_culled_row(i);
            ++ii;
            continue;
          }
          if (ii + 1 < ilen && !row_culled(i + 1)) {
            compute_row(i, j0, jlen, gxa, gya, gma);
            compute_row(i + 1, j0, jlen, gxb, gyb, gmb);
            const std::int32_t ida = pid[i];
            const std::int32_t idb = pid[i + 1];
            double fxa = 0.0;
            double fya = 0.0;
            double fxb = 0.0;
            double fyb = 0.0;
            for (std::size_t t = 0; t < jlen; ++t) {
              fxa += gxa[t];
              fya += gya[t];
              fxb += gxb[t];
              fyb += gyb[t];
            }
            for (std::size_t t = 0; t < jlen; ++t) {
              // Per slot: row i's contribution first, then row i+1's —
              // the same per-slot order the row-at-a-time loop produced.
              pax[t] -= gxa[t];
              pax[t] -= gxb[t];
              pay[t] -= gya[t];
              pay[t] -= gyb[t];
            }
            for (std::size_t t = 0; t < jlen; ++t) {
              examined += 2u * static_cast<std::uint64_t>(ida != pid[j0 + t]);
              examined += 2u * static_cast<std::uint64_t>(idb != pid[j0 + t]);
              within += 2u * static_cast<std::uint64_t>(gma[t] != 0.0);
              within += 2u * static_cast<std::uint64_t>(gmb[t] != 0.0);
            }
            afx[i] += fxa;
            afy[i] += fya;
            afx[i + 1] += fxb;
            afy[i + 1] += fyb;
            ii += 2;
            continue;
          }
          compute_row(i, j0, jlen, gxa, gya, gma);
          finish_row(i, gxa, gya, gma);
          ++ii;
        }
        for (std::size_t t = 0; t < jlen; ++t) {
          afx[j0 + t] += pax[t];
          afy[j0 + t] += pay[t];
        }
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<std::remove_cv_t<TgtT>, SoaBlock>) {
        tfx[i] =
            static_cast<double>(static_cast<float>(tfx[i]) + static_cast<float>(afx[i]));
        tfy[i] =
            static_cast<double>(static_cast<float>(tfy[i]) + static_cast<float>(afy[i]));
      } else {
        tfx[i] += afx[i];
        tfy[i] += afy[i];
      }
    }
    return {examined, within, computed, /*half_sweep=*/true};
  }
};

/// Host-side tuning knobs of the batched span sweeps. All knobs change host
/// execution only — never `examined` or anything else the virtual cost
/// model sees.
struct SweepTuning {
  bool half_sweep = true;                          ///< N3L path for self-interactions
  std::size_t tile = BatchedEngine::kTileWidth;    ///< source-tile width
  /// Inline-vs-lane pipeline threshold for exact-lane kernels (see
  /// BatchedEngine::kInlineLaneMax). The default is the seeded table value
  /// that fixes the PR 6 small-block regression without a calibration run.
  std::size_t inline_lane_max = BatchedEngine::kInlineLaneMax;
};

/// Batched counterpart of particles::accumulate_forces for AoS spans (the
/// serial reference and engine-parity tests): packs both spans into tiles,
/// sweeps, and scatters the target forces back (one float store each). Pass
/// a SweepScratch to reuse tile capacity across calls; without one the
/// tiles are per-call locals.
template <ForceKernel K>
InteractionCount accumulate_forces_batched(std::span<Particle> targets,
                                           std::span<const Particle> sources, const Box& box,
                                           const K& kernel, double cutoff = 0.0,
                                           SweepScratch* scratch = nullptr,
                                           const SweepTuning& tuning = {},
                                           ThreadPool* pool = nullptr) {
  SweepScratch local;
  SweepScratch& s = scratch ? *scratch : local;
  s.targets.pack(targets, box);
  // A self sweep (the same span on both sides) packs once and, when the
  // tuning allows it, takes the N3L half-sweep (a serial unit — see
  // sweep_self; full sweeps fan target tiles over the pool).
  const bool self = targets.data() == sources.data() && targets.size() == sources.size();
  if (self) {
    if (tuning.half_sweep) {
      const InteractionCount count = BatchedEngine::sweep_self(
          s.targets, s.targets, box, kernel, cutoff, tuning.tile, tuning.inline_lane_max);
      s.targets.scatter_add_forces(targets);
      return count;
    }
    const InteractionCount count =
        BatchedEngine::sweep(s.targets, s.targets, box, kernel, cutoff, tuning.tile,
                             tuning.inline_lane_max, pool);
    s.targets.scatter_add_forces(targets);
    return count;
  }
  s.sources.pack(sources, box);
  const InteractionCount count =
      BatchedEngine::sweep(s.targets, s.sources, box, kernel, cutoff, tuning.tile,
                           tuning.inline_lane_max, pool);
  s.targets.scatter_add_forces(targets);
  return count;
}

/// Engine-dispatched span sweep (serial reference, benches, parity tests).
template <ForceKernel K>
InteractionCount accumulate_forces_with(KernelEngine engine, std::span<Particle> targets,
                                        std::span<const Particle> sources, const Box& box,
                                        const K& kernel, double cutoff = 0.0,
                                        SweepScratch* scratch = nullptr,
                                        const SweepTuning& tuning = {},
                                        ThreadPool* pool = nullptr) {
  if (engine == KernelEngine::Batched)
    return accumulate_forces_batched(targets, sources, box, kernel, cutoff, scratch, tuning,
                                     pool);
  return accumulate_forces(targets, sources, box, kernel, cutoff);
}

}  // namespace canb::particles
