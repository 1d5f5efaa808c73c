// The resident force sweep: cull by cell, then sweep targets in lanes.
//
// core::RealPolicy::interact runs this for every block-block interaction of
// every engine on real payloads. It is bitwise the AoS reference
// particles::accumulate_forces (kernels.hpp) on SoA lanes:
//
//  1. Cull. Under a cutoff, detail::CullGrid bins the call's target and
//     source lanes into cells whose sides are at least cutoff/2, so a pair
//     within the cutoff is at most two cells apart on each axis. Each
//     nonempty target cell gets the ascending list of source lanes in the
//     5 x 5 cells around it, gathered once into per-thread scratch. A lane
//     the grid cannot place (a non-finite coordinate, or one outside a
//     periodic box) is "wild": a wild source is a candidate for every
//     target, and a wild target sees every source lane. Without a cutoff,
//     or when the grid is too small for its stencils to leave much out,
//     every target sees every lane.
//  2. Sweep. For the inverse-cube kernels (ExactLaneKernel) the targets of
//     one cell sit in vector lanes and simd::inv_cube_sweep broadcasts the
//     candidates in list order, with geometry, id and cutoff masks, the
//     magnitude and the masked force sums all in registers. Other kernels
//     run simd::test_lanes over the same candidate lists per target and
//     evaluate `magnitude` on the kept lanes.
//  3. Pairs. With no cutoff, an inverse-cube kernel can serve both sides of
//     a block pair from one evaluation of each pair: sweep_pair adds f(i, j)
//     to a's targets and hands back -f(i, j) per lane of b, in a's lane
//     order, which is the order b's own sweep adds f(j, i); sweep_self does
//     the same within one block. simd.hpp says why the reactions are
//     bitwise; core::RealPolicy and core::CaAllPairs decide when they run.
//
// Why this stays bitwise: every target adds exactly the pairs the reference
// adds, with the reference's operations (same promotions, same
// minimum-image compare and one add or subtract, r2 = dx*dx + dy*dy, the
// same magnitude, no FMA anywhere), in source order, into one double sum
// per target. The cull only drops pairs the reference skips; a pair the
// sweep visits but the reference skips adds +0.0 (or, for the scalar
// bodies, nothing) to a sum that started at +0.0 and so is never -0.0,
// which cannot change it. Holding several targets in lanes changes nothing
// either: each lane's sum is its own target's, still in source order. The
// call's total folds through float once per target, where the AoS loop
// stored into its float field.
//
// Counts: `examined` (what the vmpi ledger is charged from) counts every
// source lane whose id differs from the target's, candidate or not, and
// `within_cutoff` the pairs that added a force, exactly as the reference
// counts them. `computed` is the (target, candidate) pairs the host
// evaluated: every pair without a cutoff or when the grid declines, the
// candidate pairs otherwise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_block.hpp"

namespace canb::particles {

/// Kernels whose magnitude is the inverse-cube form: the sweep evaluates
/// them in simd::inv_cube_sweep with the (scale, softening²) their
/// `inv_cube()` reports.
template <class K>
concept ExactLaneKernel = ForceKernel<K> && requires(const K k) {
  { k.inv_cube() } -> std::convertible_to<InvCube>;
};

/// Source lanes per test pass of the generic path: its dx/dy/r2 scratch
/// stays L1-resident.
inline constexpr std::size_t kSweepChunk = 128;

namespace detail {

/// The cell grid one cutoff sweep culls with (see the header comment).
///
/// Cells are squares of side h >= cutoff/2 (times 1 + 1e-6, a margin that
/// absorbs the rounding of the cell arithmetic). A periodic axis tiles the
/// whole box length with a whole number of cells and wraps; another axis
/// covers the lanes' extent clamped into the box, and every coordinate is
/// clamped into the grid first — a clamp never moves two points apart, so no
/// pair within the cutoff ends up more than two cells apart, and far-away
/// finite coordinates never reach a float-to-int conversion. When the
/// natural grid would have more cells than the call has lanes, h grows until
/// it does not.
class CullGrid {
 public:
  /// Cells on each side of a target's own cell that may hold a source
  /// within the cutoff.
  static constexpr int kReach = 2;

  /// Bins the lanes of `tgt` and `src` for a sweep with this cutoff (> 0).
  /// Returns false, binning nothing, when the grid would not cull enough to
  /// pay for itself: then every target should see every source lane.
  bool build(const SoaBlock& tgt, const SoaBlock& src, const Box& box, double cutoff);

  std::size_t cells() const noexcept {
    return static_cast<std::size_t>(x_.n) * static_cast<std::size_t>(y_.n);
  }
  /// Cell side along x (the grid's side along y is at least this long too).
  double side_x() const noexcept { return x_.side; }

  /// Target groups: every nonempty target cell in cell order, then the
  /// wild targets (if any).
  std::size_t groups() const noexcept { return group_cell_.size(); }
  std::span<const std::uint32_t> targets(std::size_t g) const noexcept {
    return {tgt_order_.data() + group_begin_[g], group_begin_[g + 1] - group_begin_[g]};
  }
  /// Whether group g is the wild targets, which see every source lane.
  bool sees_all(std::size_t g) const noexcept { return group_cell_[g] < 0; }
  /// Writes the ascending source lanes cell group g must visit to `out`
  /// (room for every source lane) and returns how many: the lanes in the
  /// cells within kReach, and the wild ones.
  std::size_t candidates(std::size_t g, std::uint32_t* out);

  /// One axis of the grid: cell k covers [lo + k*side, lo + (k+1)*side).
  struct Axis {
    bool periodic = false;
    double lo = 0.0;
    double hi = 0.0;
    double inv = 0.0;  ///< cells per unit length
    double side = 0.0;
    double top = 0.0;  ///< n - 1: cell coordinates are clamped to [0, top]
    int n = 1;
    /// The cell ranges within kReach of cell c: one or two [b, e] pairs.
    int ranges(int c, int* out) const noexcept;
    /// The share of cells within kReach of a cell, averaged over cells.
    double reach_fraction() const noexcept;
  };

 private:
  std::size_t ns_ = 0;
  bool two_d_ = true;
  Axis x_, y_;
  std::vector<std::int32_t> cell_;         ///< per lane (targets, then sources); -1 = wild
  std::vector<std::uint32_t> src_start_;   ///< counting-sort offsets per source cell
  std::vector<std::uint32_t> src_order_;   ///< tame source lanes, by cell then lane
  std::vector<std::uint64_t> wild_bits_;   ///< wild source lanes, one bit each
  bool any_wild_src_ = false;
  std::vector<std::uint32_t> cursor_;      ///< per-cell fill position while binning
  std::vector<std::uint32_t> tgt_order_;   ///< target lanes, by group
  std::vector<std::size_t> group_begin_;
  std::vector<std::int32_t> group_cell_;  ///< -1 = the wild targets
  std::vector<std::uint64_t> bits_;       ///< candidate bitmap, all zero between calls
};

/// Counts the same-id pairs a sweep skips.
class SameIds {
 public:
  /// Pairs (i, j) with a[i] == b[j].
  std::uint64_t count(const std::int32_t* a, std::size_t na, const std::int32_t* b,
                      std::size_t nb);

 private:
  std::vector<std::uint32_t> counts_;  ///< per id over b's id range; zero between calls
  std::vector<std::int32_t> sorted_a_, sorted_b_;
};

/// Per-thread sweep scratch, grown to the largest call the thread has run.
struct SweepScratch {
  CullGrid grid;
  SameIds same_ids;
  std::vector<std::uint32_t> all;   ///< 0, 1, 2, ...: every lane of a block
  std::vector<std::uint32_t> cand;  ///< one group's candidate source lanes
  // One group's target and candidate lanes widened to double, and the
  // targets' sums (inverse-cube path).
  std::vector<double> tx, ty, tid, tcpl, ax, ay, sx, sy, sid, scpl;
  // One group's candidate lanes as stored (generic path).
  std::vector<float> raw_x, raw_y, raw_cpl;
  std::vector<std::int32_t> raw_id;
};
SweepScratch& sweep_scratch() noexcept;

template <class T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// The lane indices 0, 1, ..., n - 1.
inline std::span<const std::uint32_t> every_lane(SweepScratch& s, std::size_t n) {
  if (s.all.size() < n) {
    const std::size_t from = s.all.size();
    s.all.resize(n);
    std::iota(s.all.begin() + static_cast<std::ptrdiff_t>(from), s.all.end(),
              static_cast<std::uint32_t>(from));
  }
  return {s.all.data(), n};
}

/// A block's coupling lane for kernel K, or nullptr when K couples nothing.
template <class K>
const float* coupling_lane(const SoaBlock& b) noexcept {
  if constexpr (K::kCoupling == Coupling::Charge)
    return b.charges();
  else if constexpr (K::kCoupling == Coupling::Mass)
    return b.masses();
  else
    return nullptr;
}

/// The fold per target, as the AoS loop's `t.fx += float(ax)`: resident
/// force lanes hold float-representable values at every phase boundary.
inline void fold_force(SoaBlock& tgt, std::size_t i, double ax, double ay) noexcept {
  tgt.fx[i] = static_cast<double>(static_cast<float>(tgt.fx[i]) + static_cast<float>(ax));
  tgt.fy[i] = static_cast<double>(static_cast<float>(tgt.fy[i]) + static_cast<float>(ay));
}

/// Widens lanes `idx` of `b` (position, id, coupling) to double: exact
/// conversions, so the kernel sees the reference's promoted values.
template <class K>
void widen(const SoaBlock& b, std::span<const std::uint32_t> idx, double* x, double* y,
           double* id, double* cpl) noexcept {
  const float* c = coupling_lane<K>(b);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::uint32_t j = idx[k];
    x[k] = static_cast<double>(b.px[j]);
    y[k] = static_cast<double>(b.py[j]);
    id[k] = static_cast<double>(b.id[j]);
    cpl[k] = c != nullptr ? static_cast<double>(c[j]) : 1.0;
  }
}

/// Inverse-cube path: targets `ts` in lanes against source lanes `cand` in
/// order. Returns the kept pairs.
template <class K>
std::size_t sweep_inv_cube(SoaBlock& tgt, const SoaBlock& src, const simd::InvCubeSweep& p,
                           std::span<const std::uint32_t> ts,
                           std::span<const std::uint32_t> cand, SweepScratch& s) {
  const std::size_t m = ts.size();
  const std::size_t len = cand.size();
  double* tx = grow(s.tx, m);
  double* ty = grow(s.ty, m);
  double* tid = grow(s.tid, m);
  double* tcpl = grow(s.tcpl, m);
  double* ax = grow(s.ax, m);
  double* ay = grow(s.ay, m);
  double* sx = grow(s.sx, len);
  double* sy = grow(s.sy, len);
  double* sid = grow(s.sid, len);
  double* scpl = grow(s.scpl, len);
  widen<K>(tgt, ts, tx, ty, tid, tcpl);
  widen<K>(src, cand, sx, sy, sid, scpl);
  std::fill(ax, ax + m, 0.0);
  std::fill(ay, ay + m, 0.0);
  const std::size_t kept =
      simd::inv_cube_sweep(p, {tx, ty, tid, tcpl, m}, {sx, sy, sid, scpl, len}, ax, ay);
  for (std::size_t k = 0; k < m; ++k) fold_force(tgt, ts[k], ax[k], ay[k]);
  return kept;
}

/// Generic path: per target, the test pass over source lanes `cand` and
/// `magnitude` on the kept ones. Returns the kept pairs.
template <class K>
std::size_t sweep_tested(SoaBlock& tgt, const SoaBlock& src, const K& kernel,
                         simd::LaneTest row, std::span<const std::uint32_t> ts,
                         std::span<const std::uint32_t> cand, SweepScratch& s) {
  const std::size_t len = cand.size();
  float* sx = grow(s.raw_x, len);
  float* sy = grow(s.raw_y, len);
  std::int32_t* sid = grow(s.raw_id, len);
  float* scpl = grow(s.raw_cpl, len);
  const float* sc = coupling_lane<K>(src);
  for (std::size_t k = 0; k < len; ++k) {
    const std::uint32_t j = cand[k];
    sx[k] = src.px[j];
    sy[k] = src.py[j];
    sid[k] = src.id[j];
    scpl[k] = sc != nullptr ? sc[j] : 0.0f;
  }
  const float* tc = coupling_lane<K>(tgt);
  const bool cut = row.cut2 > 0.0;
  alignas(32) double dx[kSweepChunk];
  alignas(32) double dy[kSweepChunk];
  alignas(32) double r2[kSweepChunk];
  std::uint32_t keep[kSweepChunk];
  std::size_t kept = 0;
  for (const std::uint32_t i : ts) {
    row.x = static_cast<double>(tgt.px[i]);
    row.y = row.two_d ? static_cast<double>(tgt.py[i]) : 0.0;
    row.id = tgt.id[i];
    // The coupling lane_coupling forms: each float lane widened, then one
    // product.
    const double ci = tc != nullptr ? static_cast<double>(tc[i]) : 1.0;
    const auto coupling = [&](std::size_t j) {
      return tc != nullptr ? ci * static_cast<double>(scpl[j]) : 1.0;
    };
    double ax = 0.0;
    double ay = 0.0;
    for (std::size_t j0 = 0; j0 < len; j0 += kSweepChunk) {
      const std::size_t n = std::min(kSweepChunk, len - j0);
      const simd::LaneTestCount t =
          simd::test_lanes(row, sx + j0, sy + j0, sid + j0, n, dx, dy, r2, keep);
      kept += t.kept;
      if (cut) {
        for (std::size_t k = 0; k < t.kept; ++k) {
          const std::size_t j = keep[k];
          const double m = kernel.magnitude(r2[j], coupling(j0 + j));
          ax += m * dx[j];
          ay += m * dy[j];
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          const double m = kernel.magnitude(r2[j], coupling(j0 + j));
          ax += m * dx[j];
          ay += m * dy[j];
        }
      }
    }
    fold_force(tgt, i, ax, ay);
  }
  return kept;
}

}  // namespace detail

/// Accumulates the forces of `src` on `tgt` (see the header comment).
/// Same-id pairs are skipped; with cutoff > 0 only pairs within it add.
template <ForceKernel K>
InteractionCount sweep_blocks(SoaBlock& tgt, const SoaBlock& src, const Box& box,
                              const K& kernel, double cutoff = 0.0) {
  InteractionCount count;
  const std::size_t nt = tgt.size();
  const std::size_t ns = src.size();
  if (nt == 0 || ns == 0) return count;
  const bool periodic = box.boundary == Boundary::Periodic;
  const bool two_d = box.dims == 2;
  const double cut2 = cutoff > 0.0 ? cutoff * cutoff : 0.0;
  detail::SweepScratch& s = detail::sweep_scratch();

  // One pass of the kernel's path: targets `ts` against sources `cand`.
  std::size_t kept = 0;
  const auto run = [&](std::span<const std::uint32_t> ts, std::span<const std::uint32_t> cand) {
    count.computed += static_cast<std::uint64_t>(ts.size()) * cand.size();
    if constexpr (ExactLaneKernel<K>) {
      const InvCube ic = kernel.inv_cube();
      const simd::InvCubeSweep p{two_d, periodic ? box.lx : 0.0,
                                 periodic && two_d ? box.ly : 0.0, cut2, ic.scale, ic.soft2};
      kept += detail::sweep_inv_cube<K>(tgt, src, p, ts, cand, s);
    } else {
      simd::LaneTest row;
      row.two_d = two_d;
      row.wrap_x = periodic ? box.lx : 0.0;
      row.wrap_y = periodic && two_d ? box.ly : 0.0;
      row.cut2 = cut2;
      kept += detail::sweep_tested(tgt, src, kernel, row, ts, cand, s);
    }
  };

  const std::span<const std::uint32_t> all = detail::every_lane(s, std::max(nt, ns));
  if (cut2 == 0.0) {
    run(all.first(nt), all.first(ns));
    // Without a cutoff every pair with differing ids is kept.
    count.examined = kept;
    count.within_cutoff = kept;
    return count;
  }

  detail::CullGrid& grid = s.grid;
  if (!grid.build(tgt, src, box, cutoff)) {
    run(all.first(nt), all.first(ns));
    count.examined = static_cast<std::uint64_t>(nt) * ns -
                     s.same_ids.count(tgt.ids(), nt, src.ids(), ns);
    count.within_cutoff = kept;
    return count;
  }
  std::uint32_t* cand = detail::grow(s.cand, ns);
  for (std::size_t g = 0; g < grid.groups(); ++g) {
    run(grid.targets(g), grid.sees_all(g) ? all.first(ns)
                                          : std::span<const std::uint32_t>(
                                                cand, grid.candidates(g, cand)));
  }
  count.examined = static_cast<std::uint64_t>(nt) * ns -
                   s.same_ids.count(tgt.ids(), nt, src.ids(), ns);
  count.within_cutoff = kept;
  return count;
}

/// One block's per-lane force sums in double, not yet folded: what
/// sweep_pair hands back for its second block. Each call sizes it; a
/// reused one keeps its capacity.
struct LaneSums {
  std::vector<double> x, y;
};

/// Folds `sums` into the force lanes of `tgt` the way a sweep folds its own
/// targets (detail::fold_force, lane by lane).
inline void fold_sums(SoaBlock& tgt, const LaneSums& sums) noexcept {
  for (std::size_t i = 0; i < tgt.size(); ++i) detail::fold_force(tgt, i, sums.x[i], sums.y[i]);
}

/// Whether `b` is a lane replica of `a` for kernel K: the same size and, bit
/// for bit, the same position, id and coupling lanes (one memcmp per lane).
template <class K>
bool lane_replica(const SoaBlock& a, const SoaBlock& b) noexcept {
  const std::size_t n = a.size();
  if (b.size() != n) return false;
  if (n == 0 || &a == &b) return true;
  const auto same = [n](const auto* x, const auto* y) {
    return std::memcmp(x, y, n * sizeof(*x)) == 0;
  };
  const float* ca = detail::coupling_lane<K>(a);
  return same(a.xs(), b.xs()) && same(a.ys(), b.ys()) && same(a.ids(), b.ids()) &&
         (ca == nullptr || same(ca, detail::coupling_lane<K>(b)));
}

namespace detail {

/// The inv_cube_sweep constants of a call without a cutoff.
template <ExactLaneKernel K>
simd::InvCubeSweep uncut_inv_cube(const Box& box, const K& kernel) noexcept {
  const bool periodic = box.boundary == Boundary::Periodic;
  const bool two_d = box.dims == 2;
  const InvCube ic = kernel.inv_cube();
  return {two_d, periodic ? box.lx : 0.0, periodic && two_d ? box.ly : 0.0, 0.0, ic.scale,
          ic.soft2};
}

/// Every lane of `b` widened into the given scratch vectors.
template <class K>
simd::SweepLanes widen_all(const SoaBlock& b, SweepScratch& s, std::vector<double>& x,
                           std::vector<double>& y, std::vector<double>& id,
                           std::vector<double>& cpl) {
  const std::size_t n = b.size();
  const simd::SweepLanes lanes{grow(x, n), grow(y, n), grow(id, n), grow(cpl, n), n};
  widen<K>(b, every_lane(s, n), x.data(), y.data(), id.data(), cpl.data());
  return lanes;
}

}  // namespace detail

/// The sweeps of a block pair in one pass, for an inverse-cube kernel with
/// no cutoff: `a` gains exactly what sweep_blocks(a, b) adds, and `b_sums`
/// receives, per lane of b, the double sums sweep_blocks(b', a) would fold
/// into a block b' with b's lanes. Folded with fold_sums, they leave b'
/// bitwise as if it had run its own sweep. Each pair is
/// evaluated once (simd::inv_cube_sweep_pair), so `computed` is |a|·|b|
/// for both directions together; `examined` and `within_cutoff` are those
/// of either direction (they are equal).
template <ExactLaneKernel K>
InteractionCount sweep_pair(SoaBlock& a, const SoaBlock& b, const Box& box, const K& kernel,
                            LaneSums& b_sums) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  b_sums.x.assign(nb, 0.0);
  b_sums.y.assign(nb, 0.0);
  InteractionCount count;
  if (na == 0 || nb == 0) return count;
  detail::SweepScratch& s = detail::sweep_scratch();
  const simd::SweepLanes la = detail::widen_all<K>(a, s, s.tx, s.ty, s.tid, s.tcpl);
  const simd::SweepLanes lb = detail::widen_all<K>(b, s, s.sx, s.sy, s.sid, s.scpl);
  double* ax = detail::grow(s.ax, na);
  double* ay = detail::grow(s.ay, na);
  std::fill(ax, ax + na, 0.0);
  std::fill(ay, ay + na, 0.0);
  const std::size_t kept = simd::inv_cube_sweep_pair(detail::uncut_inv_cube(box, kernel), la, lb,
                                                     ax, ay, b_sums.x.data(), b_sums.y.data());
  for (std::size_t i = 0; i < na; ++i) detail::fold_force(a, i, ax[i], ay[i]);
  count.examined = kept;
  count.within_cutoff = kept;
  count.computed = static_cast<std::uint64_t>(na) * nb;
  return count;
}

/// sweep_blocks(a, a') for a lane replica a' of `a`, for an inverse-cube
/// kernel with no cutoff, evaluating each unordered pair of lanes once
/// (simd::inv_cube_sweep_self): bitwise the same forces and counts, with
/// `computed` = n(n-1)/2. Reads only a's lanes, so the replica may be `a`
/// itself.
template <ExactLaneKernel K>
InteractionCount sweep_self(SoaBlock& a, const Box& box, const K& kernel) {
  const std::size_t n = a.size();
  InteractionCount count;
  if (n == 0) return count;
  detail::SweepScratch& s = detail::sweep_scratch();
  const simd::SweepLanes la = detail::widen_all<K>(a, s, s.tx, s.ty, s.tid, s.tcpl);
  double* ax = detail::grow(s.ax, n);
  double* ay = detail::grow(s.ay, n);
  std::fill(ax, ax + n, 0.0);
  std::fill(ay, ay + n, 0.0);
  const std::size_t kept =
      simd::inv_cube_sweep_self(detail::uncut_inv_cube(box, kernel), la, ax, ay);
  for (std::size_t i = 0; i < n; ++i) detail::fold_force(a, i, ax[i], ay[i]);
  count.examined = 2 * static_cast<std::uint64_t>(kept);
  count.within_cutoff = count.examined;
  count.computed = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  return count;
}

}  // namespace canb::particles
