// Runtime-dispatched SIMD backends (see simd.hpp for the contract).
//
// Everything numeric lives out-of-line in this translation unit on
// purpose: canb_particles is always built with the portable library flags
// (-O2, no -march, no -ffp-contract=fast), so the scalar reference loops
// here can never be FMA-contracted or reassociated — which is what makes
// the "every backend agrees bitwise" guarantees below hold no matter what
// flags the *calling* binary (e.g. a bench built with -O3) uses.
// The SSE2 bodies need no flag on x86-64, where SSE2 is baseline; the AVX2
// bodies are compiled via the GCC/Clang `target` function attribute, so no
// global architecture flags are required and the dispatcher can still run
// on machines without AVX2.
#include "particles/simd/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define CANB_SIMD_X86 1
#include <immintrin.h>
#else
#define CANB_SIMD_X86 0
#endif

namespace canb::particles::simd {

namespace {

// --- force-sweep test pass --------------------------------------------------
// One lane of the reference loop's geometry (particles::accumulate_forces):
// promote, subtract, minimum image as particles::min_image does it (compare
// against half the box, then one subtract or one add of the box length),
// r2 = dx*dx + dy*dy. The vector bodies below run the same op sequence with
// compares and blends, so all three agree bitwise with the reference.
inline double wrap_one(double d, double wrap) noexcept {
  const double h = 0.5 * wrap;
  return d > h ? d - wrap : (d < -h ? d + wrap : d);
}

template <bool kPeriodic, bool kTwoD, bool kCut>
inline void test_one(const LaneTest& row, const float* sx, const float* sy,
                     const std::int32_t* sid, std::size_t j, double* dx, double* dy, double* r2,
                     std::uint32_t* keep, std::size_t& kept, std::size_t& self) noexcept {
  double x = row.x - static_cast<double>(sx[j]);
  double y = kTwoD ? row.y - static_cast<double>(sy[j]) : 0.0;
  if constexpr (kPeriodic) {
    x = wrap_one(x, row.wrap_x);
    if constexpr (kTwoD) y = wrap_one(y, row.wrap_y);
  }
  double d2 = x * x + y * y;
  const bool same = sid[j] == row.id;
  self += static_cast<std::size_t>(same);
  if constexpr (kCut) {
    // Unconditional store, conditional advance: index j lands at keep[kept]
    // (kept <= j, so the write stays inside the first n entries).
    keep[kept] = static_cast<std::uint32_t>(j);
    kept += static_cast<std::size_t>(!same && !(d2 > row.cut2));
  } else {
    x = same ? 0.0 : x;
    y = same ? 0.0 : y;
    d2 = same ? 1.0 : d2;
  }
  dx[j] = x;
  dy[j] = y;
  r2[j] = d2;
}

template <bool kPeriodic, bool kTwoD, bool kCut>
LaneTestCount test_lanes_scalar(const LaneTest& row, const float* sx, const float* sy,
                                const std::int32_t* sid, std::size_t n, double* dx, double* dy,
                                double* r2, std::uint32_t* keep) noexcept {
  std::size_t kept = 0;
  std::size_t self = 0;
  for (std::size_t j = 0; j < n; ++j)
    test_one<kPeriodic, kTwoD, kCut>(row, sx, sy, sid, j, dx, dy, r2, keep, kept, self);
  return {kCut ? kept : n - self, n - self};
}

// --- inverse-cube evaluate loop ---------------------------------------------
// Targets in lanes, candidates broadcast in list order. Per pair this is
// accumulate_forces through InverseSquareRepulsion/Gravity::magnitude op for
// op: the geometry of test_one, the coupling tc*sc, then
// (scale*cpl) / (d2*sqrt(d2)). The scalar body skips a pair the way the
// reference does; the vector bodies add it masked to +0.0.
template <bool kPeriodic, bool kTwoD, bool kCut>
std::size_t inv_cube_sweep_scalar(const InvCubeSweep& p, const SweepLanes& tgt,
                                  const SweepLanes& src, double* ax, double* ay) noexcept {
  std::size_t kept = 0;
  for (std::size_t t = 0; t < tgt.n; ++t) {
    const double tx = tgt.x[t];
    const double ty = kTwoD ? tgt.y[t] : 0.0;
    const double tid = tgt.id[t];
    const double tc = tgt.cpl[t];
    double sx = ax[t];
    double sy = ay[t];
    for (std::size_t k = 0; k < src.n; ++k) {
      double dx = tx - src.x[k];
      double dy = kTwoD ? ty - src.y[k] : 0.0;
      if constexpr (kPeriodic) {
        dx = wrap_one(dx, p.wrap_x);
        if constexpr (kTwoD) dy = wrap_one(dy, p.wrap_y);
      }
      const double r2 = dx * dx + dy * dy;
      if (tid == src.id[k]) continue;
      if (kCut && r2 > p.cut2) continue;
      ++kept;
      const double c = p.scale * (tc * src.cpl[k]);
      const double d2 = r2 + p.soft2;
      const double mag = c / (d2 * std::sqrt(d2));
      sx += mag * dx;
      sy += mag * dy;
    }
    ax[t] = sx;
    ay[t] = sy;
  }
  return kept;
}

// --- paired evaluate loop ---------------------------------------------------
// One pair of inv_cube_sweep_scalar, op for op, without the cutoff: false
// for a pair the reference skips, else the products mag*dx and mag*dy.
template <bool kPeriodic, bool kTwoD>
inline bool inv_cube_pair_one(const InvCubeSweep& p, double tx, double ty, double tid, double tc,
                              const SweepLanes& src, std::size_t k, double& fx,
                              double& fy) noexcept {
  double dx = tx - src.x[k];
  double dy = kTwoD ? ty - src.y[k] : 0.0;
  if constexpr (kPeriodic) {
    dx = wrap_one(dx, p.wrap_x);
    if constexpr (kTwoD) dy = wrap_one(dy, p.wrap_y);
  }
  const double r2 = dx * dx + dy * dy;
  if (tid == src.id[k]) return false;
  const double c = p.scale * (tc * src.cpl[k]);
  const double d2 = r2 + p.soft2;
  const double mag = c / (d2 * std::sqrt(d2));
  fx = mag * dx;
  fy = mag * dy;
  return true;
}

template <bool kPeriodic, bool kTwoD>
std::size_t inv_cube_pair_scalar(const InvCubeSweep& p, const SweepLanes& tgt,
                                 const SweepLanes& src, double* ax, double* ay, double* bx,
                                 double* by) noexcept {
  std::size_t kept = 0;
  for (std::size_t t = 0; t < tgt.n; ++t) {
    const double tx = tgt.x[t];
    const double ty = kTwoD ? tgt.y[t] : 0.0;
    double sx = ax[t];
    double sy = ay[t];
    for (std::size_t k = 0; k < src.n; ++k) {
      double fx = 0.0;
      double fy = 0.0;
      if (!inv_cube_pair_one<kPeriodic, kTwoD>(p, tx, ty, tgt.id[t], tgt.cpl[t], src, k, fx, fy))
        continue;
      ++kept;
      sx += fx;
      sy += fy;
      bx[k] -= fx;
      by[k] -= fy;
    }
    ax[t] = sx;
    ay[t] = sy;
  }
  return kept;
}

/// The pairs among lanes [g, e) of `a`, each once, in scalar order: row i
/// adds its pairs with the lanes after it and hands each reaction to that
/// lane, so lane j has received rows g..j-1 before its own row adds.
template <bool kPeriodic, bool kTwoD>
std::size_t inv_cube_triangle(const InvCubeSweep& p, const SweepLanes& a, std::size_t g,
                              std::size_t e, double* ax, double* ay) noexcept {
  std::size_t kept = 0;
  for (std::size_t i = g; i < e; ++i) {
    const double tx = a.x[i];
    const double ty = kTwoD ? a.y[i] : 0.0;
    for (std::size_t j = i + 1; j < e; ++j) {
      double fx = 0.0;
      double fy = 0.0;
      if (!inv_cube_pair_one<kPeriodic, kTwoD>(p, tx, ty, a.id[i], a.cpl[i], a, j, fx, fy))
        continue;
      ++kept;
      ax[i] += fx;
      ay[i] += fy;
      ax[j] -= fx;
      ay[j] -= fy;
    }
  }
  return kept;
}

using InvCubePairFn = std::size_t (*)(const InvCubeSweep&, const SweepLanes&, const SweepLanes&,
                                      double*, double*, double*, double*) noexcept;

/// inv_cube_sweep_self over groups of kWidth lanes, each group's pairs with
/// the lanes above it run by the backend's paired loop `kPair`.
template <bool kPeriodic, bool kTwoD, std::size_t kWidth, InvCubePairFn kPair>
std::size_t inv_cube_self(const InvCubeSweep& p, const SweepLanes& a, double* ax,
                          double* ay) noexcept {
  std::size_t kept = 0;
  for (std::size_t g = 0; g < a.n; g += kWidth) {
    const std::size_t e = a.n - g < kWidth ? a.n : g + kWidth;
    kept += inv_cube_triangle<kPeriodic, kTwoD>(p, a, g, e, ax, ay);
    if (e == a.n) break;
    const SweepLanes group{a.x + g, a.y + g, a.id + g, a.cpl + g, e - g};
    const SweepLanes above{a.x + e, a.y + e, a.id + e, a.cpl + e, a.n - e};
    kept += kPair(p, group, above, ax + g, ay + g, ax + e, ay + e);
  }
  return kept;
}

#if CANB_SIMD_X86

// Left-pack tables for the vector test bodies: entry m lists the set bit
// positions of lane mask m in ascending order (the rest are don't-cares).
template <int kLanes>
struct PackTable {
  alignas(16) std::uint32_t idx[1 << kLanes][4] = {};
  constexpr PackTable() {
    for (int m = 0; m < (1 << kLanes); ++m) {
      int k = 0;
      for (int b = 0; b < kLanes; ++b)
        if ((m >> b) & 1) idx[m][k++] = static_cast<std::uint32_t>(b);
    }
  }
};
constexpr PackTable<2> kPack2{};
constexpr PackTable<4> kPack4{};

// --- force-sweep test pass: SSE2 (2 lanes) and AVX2 (4 lanes) ----------------
// Each body is wrap_one/test_one lane-parallel: the minimum-image candidates
// d - L and d + L are selected by the (exclusive) d > L/2 and d < -L/2
// masks; kept lanes are left-packed through the tables above by their mask
// bits; the tail runs test_one itself.

inline __m128d select_sse2(__m128d mask, __m128d if_set, __m128d if_clear) noexcept {
  return _mm_or_pd(_mm_and_pd(mask, if_set), _mm_andnot_pd(mask, if_clear));
}

inline __m128d wrap_sse2(__m128d d, __m128d w, __m128d h, __m128d nh) noexcept {
  const __m128d wrapped = select_sse2(_mm_cmpgt_pd(d, h), _mm_sub_pd(d, w), d);
  return select_sse2(_mm_cmplt_pd(d, nh), _mm_add_pd(d, w), wrapped);
}

template <bool kPeriodic, bool kTwoD, bool kCut>
LaneTestCount test_lanes_sse2(const LaneTest& row, const float* sx, const float* sy,
                              const std::int32_t* sid, std::size_t n, double* dx, double* dy,
                              double* r2, std::uint32_t* keep) noexcept {
  const __m128d xi = _mm_set1_pd(row.x);
  const __m128d yi = _mm_set1_pd(row.y);
  const __m128d wx = _mm_set1_pd(row.wrap_x);
  const __m128d hx = _mm_set1_pd(0.5 * row.wrap_x);
  const __m128d nhx = _mm_set1_pd(-(0.5 * row.wrap_x));
  const __m128d wy = _mm_set1_pd(row.wrap_y);
  const __m128d hy = _mm_set1_pd(0.5 * row.wrap_y);
  const __m128d nhy = _mm_set1_pd(-(0.5 * row.wrap_y));
  const __m128d cut2 = _mm_set1_pd(row.cut2);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128i id = _mm_set1_epi32(row.id);
  std::size_t kept = 0;
  std::size_t self = 0;
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const auto load2 = [](const float* p) {
      return _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
    };
    __m128d x = _mm_sub_pd(xi, load2(sx + j));
    __m128d y = kTwoD ? _mm_sub_pd(yi, load2(sy + j)) : _mm_setzero_pd();
    if constexpr (kPeriodic) {
      x = wrap_sse2(x, wx, hx, nhx);
      if constexpr (kTwoD) y = wrap_sse2(y, wy, hy, nhy);
    }
    __m128d d2 = _mm_add_pd(_mm_mul_pd(x, x), _mm_mul_pd(y, y));
    const __m128i same32 =
        _mm_cmpeq_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(sid + j)), id);
    const __m128d same = _mm_castsi128_pd(_mm_unpacklo_epi32(same32, same32));
    const int self_bits = _mm_movemask_pd(same);
    self += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(self_bits)));
    if constexpr (kCut) {
      const int far_bits = _mm_movemask_pd(_mm_cmpgt_pd(d2, cut2));
      const int keep_bits = ~(self_bits | far_bits) & 0x3;
      const __m128i packed =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kPack2.idx[keep_bits]));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(keep + kept),
                       _mm_add_epi32(packed, _mm_set1_epi32(static_cast<int>(j))));
      kept += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(keep_bits)));
    } else {
      x = _mm_andnot_pd(same, x);
      y = _mm_andnot_pd(same, y);
      d2 = select_sse2(same, one, d2);
    }
    _mm_storeu_pd(dx + j, x);
    _mm_storeu_pd(dy + j, y);
    _mm_storeu_pd(r2 + j, d2);
  }
  for (; j < n; ++j)
    test_one<kPeriodic, kTwoD, kCut>(row, sx, sy, sid, j, dx, dy, r2, keep, kept, self);
  return {kCut ? kept : n - self, n - self};
}

// Loads the target lanes [t, t + kLanes) of an inv_cube_sweep into padded
// arrays: lanes past tgt.n repeat lane t's finite values and are invalid.
template <int kLanes, bool kTwoD>
struct TargetGroup {
  alignas(32) double x[kLanes];
  alignas(32) double y[kLanes];
  alignas(32) double id[kLanes];
  alignas(32) double cpl[kLanes];
  alignas(32) double ax[kLanes];
  alignas(32) double ay[kLanes];
  alignas(32) double valid[kLanes];  ///< all-ones bits for real lanes, +0.0 for padding
  std::size_t real = 0;

  TargetGroup(const SweepLanes& tgt, std::size_t t, const double* sx, const double* sy) noexcept {
    real = tgt.n - t < static_cast<std::size_t>(kLanes) ? tgt.n - t
                                                        : static_cast<std::size_t>(kLanes);
    for (std::size_t l = 0; l < static_cast<std::size_t>(kLanes); ++l) {
      const std::size_t i = l < real ? t + l : t;
      x[l] = tgt.x[i];
      y[l] = kTwoD ? tgt.y[i] : 0.0;
      id[l] = tgt.id[i];
      cpl[l] = tgt.cpl[i];
      ax[l] = sx[i];
      ay[l] = sy[i];
      valid[l] = std::bit_cast<double>(l < real ? ~std::uint64_t{0} : std::uint64_t{0});
    }
  }
  void store(std::size_t t, double* sx, double* sy) const noexcept {
    for (std::size_t l = 0; l < real; ++l) {
      sx[t + l] = ax[l];
      sy[t + l] = ay[l];
    }
  }
};

template <bool kPeriodic, bool kTwoD, bool kCut>
std::size_t inv_cube_sweep_sse2(const InvCubeSweep& p, const SweepLanes& tgt,
                                const SweepLanes& src, double* ax, double* ay) noexcept {
  const __m128d wx = _mm_set1_pd(p.wrap_x);
  const __m128d hx = _mm_set1_pd(0.5 * p.wrap_x);
  const __m128d nhx = _mm_set1_pd(-(0.5 * p.wrap_x));
  const __m128d wy = _mm_set1_pd(p.wrap_y);
  const __m128d hy = _mm_set1_pd(0.5 * p.wrap_y);
  const __m128d nhy = _mm_set1_pd(-(0.5 * p.wrap_y));
  const __m128d cut2 = _mm_set1_pd(p.cut2);
  const __m128d scale = _mm_set1_pd(p.scale);
  const __m128d soft2 = _mm_set1_pd(p.soft2);
  __m128i kept = _mm_setzero_si128();
  for (std::size_t t = 0; t < tgt.n; t += 2) {
    TargetGroup<2, kTwoD> g(tgt, t, ax, ay);
    const __m128d tx = _mm_load_pd(g.x);
    const __m128d ty = _mm_load_pd(g.y);
    const __m128d tid = _mm_load_pd(g.id);
    const __m128d tc = _mm_load_pd(g.cpl);
    const __m128d valid = _mm_load_pd(g.valid);
    __m128d sx = _mm_load_pd(g.ax);
    __m128d sy = _mm_load_pd(g.ay);
    for (std::size_t k = 0; k < src.n; ++k) {
      __m128d dx = _mm_sub_pd(tx, _mm_set1_pd(src.x[k]));
      __m128d dy = kTwoD ? _mm_sub_pd(ty, _mm_set1_pd(src.y[k])) : _mm_setzero_pd();
      if constexpr (kPeriodic) {
        dx = wrap_sse2(dx, wx, hx, nhx);
        if constexpr (kTwoD) dy = wrap_sse2(dy, wy, hy, nhy);
      }
      const __m128d r2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
      __m128d keep = _mm_andnot_pd(_mm_cmpeq_pd(tid, _mm_set1_pd(src.id[k])), valid);
      if constexpr (kCut) keep = _mm_and_pd(keep, _mm_cmpngt_pd(r2, cut2));
      kept = _mm_sub_epi64(kept, _mm_castpd_si128(keep));
      const __m128d c = _mm_mul_pd(scale, _mm_mul_pd(tc, _mm_set1_pd(src.cpl[k])));
      const __m128d d2 = _mm_add_pd(r2, soft2);
      const __m128d mag = _mm_div_pd(c, _mm_mul_pd(d2, _mm_sqrt_pd(d2)));
      sx = _mm_add_pd(sx, _mm_and_pd(_mm_mul_pd(mag, dx), keep));
      sy = _mm_add_pd(sy, _mm_and_pd(_mm_mul_pd(mag, dy), keep));
    }
    _mm_store_pd(g.ax, sx);
    _mm_store_pd(g.ay, sy);
    g.store(t, ax, ay);
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), kept);
  return static_cast<std::size_t>(lanes[0] + lanes[1]);
}

// --- paired evaluate loop: SSE2 ----------------------------------------------
// The target side is inv_cube_sweep_sse2 op for op. The masked products of
// two source lanes form a 2x2 tile (lane = target); transposed, its rows
// are subtracted from the two source sums in target order.

struct InvCubeSse2 {
  __m128d wx, hx, nhx, wy, hy, nhy, scale, soft2;
  explicit InvCubeSse2(const InvCubeSweep& p) noexcept
      : wx(_mm_set1_pd(p.wrap_x)),
        hx(_mm_set1_pd(0.5 * p.wrap_x)),
        nhx(_mm_set1_pd(-(0.5 * p.wrap_x))),
        wy(_mm_set1_pd(p.wrap_y)),
        hy(_mm_set1_pd(0.5 * p.wrap_y)),
        nhy(_mm_set1_pd(-(0.5 * p.wrap_y))),
        scale(_mm_set1_pd(p.scale)),
        soft2(_mm_set1_pd(p.soft2)) {}
};

/// Source lane k against the target group (tx, ty, tid, tc, valid): adds
/// the masked products to (sx, sy) as inv_cube_sweep_sse2 does and returns
/// them in (fx, fy).
template <bool kPeriodic, bool kTwoD>
inline void inv_cube_lane_sse2(const InvCubeSse2& q, const SweepLanes& src, std::size_t k,
                               __m128d tx, __m128d ty, __m128d tid, __m128d tc, __m128d valid,
                               __m128d& sx, __m128d& sy, __m128i& kept, __m128d& fx,
                               __m128d& fy) noexcept {
  __m128d dx = _mm_sub_pd(tx, _mm_set1_pd(src.x[k]));
  __m128d dy = kTwoD ? _mm_sub_pd(ty, _mm_set1_pd(src.y[k])) : _mm_setzero_pd();
  if constexpr (kPeriodic) {
    dx = wrap_sse2(dx, q.wx, q.hx, q.nhx);
    if constexpr (kTwoD) dy = wrap_sse2(dy, q.wy, q.hy, q.nhy);
  }
  const __m128d r2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
  const __m128d keep = _mm_andnot_pd(_mm_cmpeq_pd(tid, _mm_set1_pd(src.id[k])), valid);
  kept = _mm_sub_epi64(kept, _mm_castpd_si128(keep));
  const __m128d c = _mm_mul_pd(q.scale, _mm_mul_pd(tc, _mm_set1_pd(src.cpl[k])));
  const __m128d d2 = _mm_add_pd(r2, q.soft2);
  const __m128d mag = _mm_div_pd(c, _mm_mul_pd(d2, _mm_sqrt_pd(d2)));
  fx = _mm_and_pd(_mm_mul_pd(mag, dx), keep);
  fy = _mm_and_pd(_mm_mul_pd(mag, dy), keep);
  sx = _mm_add_pd(sx, fx);
  sy = _mm_add_pd(sy, fy);
}

/// b[0..1] -= the 2x2 tile whose register u holds the targets' products
/// with source u: target 0's row first, then target 1's.
inline void react2_sse2(double* b, __m128d v0, __m128d v1) noexcept {
  __m128d s = _mm_loadu_pd(b);
  s = _mm_sub_pd(s, _mm_unpacklo_pd(v0, v1));
  s = _mm_sub_pd(s, _mm_unpackhi_pd(v0, v1));
  _mm_storeu_pd(b, s);
}

/// *b -= each lane of v, in lane (target) order.
inline void react1_sse2(double* b, __m128d v) noexcept {
  alignas(16) double f[2];
  _mm_store_pd(f, v);
  *b = (*b - f[0]) - f[1];
}

template <bool kPeriodic, bool kTwoD>
std::size_t inv_cube_pair_sse2(const InvCubeSweep& p, const SweepLanes& tgt,
                               const SweepLanes& src, double* ax, double* ay, double* bx,
                               double* by) noexcept {
  const InvCubeSse2 q(p);
  const std::size_t even = src.n - src.n % 2;
  __m128i kept = _mm_setzero_si128();
  for (std::size_t t = 0; t < tgt.n; t += 2) {
    TargetGroup<2, kTwoD> g(tgt, t, ax, ay);
    const __m128d tx = _mm_load_pd(g.x);
    const __m128d ty = _mm_load_pd(g.y);
    const __m128d tid = _mm_load_pd(g.id);
    const __m128d tc = _mm_load_pd(g.cpl);
    const __m128d valid = _mm_load_pd(g.valid);
    __m128d sx = _mm_load_pd(g.ax);
    __m128d sy = _mm_load_pd(g.ay);
    std::size_t k = 0;
    for (; k < even; k += 2) {
      __m128d fx0, fy0, fx1, fy1;
      inv_cube_lane_sse2<kPeriodic, kTwoD>(q, src, k, tx, ty, tid, tc, valid, sx, sy, kept, fx0,
                                           fy0);
      inv_cube_lane_sse2<kPeriodic, kTwoD>(q, src, k + 1, tx, ty, tid, tc, valid, sx, sy, kept,
                                           fx1, fy1);
      react2_sse2(bx + k, fx0, fx1);
      react2_sse2(by + k, fy0, fy1);
    }
    if (k < src.n) {
      __m128d fx, fy;
      inv_cube_lane_sse2<kPeriodic, kTwoD>(q, src, k, tx, ty, tid, tc, valid, sx, sy, kept, fx,
                                           fy);
      react1_sse2(bx + k, fx);
      react1_sse2(by + k, fy);
    }
    _mm_store_pd(g.ax, sx);
    _mm_store_pd(g.ay, sy);
    g.store(t, ax, ay);
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), kept);
  return static_cast<std::size_t>(lanes[0] + lanes[1]);
}

__attribute__((target("avx2"))) inline __m256d wrap_avx2(__m256d d, __m256d w, __m256d h,
                                                         __m256d nh) noexcept {
  const __m256d wrapped = _mm256_blendv_pd(d, _mm256_sub_pd(d, w), _mm256_cmp_pd(d, h, _CMP_GT_OQ));
  return _mm256_blendv_pd(wrapped, _mm256_add_pd(d, w), _mm256_cmp_pd(d, nh, _CMP_LT_OQ));
}

template <bool kPeriodic, bool kTwoD, bool kCut>
__attribute__((target("avx2"))) LaneTestCount test_lanes_avx2(
    const LaneTest& row, const float* sx, const float* sy, const std::int32_t* sid,
    std::size_t n, double* dx, double* dy, double* r2, std::uint32_t* keep) noexcept {
  const __m256d xi = _mm256_set1_pd(row.x);
  const __m256d yi = _mm256_set1_pd(row.y);
  const __m256d wx = _mm256_set1_pd(row.wrap_x);
  const __m256d hx = _mm256_set1_pd(0.5 * row.wrap_x);
  const __m256d nhx = _mm256_set1_pd(-(0.5 * row.wrap_x));
  const __m256d wy = _mm256_set1_pd(row.wrap_y);
  const __m256d hy = _mm256_set1_pd(0.5 * row.wrap_y);
  const __m256d nhy = _mm256_set1_pd(-(0.5 * row.wrap_y));
  const __m256d cut2 = _mm256_set1_pd(row.cut2);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m128i id = _mm_set1_epi32(row.id);
  std::size_t kept = 0;
  std::size_t self = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d x = _mm256_sub_pd(xi, _mm256_cvtps_pd(_mm_loadu_ps(sx + j)));
    __m256d y = kTwoD ? _mm256_sub_pd(yi, _mm256_cvtps_pd(_mm_loadu_ps(sy + j)))
                      : _mm256_setzero_pd();
    if constexpr (kPeriodic) {
      x = wrap_avx2(x, wx, hx, nhx);
      if constexpr (kTwoD) y = wrap_avx2(y, wy, hy, nhy);
    }
    __m256d d2 = _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
    const __m128i same32 =
        _mm_cmpeq_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(sid + j)), id);
    const int self_bits = _mm_movemask_ps(_mm_castsi128_ps(same32));
    self += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(self_bits)));
    if constexpr (kCut) {
      const int far_bits = _mm256_movemask_pd(_mm256_cmp_pd(d2, cut2, _CMP_GT_OQ));
      const int keep_bits = ~(self_bits | far_bits) & 0xF;
      const __m128i packed =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kPack4.idx[keep_bits]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + kept),
                       _mm_add_epi32(packed, _mm_set1_epi32(static_cast<int>(j))));
      kept += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(keep_bits)));
    } else {
      const __m256d same = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(same32));
      x = _mm256_andnot_pd(same, x);
      y = _mm256_andnot_pd(same, y);
      d2 = _mm256_blendv_pd(d2, one, same);
    }
    _mm256_storeu_pd(dx + j, x);
    _mm256_storeu_pd(dy + j, y);
    _mm256_storeu_pd(r2 + j, d2);
  }
  for (; j < n; ++j)
    test_one<kPeriodic, kTwoD, kCut>(row, sx, sy, sid, j, dx, dy, r2, keep, kept, self);
  return {kCut ? kept : n - self, n - self};
}

template <bool kPeriodic, bool kTwoD, bool kCut>
__attribute__((target("avx2"))) std::size_t inv_cube_sweep_avx2(
    const InvCubeSweep& p, const SweepLanes& tgt, const SweepLanes& src, double* ax,
    double* ay) noexcept {
  const __m256d wx = _mm256_set1_pd(p.wrap_x);
  const __m256d hx = _mm256_set1_pd(0.5 * p.wrap_x);
  const __m256d nhx = _mm256_set1_pd(-(0.5 * p.wrap_x));
  const __m256d wy = _mm256_set1_pd(p.wrap_y);
  const __m256d hy = _mm256_set1_pd(0.5 * p.wrap_y);
  const __m256d nhy = _mm256_set1_pd(-(0.5 * p.wrap_y));
  const __m256d cut2 = _mm256_set1_pd(p.cut2);
  const __m256d scale = _mm256_set1_pd(p.scale);
  const __m256d soft2 = _mm256_set1_pd(p.soft2);
  // A tail of one or two targets runs two lanes wide below, rather than
  // padding a four-lane group.
  const std::size_t tail = tgt.n % 4 <= 2 ? tgt.n % 4 : 0;
  const std::size_t wide = tgt.n - tail;
  __m256i kept = _mm256_setzero_si256();
  for (std::size_t t = 0; t < wide; t += 4) {
    TargetGroup<4, kTwoD> g(tgt, t, ax, ay);
    const __m256d tx = _mm256_load_pd(g.x);
    const __m256d ty = _mm256_load_pd(g.y);
    const __m256d tid = _mm256_load_pd(g.id);
    const __m256d tc = _mm256_load_pd(g.cpl);
    const __m256d valid = _mm256_load_pd(g.valid);
    __m256d sx = _mm256_load_pd(g.ax);
    __m256d sy = _mm256_load_pd(g.ay);
    for (std::size_t k = 0; k < src.n; ++k) {
      __m256d dx = _mm256_sub_pd(tx, _mm256_broadcast_sd(src.x + k));
      __m256d dy =
          kTwoD ? _mm256_sub_pd(ty, _mm256_broadcast_sd(src.y + k)) : _mm256_setzero_pd();
      if constexpr (kPeriodic) {
        dx = wrap_avx2(dx, wx, hx, nhx);
        if constexpr (kTwoD) dy = wrap_avx2(dy, wy, hy, nhy);
      }
      const __m256d r2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      __m256d keep = _mm256_andnot_pd(
          _mm256_cmp_pd(tid, _mm256_broadcast_sd(src.id + k), _CMP_EQ_OQ), valid);
      if constexpr (kCut) keep = _mm256_and_pd(keep, _mm256_cmp_pd(r2, cut2, _CMP_NGT_UQ));
      kept = _mm256_sub_epi64(kept, _mm256_castpd_si256(keep));
      const __m256d c =
          _mm256_mul_pd(scale, _mm256_mul_pd(tc, _mm256_broadcast_sd(src.cpl + k)));
      const __m256d d2 = _mm256_add_pd(r2, soft2);
      const __m256d mag = _mm256_div_pd(c, _mm256_mul_pd(d2, _mm256_sqrt_pd(d2)));
      sx = _mm256_add_pd(sx, _mm256_and_pd(_mm256_mul_pd(mag, dx), keep));
      sy = _mm256_add_pd(sy, _mm256_and_pd(_mm256_mul_pd(mag, dy), keep));
    }
    _mm256_store_pd(g.ax, sx);
    _mm256_store_pd(g.ay, sy);
    g.store(t, ax, ay);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), kept);
  std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  if (tail > 0) {
    const SweepLanes rest{tgt.x + wide, tgt.y + wide, tgt.id + wide, tgt.cpl + wide, tail};
    total += inv_cube_sweep_sse2<kPeriodic, kTwoD, kCut>(p, rest, src, ax + wide, ay + wide);
  }
  return total;
}

// --- paired evaluate loop: AVX2 ----------------------------------------------
// The target side is inv_cube_sweep_avx2 op for op. The masked products of
// four source lanes form a 4x4 tile (lane = target); unpacklo/hi and
// permute2f128 transpose it, and its rows are subtracted from the four
// source sums in target order. Source lanes past the last multiple of four
// take their reactions lane by lane, in target order.

struct InvCubeAvx2 {
  __m256d wx, hx, nhx, wy, hy, nhy, scale, soft2;
};

template <bool kPeriodic, bool kTwoD>
__attribute__((target("avx2"), always_inline)) inline void inv_cube_lane_avx2(
    const InvCubeAvx2& q, const SweepLanes& src, std::size_t k, __m256d tx, __m256d ty,
    __m256d tid, __m256d tc, __m256d valid, __m256d& sx, __m256d& sy, __m256i& kept,
    __m256d& fx, __m256d& fy) noexcept {
  __m256d dx = _mm256_sub_pd(tx, _mm256_broadcast_sd(src.x + k));
  __m256d dy = kTwoD ? _mm256_sub_pd(ty, _mm256_broadcast_sd(src.y + k)) : _mm256_setzero_pd();
  if constexpr (kPeriodic) {
    dx = wrap_avx2(dx, q.wx, q.hx, q.nhx);
    if constexpr (kTwoD) dy = wrap_avx2(dy, q.wy, q.hy, q.nhy);
  }
  const __m256d r2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
  const __m256d keep =
      _mm256_andnot_pd(_mm256_cmp_pd(tid, _mm256_broadcast_sd(src.id + k), _CMP_EQ_OQ), valid);
  kept = _mm256_sub_epi64(kept, _mm256_castpd_si256(keep));
  const __m256d c = _mm256_mul_pd(q.scale, _mm256_mul_pd(tc, _mm256_broadcast_sd(src.cpl + k)));
  const __m256d d2 = _mm256_add_pd(r2, q.soft2);
  const __m256d mag = _mm256_div_pd(c, _mm256_mul_pd(d2, _mm256_sqrt_pd(d2)));
  fx = _mm256_and_pd(_mm256_mul_pd(mag, dx), keep);
  fy = _mm256_and_pd(_mm256_mul_pd(mag, dy), keep);
  sx = _mm256_add_pd(sx, fx);
  sy = _mm256_add_pd(sy, fy);
}

/// b[0..3] -= the 4x4 tile whose register u holds the targets' products
/// with source u: target 0's row first, then targets 1, 2 and 3.
__attribute__((target("avx2"), always_inline)) inline void react4_avx2(double* b, __m256d v0,
                                                                      __m256d v1, __m256d v2,
                                                                      __m256d v3) noexcept {
  const __m256d lo01 = _mm256_unpacklo_pd(v0, v1);  // targets 0 and 2, sources 0 and 1
  const __m256d hi01 = _mm256_unpackhi_pd(v0, v1);  // targets 1 and 3, sources 0 and 1
  const __m256d lo23 = _mm256_unpacklo_pd(v2, v3);
  const __m256d hi23 = _mm256_unpackhi_pd(v2, v3);
  __m256d s = _mm256_loadu_pd(b);
  s = _mm256_sub_pd(s, _mm256_permute2f128_pd(lo01, lo23, 0x20));
  s = _mm256_sub_pd(s, _mm256_permute2f128_pd(hi01, hi23, 0x20));
  s = _mm256_sub_pd(s, _mm256_permute2f128_pd(lo01, lo23, 0x31));
  s = _mm256_sub_pd(s, _mm256_permute2f128_pd(hi01, hi23, 0x31));
  _mm256_storeu_pd(b, s);
}

/// *b -= each lane of v, in lane (target) order.
__attribute__((target("avx2"), always_inline)) inline void react1_avx2(double* b,
                                                                      __m256d v) noexcept {
  alignas(32) double f[4];
  _mm256_store_pd(f, v);
  *b = (((*b - f[0]) - f[1]) - f[2]) - f[3];
}

template <bool kPeriodic, bool kTwoD>
__attribute__((target("avx2"))) std::size_t inv_cube_pair_avx2(
    const InvCubeSweep& p, const SweepLanes& tgt, const SweepLanes& src, double* ax, double* ay,
    double* bx, double* by) noexcept {
  const InvCubeAvx2 q{_mm256_set1_pd(p.wrap_x),        _mm256_set1_pd(0.5 * p.wrap_x),
                      _mm256_set1_pd(-(0.5 * p.wrap_x)), _mm256_set1_pd(p.wrap_y),
                      _mm256_set1_pd(0.5 * p.wrap_y),    _mm256_set1_pd(-(0.5 * p.wrap_y)),
                      _mm256_set1_pd(p.scale),           _mm256_set1_pd(p.soft2)};
  // As in inv_cube_sweep_avx2, a tail of one or two targets runs two lanes
  // wide after the rest; its reactions still arrive in target order.
  const std::size_t tail = tgt.n % 4 <= 2 ? tgt.n % 4 : 0;
  const std::size_t wide = tgt.n - tail;
  const std::size_t quads = src.n - src.n % 4;
  __m256i kept = _mm256_setzero_si256();
  for (std::size_t t = 0; t < wide; t += 4) {
    TargetGroup<4, kTwoD> g(tgt, t, ax, ay);
    const __m256d tx = _mm256_load_pd(g.x);
    const __m256d ty = _mm256_load_pd(g.y);
    const __m256d tid = _mm256_load_pd(g.id);
    const __m256d tc = _mm256_load_pd(g.cpl);
    const __m256d valid = _mm256_load_pd(g.valid);
    __m256d sx = _mm256_load_pd(g.ax);
    __m256d sy = _mm256_load_pd(g.ay);
    std::size_t k = 0;
    for (; k < quads; k += 4) {
      __m256d fx0, fy0, fx1, fy1, fx2, fy2, fx3, fy3;
      inv_cube_lane_avx2<kPeriodic, kTwoD>(q, src, k, tx, ty, tid, tc, valid, sx, sy, kept, fx0,
                                           fy0);
      inv_cube_lane_avx2<kPeriodic, kTwoD>(q, src, k + 1, tx, ty, tid, tc, valid, sx, sy, kept,
                                           fx1, fy1);
      inv_cube_lane_avx2<kPeriodic, kTwoD>(q, src, k + 2, tx, ty, tid, tc, valid, sx, sy, kept,
                                           fx2, fy2);
      inv_cube_lane_avx2<kPeriodic, kTwoD>(q, src, k + 3, tx, ty, tid, tc, valid, sx, sy, kept,
                                           fx3, fy3);
      react4_avx2(bx + k, fx0, fx1, fx2, fx3);
      react4_avx2(by + k, fy0, fy1, fy2, fy3);
    }
    for (; k < src.n; ++k) {
      __m256d fx, fy;
      inv_cube_lane_avx2<kPeriodic, kTwoD>(q, src, k, tx, ty, tid, tc, valid, sx, sy, kept, fx,
                                           fy);
      react1_avx2(bx + k, fx);
      react1_avx2(by + k, fy);
    }
    _mm256_store_pd(g.ax, sx);
    _mm256_store_pd(g.ay, sy);
    g.store(t, ax, ay);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), kept);
  std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  if (tail > 0) {
    const SweepLanes rest{tgt.x + wide, tgt.y + wide, tgt.id + wide, tgt.cpl + wide, tail};
    total += inv_cube_pair_sse2<kPeriodic, kTwoD>(p, rest, src, ax + wide, ay + wide, bx, by);
  }
  return total;
}

#endif  // CANB_SIMD_X86

using InvCubeSweepFn = std::size_t (*)(const InvCubeSweep&, const SweepLanes&,
                                       const SweepLanes&, double*, double*) noexcept;

template <bool kPeriodic, bool kTwoD, bool kCut>
InvCubeSweepFn inv_cube_sweep_body(Backend b) noexcept {
#if CANB_SIMD_X86
  switch (b) {
    case Backend::Avx2: return &inv_cube_sweep_avx2<kPeriodic, kTwoD, kCut>;
    case Backend::Sse2: return &inv_cube_sweep_sse2<kPeriodic, kTwoD, kCut>;
    case Backend::Scalar: break;
  }
#else
  (void)b;
#endif
  return &inv_cube_sweep_scalar<kPeriodic, kTwoD, kCut>;
}

template <bool kPeriodic, bool kTwoD>
InvCubeSweepFn inv_cube_sweep_body(Backend b, bool cut) noexcept {
  return cut ? inv_cube_sweep_body<kPeriodic, kTwoD, true>(b)
             : inv_cube_sweep_body<kPeriodic, kTwoD, false>(b);
}

template <bool kPeriodic, bool kTwoD>
InvCubePairFn inv_cube_pair_body(Backend b) noexcept {
#if CANB_SIMD_X86
  switch (b) {
    case Backend::Avx2: return &inv_cube_pair_avx2<kPeriodic, kTwoD>;
    case Backend::Sse2: return &inv_cube_pair_sse2<kPeriodic, kTwoD>;
    case Backend::Scalar: break;
  }
#else
  (void)b;
#endif
  return &inv_cube_pair_scalar<kPeriodic, kTwoD>;
}

using InvCubeSelfFn = std::size_t (*)(const InvCubeSweep&, const SweepLanes&, double*,
                                      double*) noexcept;

template <bool kPeriodic, bool kTwoD>
InvCubeSelfFn inv_cube_self_body(Backend b) noexcept {
#if CANB_SIMD_X86
  switch (b) {
    case Backend::Avx2:
      return &inv_cube_self<kPeriodic, kTwoD, 4, &inv_cube_pair_avx2<kPeriodic, kTwoD>>;
    case Backend::Sse2:
      return &inv_cube_self<kPeriodic, kTwoD, 2, &inv_cube_pair_sse2<kPeriodic, kTwoD>>;
    case Backend::Scalar: break;
  }
#else
  (void)b;
#endif
  return &inv_cube_self<kPeriodic, kTwoD, 1, &inv_cube_pair_scalar<kPeriodic, kTwoD>>;
}

using TestLanesFn = LaneTestCount (*)(const LaneTest&, const float*, const float*,
                                      const std::int32_t*, std::size_t, double*, double*,
                                      double*, std::uint32_t*) noexcept;

template <bool kPeriodic, bool kTwoD, bool kCut>
TestLanesFn test_lanes_body(Backend b) noexcept {
#if CANB_SIMD_X86
  switch (b) {
    case Backend::Avx2: return &test_lanes_avx2<kPeriodic, kTwoD, kCut>;
    case Backend::Sse2: return &test_lanes_sse2<kPeriodic, kTwoD, kCut>;
    case Backend::Scalar: break;
  }
#else
  (void)b;
#endif
  return &test_lanes_scalar<kPeriodic, kTwoD, kCut>;
}

template <bool kPeriodic, bool kTwoD>
TestLanesFn test_lanes_body(Backend b, bool cut) noexcept {
  return cut ? test_lanes_body<kPeriodic, kTwoD, true>(b)
             : test_lanes_body<kPeriodic, kTwoD, false>(b);
}

// --- dispatch state ---------------------------------------------------------

std::atomic<int> g_backend{-1};  ///< -1 = not yet resolved from env/CPUID

Backend clamp_to_supported(Backend b) noexcept {
  return static_cast<int>(b) > static_cast<int>(max_supported()) ? max_supported() : b;
}

}  // namespace

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::Scalar: return "scalar";
    case Backend::Sse2: return "sse2";
    case Backend::Avx2: return "avx2";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "scalar") return Backend::Scalar;
  if (name == "sse2") return Backend::Sse2;
  if (name == "avx2") return Backend::Avx2;
  return std::nullopt;
}

Backend max_supported() noexcept {
  static const Backend widest = [] {
#if CANB_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return Backend::Avx2;
    if (__builtin_cpu_supports("sse2")) return Backend::Sse2;
#endif
    return Backend::Scalar;
  }();
  return widest;
}

Backend active() noexcept {
  const int cur = g_backend.load(std::memory_order_relaxed);
  if (cur >= 0) return static_cast<Backend>(cur);
  Backend b = max_supported();
  if (const char* env = std::getenv("CANB_SIMD")) {
    if (const auto parsed = parse_backend(env)) b = clamp_to_supported(*parsed);
  }
  // A racing first call resolves to the same value; the store is idempotent.
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  return b;
}

Backend set_backend(Backend b) noexcept {
  const Backend installed = clamp_to_supported(b);
  g_backend.store(static_cast<int>(installed), std::memory_order_relaxed);
  return installed;
}

std::size_t inv_cube_sweep(const InvCubeSweep& p, const SweepLanes& tgt, const SweepLanes& src,
                           double* ax, double* ay) noexcept {
  const Backend b = active();
  const bool cut = p.cut2 > 0.0;
  InvCubeSweepFn body = nullptr;
  if (p.wrap_x > 0.0)
    body = p.two_d ? inv_cube_sweep_body<true, true>(b, cut)
                   : inv_cube_sweep_body<true, false>(b, cut);
  else
    body = p.two_d ? inv_cube_sweep_body<false, true>(b, cut)
                   : inv_cube_sweep_body<false, false>(b, cut);
  return body(p, tgt, src, ax, ay);
}

std::size_t inv_cube_sweep_pair(const InvCubeSweep& p, const SweepLanes& a, const SweepLanes& b,
                                double* ax, double* ay, double* bx, double* by) noexcept {
  const Backend backend = active();
  InvCubePairFn body = nullptr;
  if (p.wrap_x > 0.0)
    body = p.two_d ? inv_cube_pair_body<true, true>(backend)
                   : inv_cube_pair_body<true, false>(backend);
  else
    body = p.two_d ? inv_cube_pair_body<false, true>(backend)
                   : inv_cube_pair_body<false, false>(backend);
  return body(p, a, b, ax, ay, bx, by);
}

std::size_t inv_cube_sweep_self(const InvCubeSweep& p, const SweepLanes& a, double* ax,
                                double* ay) noexcept {
  const Backend backend = active();
  InvCubeSelfFn body = nullptr;
  if (p.wrap_x > 0.0)
    body = p.two_d ? inv_cube_self_body<true, true>(backend)
                   : inv_cube_self_body<true, false>(backend);
  else
    body = p.two_d ? inv_cube_self_body<false, true>(backend)
                   : inv_cube_self_body<false, false>(backend);
  return body(p, a, ax, ay);
}

LaneTestCount test_lanes(const LaneTest& row, const float* sx, const float* sy,
                         const std::int32_t* sid, std::size_t n, double* dx, double* dy,
                         double* r2, std::uint32_t* keep) noexcept {
  const Backend b = active();
  const bool cut = row.cut2 > 0.0;
  TestLanesFn body = nullptr;
  if (row.wrap_x > 0.0)
    body = row.two_d ? test_lanes_body<true, true>(b, cut) : test_lanes_body<true, false>(b, cut);
  else
    body = row.two_d ? test_lanes_body<false, true>(b, cut) : test_lanes_body<false, false>(b, cut);
  return body(row, sx, sy, sid, n, dx, dy, r2, keep);
}

}  // namespace canb::particles::simd
