// Runtime-dispatched SIMD backends (see simd.hpp for the contract).
//
// Everything numeric lives out-of-line in this translation unit on
// purpose: canb_particles is always built with the portable library flags
// (-O2, no -march, no -ffp-contract=fast), so the scalar reference loops
// here can never be FMA-contracted or reassociated — which is what makes
// the "every backend agrees bitwise" guarantees below hold no matter what
// flags the *calling* binary (e.g. a bench with CANB_NATIVE_ARCH) uses.
// The AVX2 bodies are compiled via the GCC/Clang `target` function
// attribute, so no global architecture flags are required and the
// dispatcher can still run on machines without AVX2.
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

// --- exp: shared range reduction + truncated-Taylor polynomial ------------
// exp(x) = 2^n * exp(r) with n = roundeven(x * log2 e) and r = x - n*ln2,
// the ln2 subtracted in a high/low split so the reduction is exact to the
// last bit. |r| <= ln2/2, where the degree-11 polynomial's truncation
// error is ~9e-15 relative; with per-op rounding the total stays under
// 5e-14 (accuracy-tested against std::exp). The op sequence is identical —
// and FMA-free — in every backend, so lanes agree bitwise across
// scalar/SSE2/AVX2.
constexpr double kExpClamp = 700.0;
constexpr double kLog2e = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpC[12] = {
    1.0,          1.0,           1.0 / 2.0,      1.0 / 6.0,
    1.0 / 24.0,   1.0 / 120.0,   1.0 / 720.0,    1.0 / 5040.0,
    1.0 / 40320.0, 1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0,
};

double exp_one(double x) noexcept {
  x = x < -kExpClamp ? -kExpClamp : (x > kExpClamp ? kExpClamp : x);
  const double n = std::nearbyint(x * kLog2e);
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  double p = kExpC[11];
  for (int k = 10; k >= 0; --k) p = p * r + kExpC[k];
  const auto ki = static_cast<std::int64_t>(n);
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(ki + 1023) << 52);
  return p * scale;
}

void exp_lanes_scalar(const double* x, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_one(x[i]);
}

// --- inverse cube: exact and rsqrt-seeded fast magnitudes ------------------
// Exact: out = (scale*cpl) / (d2 * sqrt(d2)) — only correctly-rounded IEEE
// ops, so scalar/SSE2/AVX2 agree bitwise with the kernels' `magnitude`.
void inv_cube_exact_scalar(const double* r2, const double* cpl, double* out, std::size_t n,
                           double scale, double soft2) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = r2[i] + soft2;
    out[i] = (scale * cpl[i]) / (d2 * std::sqrt(d2));
  }
}

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

// Fast path: d2^{-3/2} = y^3 from the hardware rsqrt estimate (float,
// relative error <= 3.7e-4) refined by two FMA-free Newton iterations
// (y <- y * (1.5 - (0.5*d2) * y*y)), each squaring the error: ~2e-7 then
// ~6e-14 on y, so <= ~2e-13 on y^3 (documented bound 1e-12). The identical
// op sequence keeps SSE2 and AVX2 bitwise-equal to each other; forces are
// then only ULP-close to the exact path, which is why this is opt-in.
double inv_cube_fast_one(double d2, double c) noexcept {
  const float f = static_cast<float>(d2);
  double y = static_cast<double>(_mm_cvtss_f32(_mm_rsqrt_ss(_mm_set_ss(f))));
  const double h = 0.5 * d2;
  for (int it = 0; it < 2; ++it) {
    const double yy = y * y;
    y = y * (1.5 - h * yy);
  }
  return c * (y * (y * y));
}

void inv_cube_fast_scalar(const double* r2, const double* cpl, double* out, std::size_t n,
                          double scale, double soft2) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = inv_cube_fast_one(r2[i] + soft2, scale * cpl[i]);
}

// --- SSE2 bodies (baseline on x86-64: no target attribute needed) ----------

void exp_lanes_sse2(const double* x, double* out, std::size_t n) noexcept {
  const __m128d hi = _mm_set1_pd(kExpClamp);
  const __m128d lo = _mm_set1_pd(-kExpClamp);
  const __m128d log2e = _mm_set1_pd(kLog2e);
  const __m128d ln2hi = _mm_set1_pd(kLn2Hi);
  const __m128d ln2lo = _mm_set1_pd(kLn2Lo);
  const __m128i bias = _mm_set1_epi64x(1023);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d v = _mm_loadu_pd(x + i);
    v = _mm_min_pd(_mm_max_pd(v, lo), hi);
    const __m128i ni = _mm_cvtpd_epi32(_mm_mul_pd(v, log2e));  // roundeven
    const __m128d nd = _mm_cvtepi32_pd(ni);
    const __m128d r =
        _mm_sub_pd(_mm_sub_pd(v, _mm_mul_pd(nd, ln2hi)), _mm_mul_pd(nd, ln2lo));
    __m128d p = _mm_set1_pd(kExpC[11]);
    for (int k = 10; k >= 0; --k)
      p = _mm_add_pd(_mm_mul_pd(p, r), _mm_set1_pd(kExpC[k]));
    // Sign-extend the two int32 exponents to int64 and build 2^n bitwise.
    const __m128i ki = _mm_unpacklo_epi32(ni, _mm_srai_epi32(ni, 31));
    const __m128i bits = _mm_slli_epi64(_mm_add_epi64(ki, bias), 52);
    _mm_storeu_pd(out + i, _mm_mul_pd(p, _mm_castsi128_pd(bits)));
  }
  for (; i < n; ++i) out[i] = exp_one(x[i]);
}

void inv_cube_exact_sse2(const double* r2, const double* cpl, double* out, std::size_t n,
                         double scale, double soft2) noexcept {
  const __m128d soft = _mm_set1_pd(soft2);
  const __m128d sc = _mm_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d d2 = _mm_add_pd(_mm_loadu_pd(r2 + i), soft);
    const __m128d num = _mm_mul_pd(sc, _mm_loadu_pd(cpl + i));
    _mm_storeu_pd(out + i, _mm_div_pd(num, _mm_mul_pd(d2, _mm_sqrt_pd(d2))));
  }
  for (; i < n; ++i) {
    const double d2 = r2[i] + soft2;
    out[i] = (scale * cpl[i]) / (d2 * std::sqrt(d2));
  }
}

void inv_cube_fast_sse2(const double* r2, const double* cpl, double* out, std::size_t n,
                        double scale, double soft2) noexcept {
  const __m128d soft = _mm_set1_pd(soft2);
  const __m128d sc = _mm_set1_pd(scale);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d three_half = _mm_set1_pd(1.5);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d d2 = _mm_add_pd(_mm_loadu_pd(r2 + i), soft);
    __m128d y = _mm_cvtps_pd(_mm_rsqrt_ps(_mm_cvtpd_ps(d2)));
    const __m128d h = _mm_mul_pd(half, d2);
    for (int it = 0; it < 2; ++it) {
      const __m128d yy = _mm_mul_pd(y, y);
      y = _mm_mul_pd(y, _mm_sub_pd(three_half, _mm_mul_pd(h, yy)));
    }
    const __m128d c = _mm_mul_pd(sc, _mm_loadu_pd(cpl + i));
    _mm_storeu_pd(out + i, _mm_mul_pd(c, _mm_mul_pd(y, _mm_mul_pd(y, y))));
  }
  for (; i < n; ++i) out[i] = inv_cube_fast_one(r2[i] + soft2, scale * cpl[i]);
}

// --- AVX2 bodies (compiled via the target attribute; dispatch guards) -------

__attribute__((target("avx2"))) void exp_lanes_avx2(const double* x, double* out,
                                                    std::size_t n) noexcept {
  const __m256d hi = _mm256_set1_pd(kExpClamp);
  const __m256d lo = _mm256_set1_pd(-kExpClamp);
  const __m256d log2e = _mm256_set1_pd(kLog2e);
  const __m256d ln2hi = _mm256_set1_pd(kLn2Hi);
  const __m256d ln2lo = _mm256_set1_pd(kLn2Lo);
  const __m256i bias = _mm256_set1_epi64x(1023);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(x + i);
    v = _mm256_min_pd(_mm256_max_pd(v, lo), hi);
    const __m128i ni = _mm256_cvtpd_epi32(_mm256_mul_pd(v, log2e));  // roundeven
    const __m256d nd = _mm256_cvtepi32_pd(ni);
    const __m256d r = _mm256_sub_pd(_mm256_sub_pd(v, _mm256_mul_pd(nd, ln2hi)),
                                    _mm256_mul_pd(nd, ln2lo));
    __m256d p = _mm256_set1_pd(kExpC[11]);
    for (int k = 10; k >= 0; --k)
      p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kExpC[k]));
    const __m256i bits =
        _mm256_slli_epi64(_mm256_add_epi64(_mm256_cvtepi32_epi64(ni), bias), 52);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(p, _mm256_castsi256_pd(bits)));
  }
  for (; i < n; ++i) out[i] = exp_one(x[i]);
}

__attribute__((target("avx2"))) void inv_cube_exact_avx2(const double* r2, const double* cpl,
                                                         double* out, std::size_t n,
                                                         double scale,
                                                         double soft2) noexcept {
  const __m256d soft = _mm256_set1_pd(soft2);
  const __m256d sc = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d2 = _mm256_add_pd(_mm256_loadu_pd(r2 + i), soft);
    const __m256d num = _mm256_mul_pd(sc, _mm256_loadu_pd(cpl + i));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(num, _mm256_mul_pd(d2, _mm256_sqrt_pd(d2))));
  }
  for (; i < n; ++i) {
    const double d2 = r2[i] + soft2;
    out[i] = (scale * cpl[i]) / (d2 * std::sqrt(d2));
  }
}

__attribute__((target("avx2"))) void inv_cube_fast_avx2(const double* r2, const double* cpl,
                                                        double* out, std::size_t n,
                                                        double scale, double soft2) noexcept {
  const __m256d soft = _mm256_set1_pd(soft2);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d three_half = _mm256_set1_pd(1.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d2 = _mm256_add_pd(_mm256_loadu_pd(r2 + i), soft);
    __m256d y = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(d2)));
    const __m256d h = _mm256_mul_pd(half, d2);
    for (int it = 0; it < 2; ++it) {
      const __m256d yy = _mm256_mul_pd(y, y);
      y = _mm256_mul_pd(y, _mm256_sub_pd(three_half, _mm256_mul_pd(h, yy)));
    }
    const __m256d c = _mm256_mul_pd(sc, _mm256_loadu_pd(cpl + i));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(c, _mm256_mul_pd(y, _mm256_mul_pd(y, y))));
  }
  for (; i < n; ++i) out[i] = inv_cube_fast_one(r2[i] + soft2, scale * cpl[i]);
}

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

#endif  // CANB_SIMD_X86

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
std::atomic<bool> g_fast_rsqrt{false};

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

bool fast_rsqrt() noexcept { return g_fast_rsqrt.load(std::memory_order_relaxed); }

void set_fast_rsqrt(bool on) noexcept {
#if !CANB_SIMD_X86
  on = false;  // no hardware estimate to seed from; exact path only
#endif
  g_fast_rsqrt.store(on, std::memory_order_relaxed);
}

void inv_cube_lanes(const double* r2, const double* cpl, double* out, std::size_t n,
                    double scale, double soft2) noexcept {
#if CANB_SIMD_X86
  const bool fast = fast_rsqrt();
  switch (active()) {
    case Backend::Avx2:
      return fast ? inv_cube_fast_avx2(r2, cpl, out, n, scale, soft2)
                  : inv_cube_exact_avx2(r2, cpl, out, n, scale, soft2);
    case Backend::Sse2:
      return fast ? inv_cube_fast_sse2(r2, cpl, out, n, scale, soft2)
                  : inv_cube_exact_sse2(r2, cpl, out, n, scale, soft2);
    case Backend::Scalar:
      return fast ? inv_cube_fast_scalar(r2, cpl, out, n, scale, soft2)
                  : inv_cube_exact_scalar(r2, cpl, out, n, scale, soft2);
  }
#endif
  inv_cube_exact_scalar(r2, cpl, out, n, scale, soft2);
}

void exp_lanes(const double* x, double* out, std::size_t n) noexcept {
#if CANB_SIMD_X86
  switch (active()) {
    case Backend::Avx2: return exp_lanes_avx2(x, out, n);
    case Backend::Sse2: return exp_lanes_sse2(x, out, n);
    case Backend::Scalar: return exp_lanes_scalar(x, out, n);
  }
#endif
  exp_lanes_scalar(x, out, n);
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
