// Explicit SIMD backends for the force sweeps' lane pipelines.
//
// The library targets are deliberately built with portable flags (no
// -march), so the auto-vectorizer cannot use anything past baseline SSE2
// there — and libm calls (sqrt with errno, exp) stay scalar. This module
// provides the lane pipelines that dominate the force sweep as
// hand-dispatched kernels instead:
//
//  * test_lanes — the test pass of the resident sweep (particles/sweep.hpp):
//    geometry, id and cutoff tests for a row of source lanes, packing the
//    kept lanes' indices. Same op sequence as the AoS reference loop, no
//    FMA, so every backend writes bitwise-identical lanes.
//  * inv_cube_lanes — the r^2 -> coupling/(d2*sqrt(d2)) pipeline behind
//    InverseSquareRepulsion and Gravity. The exact variant uses only
//    correctly-rounded IEEE ops (add/mul/div/sqrt, no FMA), so every
//    backend produces BITWISE-identical lanes to the scalar expression
//    `c / (d2 * std::sqrt(d2))` — the engines' bitwise trajectory contract
//    survives backend dispatch untouched. The opt-in fast variant seeds
//    with the hardware rsqrt estimate and refines by Newton iterations
//    (documented relative error <= 1e-12); it is OFF by default and only
//    ever enabled by an explicit tuner/bench/CLI decision.
//  * exp_lanes — a lane-batched exp for the Yukawa/Morse magnitude path.
//    One shared range-reduction + polynomial algorithm, implemented with
//    the same non-FMA operation sequence in every backend, so scalar, SSE2
//    and AVX2 agree bitwise with each other (relative error vs std::exp
//    <= 5e-14 over the kernels' operating range; accuracy-tested).
//
// Backend selection is RUNTIME dispatch: CPUID decides the widest usable
// backend, the CANB_SIMD environment variable (scalar|sse2|avx2) can lower
// it, and set_backend() lets the host tuner or a bench arm pin it
// per-process. Nothing here reads or writes the virtual cost model — like
// the sweeps that call it, this changes host wall time only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace canb::particles::simd {

/// Instruction-set backend for the lane pipelines, in widening order.
/// On non-x86 builds only Scalar is supported.
enum class Backend { Scalar = 0, Sse2 = 1, Avx2 = 2 };

const char* backend_name(Backend b) noexcept;

/// Parses "scalar" | "sse2" | "avx2"; nullopt on anything else.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// Widest backend this CPU supports (CPUID probe, cached).
Backend max_supported() noexcept;

/// The backend the lane pipelines currently dispatch to. Initialized on
/// first use from CANB_SIMD (clamped to max_supported(); unknown values
/// are ignored), defaulting to max_supported().
Backend active() noexcept;

/// Pins the dispatch backend (clamped to max_supported()); returns the
/// backend actually installed. Call at configuration time — the sweeps
/// themselves never mutate it, so a run uses one backend throughout.
Backend set_backend(Backend b) noexcept;

/// Whether inv_cube_lanes may use the rsqrt-estimate fast path (default
/// false: exact, bitwise-stable arithmetic).
bool fast_rsqrt() noexcept;
void set_fast_rsqrt(bool on) noexcept;

/// out[i] = scale * cpl[i] / (d2 * sqrt(d2)) with d2 = r2[i] + soft2 —
/// the inverse-cube magnitude lane shared by InverseSquareRepulsion
/// (scale = strength) and Gravity (scale = -g). Exact mode is bitwise
/// equal to the scalar expression on every backend; fast mode (see
/// fast_rsqrt()) has relative error <= 1e-12.
void inv_cube_lanes(const double* r2, const double* cpl, double* out, std::size_t n,
                    double scale, double soft2) noexcept;

/// out[i] = exp(x[i]) for finite x (clamped to [-700, 700] first, so the
/// result never overflows or denormalizes). All backends are bitwise
/// identical to each other; relative error vs std::exp <= 5e-14.
void exp_lanes(const double* x, double* out, std::size_t n) noexcept;

/// One target row of the force sweep's test pass (particles/sweep.hpp).
struct LaneTest {
  double x = 0.0;       ///< target position, promoted from its float lane
  double y = 0.0;       ///< ignored in 1D
  std::int32_t id = 0;  ///< source lanes with this id are never kept
  bool two_d = true;
  double wrap_x = 0.0;  ///< periodic box length in x; 0 = no minimum image
  double wrap_y = 0.0;  ///< same in y (0 in 1D)
  double cut2 = 0.0;    ///< squared cutoff; 0 = no cutoff
};

struct LaneTestCount {
  std::size_t kept = 0;      ///< lanes the evaluate pass must add
  std::size_t examined = 0;  ///< lanes whose id differs from the target's
};

/// The test pass of the force sweep over source lanes [0, n): for every
/// lane, dx/dy/r2 exactly as particles::accumulate_forces computes them
/// (float lanes promoted to double, minimum image by the same compares and
/// the same single add or subtract, r2 = dx*dx + dy*dy, no FMA), then the
/// id and cutoff tests as lane masks instead of branches.
///
///  * cut2 > 0: `keep` receives the ascending indices of the lanes the
///    reference loop does not skip (id differs and !(r2 > cut2)), and
///    `kept` counts them. `keep` needs room for n entries.
///  * cut2 == 0: every lane stays in place and `keep` is not touched.
///    Lanes with the target's id get dx = dy = 0 and r2 = 1, a distance
///    where the kernels' magnitudes are finite, so the lane adds an exact
///    zero; `kept` equals `examined`.
///
/// Every backend writes bitwise-identical lanes and indices.
LaneTestCount test_lanes(const LaneTest& row, const float* sx, const float* sy,
                         const std::int32_t* sid, std::size_t n, double* dx, double* dy,
                         double* r2, std::uint32_t* keep) noexcept;

}  // namespace canb::particles::simd
