// Explicit SIMD backends for the resident force sweep's lane loops.
//
// The library targets are deliberately built with portable flags (no
// -march), so the auto-vectorizer cannot use anything past baseline SSE2
// there — and libm's sqrt (with errno) stays scalar. This module provides
// the two loops that dominate the sweep as hand-dispatched kernels
// instead:
//
//  * inv_cube_sweep — the resident sweep's evaluate loop for the
//    inverse-cube kernels (particles/sweep.hpp): targets held in vector
//    lanes, each candidate source broadcast in list order, geometry, masks,
//    magnitude and the masked force sums all in registers. Same op sequence
//    per pair as the AoS reference loop, no FMA, so every backend produces
//    bitwise-identical sums. Its paired and self variants
//    (inv_cube_sweep_pair, inv_cube_sweep_self) evaluate each pair once
//    and hand the reaction to the other side in that side's source order.
//  * test_lanes — the test pass of the resident sweep for the other
//    kernels: geometry, id and cutoff tests for a row of source lanes,
//    packing the kept lanes' indices. Same op sequence as the AoS reference
//    loop, no FMA, so every backend writes bitwise-identical lanes.
//
// Backend selection is RUNTIME dispatch: CPUID decides the widest usable
// backend, the CANB_SIMD environment variable (scalar|sse2|avx2) can lower
// it, and set_backend() lets a test or a bench arm pin it per-process.
// Nothing here reads or writes the virtual cost model — like the sweeps
// that call it, this changes host wall time only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace canb::particles::simd {

/// Instruction-set backend for the lane loops, in widening order.
/// On non-x86 builds only Scalar is supported.
enum class Backend { Scalar = 0, Sse2 = 1, Avx2 = 2 };

const char* backend_name(Backend b) noexcept;

/// Parses "scalar" | "sse2" | "avx2"; nullopt on anything else.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// Widest backend this CPU supports (CPUID probe, cached).
Backend max_supported() noexcept;

/// The backend the lane loops currently dispatch to. Initialized on
/// first use from CANB_SIMD (clamped to max_supported(); unknown values
/// are ignored), defaulting to max_supported().
Backend active() noexcept;

/// Pins the dispatch backend (clamped to max_supported()); returns the
/// backend actually installed. Call at configuration time — the sweeps
/// themselves never mutate it, so a run uses one backend throughout.
Backend set_backend(Backend b) noexcept;

/// Geometry and kernel constants of one inv_cube_sweep call.
struct InvCubeSweep {
  bool two_d = true;
  double wrap_x = 0.0;  ///< periodic box length in x; 0 = no minimum image
  double wrap_y = 0.0;  ///< same in y (0 in 1D)
  double cut2 = 0.0;    ///< squared cutoff; 0 = no cutoff
  double scale = 1.0;   ///< magnitude = scale * cpl / (d2 * sqrt(d2))
  double soft2 = 0.0;   ///< d2 = r2 + soft2
};

/// One side of an inv_cube_sweep: n lanes widened to double. Ids are
/// int32 values stored as doubles (an exact conversion, so equality is
/// preserved).
struct SweepLanes {
  const double* x = nullptr;
  const double* y = nullptr;  ///< ignored in 1D
  const double* id = nullptr;
  const double* cpl = nullptr;  ///< per-lane coupling factor
  std::size_t n = 0;
};

/// The inverse-cube evaluate loop: for every target t, in source order k,
///
///   dx, dy, r2  as particles::accumulate_forces computes them
///   keep        id differs and (cut2 == 0 or !(r2 > cut2))
///   mag         (scale * (tcpl[t] * scpl[k])) / (d2 * sqrt(d2)), d2 = r2 + soft2
///   ax[t] += keep ? mag * dx : +0.0,  ay[t] likewise
///
/// ax/ay carry each target's running sum in and out; returns the number of
/// kept pairs. Targets sit in vector lanes (1, 2 or 4 per register for
/// scalar, SSE2, AVX2), so each target's sum still runs in source order:
/// every backend is bitwise the reference loop. A skipped pair adds +0.0,
/// which leaves any sum that started at +0.0 unchanged (such a sum is never
/// -0.0).
std::size_t inv_cube_sweep(const InvCubeSweep& p, const SweepLanes& tgt, const SweepLanes& src,
                           double* ax, double* ay) noexcept;

/// The paired evaluate loop (no cutoff; p.cut2 is ignored): inv_cube_sweep
/// of `a` against `b`, which also hands each kept pair's products to b's
/// sums. For every target t of a in ascending order and every lane k of b,
///
///   ax[t] += f,  ay[t] likewise     exactly as inv_cube_sweep(p, a, b)
///   bx[k] -= f,  by[k] likewise     f = keep ? mag * dx : +0.0
///
/// Each b lane therefore sees a's lanes in ascending order, and each
/// subtraction is bitwise the add inv_cube_sweep(p, b, a) makes: a - f
/// rounds like a + (-f), b's dx is exactly -dx (the minimum image is odd),
/// and r2, the coupling and the magnitude are the same numbers in both
/// directions. A masked pair subtracts +0.0, which changes no sum. So bx/by
/// end bitwise equal to what inv_cube_sweep(p, b, a) leaves in its sums
/// when both start equal. Returns the kept pairs (the same count in both
/// directions).
std::size_t inv_cube_sweep_pair(const InvCubeSweep& p, const SweepLanes& a, const SweepLanes& b,
                                double* ax, double* ay, double* bx, double* by) noexcept;

/// The self variant (no cutoff): inv_cube_sweep(p, a, a) with each
/// unordered pair of lanes evaluated once. Lanes are taken in groups of the
/// backend's width; each group first runs its own triangle in scalar order,
/// then inv_cube_sweep_pair against the lanes above it. Lane j so receives
/// the pairs with lanes below it as reactions, in ascending order, before it
/// adds the pairs with lanes above it, which is the source order
/// inv_cube_sweep(p, a, a) adds them in: the sums end bitwise equal.
/// Returns the kept unordered pairs (half the kept pairs inv_cube_sweep
/// counts).
std::size_t inv_cube_sweep_self(const InvCubeSweep& p, const SweepLanes& a, double* ax,
                                double* ay) noexcept;

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
