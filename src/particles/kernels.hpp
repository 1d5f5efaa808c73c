// Pairwise force kernels.
//
// Kernels are small value types satisfying the ForceKernel concept; the hot
// block-interaction loop is a template so the pair function inlines. All
// kernel arithmetic is double precision; accumulation into the 32-bit force
// fields happens once per pair (matching what a tuned MPI code would do).
//
// The paper's experiment kernel is InverseSquareRepulsion: "the particles
// exert a repulsive force on each other that drops off with the square of
// their distance" (Section III-C). The force need not be symmetric, and the
// paper applies no symmetry optimization. The host does for the
// inverse-cube kernels without a cutoff, where f(j, i) is exactly
// -f(i, j): particles::sweep_pair evaluates a pair once for both sides,
// bitwise as two sweeps would (sweep.hpp). The virtual cost model still
// charges every directed pair, as the paper's does.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>

#include "particles/box.hpp"
#include "particles/particle.hpp"

namespace canb::particles {

struct PairForce {
  double fx = 0.0;
  double fy = 0.0;
};

/// Shared singularity guard: the smallest squared distance the kernels
/// without softening divide by. They add this to r^2 before forming
/// 1/r-type terms, so coincident distinct particles stay finite.
inline constexpr double kMinR2 = 1e-12;

/// Which per-particle field pair a kernel couples through: the resident
/// sweep reads the matching SoA lane (charge, mass, or none) without
/// per-pair branching.
enum class Coupling { None, Charge, Mass };

/// A kernel maps (displacement, squared distance, particles) to the force
/// exerted ON `a` BY `b`, plus a pair potential for energy diagnostics.
///
/// Every kernel is a central force F = magnitude(r2, coupling) * (dx, dy);
/// `magnitude` must be finite for any r2 >= 0 (without a cutoff the
/// resident sweep evaluates it at r2 = 1 on the same-id lanes the AoS loop
/// skips, and multiplies it by dx = dy = 0), and `force` must route through
/// it so the AoS oracle and the resident sweep share one arithmetic path.
template <class K>
concept ForceKernel = requires(const K k, const Particle& a, const Particle& b, double d) {
  { k.force(d, d, d, a, b) } -> std::convertible_to<PairForce>;
  { k.potential(d, a, b) } -> std::convertible_to<double>;
  { k.magnitude(d, d) } -> std::convertible_to<double>;
  { K::kCoupling } -> std::convertible_to<Coupling>;
};

/// The (scale, softening²) pair of an inverse-cube magnitude
/// scale * coupling / (d2 * sqrt(d2)), d2 = r2 + soft2: what the resident
/// sweep hands to simd::inv_cube_sweep.
struct InvCube {
  double scale = 1.0;
  double soft2 = 0.0;
};

/// The coupling factor `magnitude` expects for a given pair.
template <class K>
double pair_coupling(const Particle& a, const Particle& b) noexcept {
  if constexpr (K::kCoupling == Coupling::Charge)
    return static_cast<double>(a.charge) * static_cast<double>(b.charge);
  else if constexpr (K::kCoupling == Coupling::Mass)
    return static_cast<double>(a.mass) * static_cast<double>(b.mass);
  else
    return 1.0;
}

/// The coupling factor for a lane pair of SoA operands (anything exposing
/// charges()/masses() lanes): the same promotion as pair_coupling, each
/// float lane widened to double before the product.
template <class K, class TgtT, class SrcT>
inline double lane_coupling(const TgtT& a, std::size_t i, const SrcT& b, std::size_t j) noexcept {
  if constexpr (K::kCoupling == Coupling::Charge)
    return static_cast<double>(a.charges()[i]) * static_cast<double>(b.charges()[j]);
  else if constexpr (K::kCoupling == Coupling::Mass)
    return static_cast<double>(a.masses()[i]) * static_cast<double>(b.masses()[j]);
  else
    return 1.0;
}

/// Repulsive inverse-square force (the paper's kernel):
///   F = strength * charge_a * charge_b / (r^2 + eps^2), directed a <- b.
struct InverseSquareRepulsion {
  double strength = 1.0;
  double softening = 1e-3;  ///< Plummer softening keeps close pairs finite

  static constexpr Coupling kCoupling = Coupling::Charge;
  static constexpr const char* kName = "inverse_square";

  /// Magnitude c/d2 along the unit vector (dx,dy)/r — i.e. c/d2^{3/2} * d.
  double magnitude(double r2, double coupling) const noexcept {
    const double c = strength * coupling;
    const double d2 = r2 + softening * softening;
    return c / (d2 * std::sqrt(d2));
  }
  InvCube inv_cube() const noexcept { return {strength, softening * softening}; }
  PairForce force(double dx, double dy, double r2, const Particle& a,
                  const Particle& b) const noexcept {
    const double inv = magnitude(r2, pair_coupling<InverseSquareRepulsion>(a, b));
    return {inv * dx, inv * dy};
  }
  double potential(double r2, const Particle& a, const Particle& b) const noexcept {
    const double c = strength * static_cast<double>(a.charge) * static_cast<double>(b.charge);
    return c / std::sqrt(r2 + softening * softening);
  }
};

/// Newtonian gravity with Plummer softening (attractive).
struct Gravity {
  double g = 1.0;
  double softening = 1e-3;

  static constexpr Coupling kCoupling = Coupling::Mass;
  static constexpr const char* kName = "gravity";

  double magnitude(double r2, double coupling) const noexcept {
    const double c = -g * coupling;
    const double d2 = r2 + softening * softening;
    return c / (d2 * std::sqrt(d2));
  }
  InvCube inv_cube() const noexcept { return {-g, softening * softening}; }
  PairForce force(double dx, double dy, double r2, const Particle& a,
                  const Particle& b) const noexcept {
    const double inv = magnitude(r2, pair_coupling<Gravity>(a, b));
    return {inv * dx, inv * dy};
  }
  double potential(double r2, const Particle& a, const Particle& b) const noexcept {
    return -g * static_cast<double>(a.mass) * static_cast<double>(b.mass) /
           std::sqrt(r2 + softening * softening);
  }
};

/// Truncated-and-shifted Lennard-Jones (the classic MD cutoff kernel).
struct LennardJones {
  double epsilon = 1.0;
  double sigma = 1.0;

  static constexpr Coupling kCoupling = Coupling::None;
  static constexpr const char* kName = "lennard_jones";

  double magnitude(double r2, double /*coupling*/) const noexcept {
    const double r2g = r2 + kMinR2;
    const double s2 = sigma * sigma / r2g;
    const double s6 = s2 * s2 * s2;
    return 24.0 * epsilon * s6 * (2.0 * s6 - 1.0) / r2g;
  }
  PairForce force(double dx, double dy, double r2, const Particle&, const Particle&) const noexcept {
    const double mag = magnitude(r2, 1.0);
    return {mag * dx, mag * dy};
  }
  double potential(double r2, const Particle&, const Particle&) const noexcept {
    const double s2 = sigma * sigma / (r2 + kMinR2);
    const double s6 = s2 * s2 * s2;
    return 4.0 * epsilon * s6 * (s6 - 1.0);
  }
};

/// Screened Coulomb (Yukawa) interaction: exp(-r/lambda)/r^2-type decay,
/// the classic plasma/colloid kernel — naturally paired with a cutoff
/// since the screening makes truncation errors exponentially small.
struct Yukawa {
  double strength = 1.0;
  double screening_length = 0.1;
  double softening = 1e-3;

  static constexpr Coupling kCoupling = Coupling::Charge;
  static constexpr const char* kName = "yukawa";

  /// d/dr [ c e^{-r/L} / r ] gives magnitude c e^{-r/L} (1/r^2 + 1/(L r)).
  double magnitude(double r2, double coupling) const noexcept {
    const double c = strength * coupling;
    const double d2 = r2 + softening * softening;
    const double r = std::sqrt(d2);
    const double screen = std::exp(-r / screening_length);
    return c * screen * (1.0 / d2 + 1.0 / (screening_length * r)) / r;
  }
  PairForce force(double dx, double dy, double r2, const Particle& a,
                  const Particle& b) const noexcept {
    const double mag = magnitude(r2, pair_coupling<Yukawa>(a, b));
    return {mag * dx, mag * dy};
  }
  double potential(double r2, const Particle& a, const Particle& b) const noexcept {
    const double c = strength * static_cast<double>(a.charge) * static_cast<double>(b.charge);
    const double r = std::sqrt(r2 + softening * softening);
    return c * std::exp(-r / screening_length) / r;
  }
};

/// Morse bond potential: D (1 - e^{-a(r - r0)})^2 - D. Smoother core than
/// Lennard-Jones, common in MD for covalent-ish pairs.
struct Morse {
  double depth = 1.0;      ///< D: well depth
  double width = 2.0;      ///< a: inverse width
  double r0 = 0.5;         ///< equilibrium distance

  static constexpr Coupling kCoupling = Coupling::None;
  static constexpr const char* kName = "morse";

  /// -dU/dr = -2 D a e (1 - e); positive magnitude pushes apart (r < r0).
  double magnitude(double r2, double /*coupling*/) const noexcept {
    const double r = std::sqrt(r2 + kMinR2);
    const double e = std::exp(-width * (r - r0));
    return -2.0 * depth * width * e * (1.0 - e) / r;
  }
  PairForce force(double dx, double dy, double r2, const Particle&, const Particle&) const noexcept {
    const double mag = magnitude(r2, 1.0);
    return {mag * dx, mag * dy};
  }
  double potential(double r2, const Particle&, const Particle&) const noexcept {
    const double r = std::sqrt(r2 + kMinR2);
    const double e = std::exp(-width * (r - r0));
    return depth * (1.0 - e) * (1.0 - e) - depth;
  }
};

/// Linear-spring contact force: repels only when overlapping radius R.
struct SoftSphere {
  double stiffness = 100.0;
  double radius = 0.05;

  static constexpr Coupling kCoupling = Coupling::None;
  static constexpr const char* kName = "soft_sphere";

  /// Branch-free contact force: std::max clamps the overlap to zero at or
  /// beyond the contact radius, and the kMinR2 guard keeps coincident
  /// particles finite (their dx = dy = 0, so the force is still zero).
  double magnitude(double r2, double /*coupling*/) const noexcept {
    const double r = std::sqrt(r2 + kMinR2);
    const double overlap = std::max(radius - r, 0.0);
    return stiffness * overlap / r;
  }
  PairForce force(double dx, double dy, double r2, const Particle&, const Particle&) const noexcept {
    const double mag = magnitude(r2, 1.0);
    return {mag * dx, mag * dy};
  }
  double potential(double r2, const Particle&, const Particle&) const noexcept {
    const double r = std::sqrt(r2);
    if (r >= radius) return 0.0;
    const double o = radius - r;
    return 0.5 * stiffness * o * o;
  }
};

/// Statistics from one block-block interaction sweep.
///
/// `examined` is the cost-model unit and is what the vmpi ledger is
/// charged from: it counts pairs *visited by the algorithm*, and is
/// identical however the host executes the sweep. `computed` is the
/// host-side work metric: pair interactions actually evaluated — every
/// within-cutoff pair for the AoS loop, the candidate pairs its cell cull
/// kept for the resident sweep under a cutoff, each pair once for both
/// sides in a paired sweep. Telemetry exposes both; the cost model never
/// reads `computed`.
struct InteractionCount {
  std::uint64_t examined = 0;       ///< pairs visited (cost-model unit)
  std::uint64_t within_cutoff = 0;  ///< pairs that actually contributed
  std::uint64_t computed = 0;       ///< pair evaluations executed on the host
};

/// Accumulates forces on `targets` from `sources`. Self-pairs (same id) are
/// skipped. If cutoff > 0 only pairs within it contribute, but every pair in
/// the block product is *examined* — mirroring the paper's block sweep, and
/// what makes spatial load imbalance visible. Returns pair counts.
template <ForceKernel K>
InteractionCount accumulate_forces(std::span<Particle> targets, std::span<const Particle> sources,
                                   const Box& box, const K& kernel, double cutoff = 0.0) {
  InteractionCount count;
  const double cutoff2 = cutoff > 0.0 ? cutoff * cutoff : 0.0;
  for (auto& t : targets) {
    double ax = 0.0;
    double ay = 0.0;
    for (const auto& s : sources) {
      if (t.id == s.id) continue;
      ++count.examined;
      const auto [dx, dy] = pair_delta(t, s, box);
      const double r2 = dx * dx + dy * dy;
      if (cutoff2 > 0.0 && r2 > cutoff2) continue;
      ++count.within_cutoff;
      ++count.computed;
      const PairForce f = kernel.force(dx, dy, r2, t, s);
      ax += f.fx;
      ay += f.fy;
    }
    t.fx += static_cast<float>(ax);
    t.fy += static_cast<float>(ay);
  }
  return count;
}

/// Total potential energy of a block pair (used by diagnostics; O(|T||S|)).
template <ForceKernel K>
double pair_potential(std::span<const Particle> a, std::span<const Particle> b, const Box& box,
                      const K& kernel, double cutoff = 0.0) {
  const double cutoff2 = cutoff > 0.0 ? cutoff * cutoff : 0.0;
  double u = 0.0;
  for (const auto& t : a) {
    for (const auto& s : b) {
      if (t.id == s.id) continue;
      const auto [dx, dy] = pair_delta(t, s, box);
      const double r2 = dx * dx + dy * dy;
      if (cutoff2 > 0.0 && r2 > cutoff2) continue;
      u += kernel.potential(r2, t, s);
    }
  }
  return u;
}

}  // namespace canb::particles
