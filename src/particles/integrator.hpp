// Time integrators.
//
// Decompositions call pre_force before the force computation and post_force
// after it; this split supports velocity Verlet without a second force pass.
// Integrators are stateless w.r.t. particles (per-particle scratch lives in
// the aux fields), so blocks can migrate between ranks freely.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "particles/box.hpp"
#include "particles/particle.hpp"
#include "particles/soa_block.hpp"

namespace canb::particles {

class Integrator {
 public:
  virtual ~Integrator() = default;

  /// Called BEFORE forces are cleared for the step, with the previous
  /// step's forces still in fx/fy (zero on the first step).
  virtual void pre_force(std::span<Particle> ps, double dt) const = 0;
  /// Called after forces for this step are complete. Must apply boundaries.
  virtual void post_force(std::span<Particle> ps, double dt, const Box& box) const = 0;

  /// Lane variants over the resident SoA block: per-lane arithmetic matches
  /// the AoS loops operation for operation (force lanes hold
  /// float-representable values at these call points — see the precision
  /// invariant in soa_block.hpp — so reading them is reading p.fx).
  virtual void pre_force(SoaBlock& ps, double dt) const = 0;
  virtual void post_force(SoaBlock& ps, double dt, const Box& box) const = 0;

  virtual std::string name() const = 0;
};

/// Semi-implicit (symplectic) Euler: v += f/m dt; x += v dt.
class SymplecticEuler final : public Integrator {
 public:
  void pre_force(std::span<Particle>, double) const override {}
  void post_force(std::span<Particle> ps, double dt, const Box& box) const override;
  void pre_force(SoaBlock&, double) const override {}
  void post_force(SoaBlock& ps, double dt, const Box& box) const override;
  std::string name() const override { return "symplectic-euler"; }
};

/// Velocity Verlet. aux0/aux1 hold the previous step's force; they must be
/// zero-initialized (initializers do this).
class VelocityVerlet final : public Integrator {
 public:
  void pre_force(std::span<Particle> ps, double dt) const override;
  void post_force(std::span<Particle> ps, double dt, const Box& box) const override;
  void pre_force(SoaBlock& ps, double dt) const override;
  void post_force(SoaBlock& ps, double dt, const Box& box) const override;
  std::string name() const override { return "velocity-verlet"; }
};

/// Leapfrog (kick-drift form): v += f/m dt at integer steps, x += v dt —
/// equivalent to symplectic Euler in update order but kept separate so the
/// examples can label their scheme honestly; stores nothing in aux.
class Leapfrog final : public Integrator {
 public:
  void pre_force(std::span<Particle>, double) const override {}
  void post_force(std::span<Particle> ps, double dt, const Box& box) const override;
  void pre_force(SoaBlock&, double) const override {}
  void post_force(SoaBlock& ps, double dt, const Box& box) const override;
  std::string name() const override { return "leapfrog"; }
};

std::unique_ptr<Integrator> make_integrator(const std::string& name);

}  // namespace canb::particles
