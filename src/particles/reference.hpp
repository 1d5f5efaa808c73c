// Serial reference simulator.
//
// Ground truth for every distributed decomposition: brute-force O(n^2)
// force evaluation through the AoS oracle particles::accumulate_forces,
// the same integrators, the same boundary handling. Tests require the
// distributed engines to reproduce these trajectories.
#pragma once

#include <memory>

#include "particles/integrator.hpp"
#include "particles/kernels.hpp"

namespace canb::particles {

template <ForceKernel K>
class SerialReference {
 public:
  struct Config {
    Box box;
    K kernel{};
    double dt = 1e-3;
    double cutoff = 0.0;  ///< 0 = all-pairs
  };

  SerialReference(Block particles, Config cfg)
      : ps_(std::move(particles)), cfg_(std::move(cfg)), integrator_(new VelocityVerlet) {
    cfg_.box.validate();
  }

  void set_integrator(std::unique_ptr<Integrator> integ) { integrator_ = std::move(integ); }

  void compute_forces() {
    clear_forces(ps_);
    accumulate_forces(std::span<Particle>(ps_), std::span<const Particle>(ps_), cfg_.box,
                      cfg_.kernel, cfg_.cutoff);
  }

  void step() {
    integrator_->pre_force(ps_, cfg_.dt);
    compute_forces();
    integrator_->post_force(ps_, cfg_.dt, cfg_.box);
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  const Block& particles() const noexcept { return ps_; }
  Block& particles() noexcept { return ps_; }
  const Config& config() const noexcept { return cfg_; }

 private:
  Block ps_;
  Config cfg_;
  std::unique_ptr<Integrator> integrator_;
};

/// Convenience: forces only (no integration) for a snapshot comparison.
template <ForceKernel K>
Block reference_forces(Block ps, const Box& box, const K& kernel, double cutoff = 0.0) {
  clear_forces(ps);
  accumulate_forces(std::span<Particle>(ps), std::span<const Particle>(ps), box, kernel, cutoff);
  return ps;
}

}  // namespace canb::particles
