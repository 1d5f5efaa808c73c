// Deterministic particle initializers.
//
// All initializers assign sequential ids starting at 0 and zero the aux
// scratch; velocities are small relative to the box so "the particle
// distribution remains nearly uniform over time" (Section IV-D).
#pragma once

#include <cstdint>

#include "particles/box.hpp"
#include "particles/particle.hpp"

namespace canb::particles {

/// n particles uniformly random in the box; speeds ~ N(0, speed_scale).
Block init_uniform(int n, const Box& box, std::uint64_t seed, double speed_scale = 0.0);

/// n particles on a near-square lattice with optional jitter (fraction of
/// the lattice spacing). Deterministic positions; zero velocity.
Block init_lattice(int n, const Box& box, double jitter = 0.0, std::uint64_t seed = 0);

/// `clusters` Gaussian blobs with the given relative width; used by the
/// galaxy example and by load-imbalance tests (non-uniform density).
Block init_clusters(int n, const Box& box, int clusters, double width_fraction,
                    std::uint64_t seed, double speed_scale = 0.0);

/// Linear density gradient along x: density at x proportional to
/// 1 + slope * (x/lx - 1/2), slope in [0, 2). Probes the uniform-density
/// assumption behind the cutoff algorithm's load balance (Section IV-A).
Block init_gradient(int n, const Box& box, double slope, std::uint64_t seed);

/// Two counter-streaming bands (plasma two-stream-style): top half drifts
/// +x, bottom half -x, at `drift` speed with thermal jitter.
Block init_two_stream(int n, const Box& box, double drift, double thermal, std::uint64_t seed);

/// Plummer-profile sphere centered in the box: radius sampled by the
/// inverse CDF r = a / sqrt(u^{-2/3} - 1) with scale a =
/// core_radius_fraction * min(lx, ly), angle uniform; positions outside
/// the box redraw (deterministically). The canonical clustered workload —
/// most mass inside ~1.3a with a thin far tail, so spatial decompositions
/// see a dense-core interaction histogram orders of magnitude above the
/// mean (the clustered bench input).
Block init_plummer(int n, const Box& box, double core_radius_fraction, std::uint64_t seed,
                   double speed_scale = 0.0);

/// Ring/annulus centered in the box: radius ~ N(radius_fraction * R,
/// width_fraction * R) with R = min(lx, ly) / 2, angle uniform, clamped
/// into the box. Density concentrates on a 1D curve through 2D space —
/// cells on the ring are heavy, cells off it empty.
Block init_ring(int n, const Box& box, double radius_fraction, double width_fraction,
                std::uint64_t seed, double speed_scale = 0.0);

/// Sorts by id (tests compare gathered outputs in id order).
void sort_by_id(Block& b);

}  // namespace canb::particles
