#include "particles/box.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace canb::particles {

void Box::validate() const {
  CANB_REQUIRE(dims == 1 || dims == 2, "box must be 1D or 2D");
  CANB_REQUIRE(lx > 0.0, "box lx must be positive");
  CANB_REQUIRE(dims == 1 || ly > 0.0, "2D box ly must be positive");
}

namespace {

double min_image(double d, double l) noexcept {
  if (d > 0.5 * l)
    d -= l;
  else if (d < -0.5 * l)
    d += l;
  return d;
}

// Reflects coordinate x into [0, l], flipping v on each bounce. The loop
// settles x in [-2l, 3l] in at most two exact bounces. Farther out it would
// bounce ~|x|/l times, forever once 2l - x rounds to -x, so whole periods
// of 2l (two bounces each, v unchanged) go first by an exact fmod; a
// remainder of 0 stands for a full period, as the loop counts it.
// Non-finite x is left as it is (NaN fails both range tests).
void reflect(float& x, float& v, double l) noexcept {
  double xd = static_cast<double>(x);
  if (!(xd < 0.0 || xd > l)) return;
  if (xd < -2.0 * l || xd > 3.0 * l) {
    if (!std::isfinite(xd)) return;
    const double r = std::fmod(xd, 2.0 * l);
    xd = r != 0.0 ? r : std::copysign(2.0 * l, xd);
  }
  double vd = static_cast<double>(v);
  while (xd < 0.0 || xd > l) {
    if (xd < 0.0) {
      xd = -xd;
      vd = -vd;
    } else {
      xd = 2.0 * l - xd;
      vd = -vd;
    }
  }
  x = static_cast<float>(xd);
  v = static_cast<float>(vd);
}

void wrap(float& x, double l) noexcept {
  double xd = std::fmod(static_cast<double>(x), l);
  if (xd < 0.0) xd += l;
  x = static_cast<float>(xd);
}

}  // namespace

std::pair<double, double> pair_delta(const Particle& a, const Particle& b,
                                     const Box& box) noexcept {
  double dx = static_cast<double>(a.px) - static_cast<double>(b.px);
  double dy = box.dims == 2 ? static_cast<double>(a.py) - static_cast<double>(b.py) : 0.0;
  if (box.boundary == Boundary::Periodic) {
    dx = min_image(dx, box.lx);
    if (box.dims == 2) dy = min_image(dy, box.ly);
  }
  return {dx, dy};
}

void apply_boundary(Particle& p, const Box& box) noexcept {
  apply_boundary(p.px, p.py, p.vx, p.vy, box);
}

void apply_boundary(float& px, float& py, float& vx, float& vy, const Box& box) noexcept {
  if (box.boundary == Boundary::Reflective) {
    reflect(px, vx, box.lx);
    if (box.dims == 2) reflect(py, vy, box.ly);
  } else {
    wrap(px, box.lx);
    if (box.dims == 2) wrap(py, box.ly);
  }
}

bool inside(const Particle& p, const Box& box) noexcept {
  if (p.px < 0.0f || static_cast<double>(p.px) > box.lx) return false;
  if (box.dims == 2 && (p.py < 0.0f || static_cast<double>(p.py) > box.ly)) return false;
  return true;
}

}  // namespace canb::particles
