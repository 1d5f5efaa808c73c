#include "particles/soa_block.hpp"

#include "support/assert.hpp"

namespace canb::particles {

SoaBlock::SoaBlock(std::span<const Particle> ps) {
  reserve(ps.size());
  for (const Particle& p : ps) push_back(p);
}

void SoaBlock::clear() {
  px.clear();
  py.clear();
  vx.clear();
  vy.clear();
  fx.clear();
  fy.clear();
  mass.clear();
  charge.clear();
  id.clear();
  aux0.clear();
  aux1.clear();
}

void SoaBlock::reserve(std::size_t n) {
  px.reserve(n);
  py.reserve(n);
  vx.reserve(n);
  vy.reserve(n);
  fx.reserve(n);
  fy.reserve(n);
  mass.reserve(n);
  charge.reserve(n);
  id.reserve(n);
  aux0.reserve(n);
  aux1.reserve(n);
}

void SoaBlock::swap(SoaBlock& other) noexcept {
  px.swap(other.px);
  py.swap(other.py);
  vx.swap(other.vx);
  vy.swap(other.vy);
  fx.swap(other.fx);
  fy.swap(other.fy);
  mass.swap(other.mass);
  charge.swap(other.charge);
  id.swap(other.id);
  aux0.swap(other.aux0);
  aux1.swap(other.aux1);
}

void SoaBlock::push_back(const Particle& p) {
  px.push_back(p.px);
  py.push_back(p.py);
  vx.push_back(p.vx);
  vy.push_back(p.vy);
  fx.push_back(static_cast<double>(p.fx));
  fy.push_back(static_cast<double>(p.fy));
  mass.push_back(p.mass);
  charge.push_back(p.charge);
  id.push_back(p.id);
  aux0.push_back(static_cast<double>(p.aux0));
  aux1.push_back(static_cast<double>(p.aux1));
}

void SoaBlock::append(const SoaBlock& other) {
  px.insert(px.end(), other.px.begin(), other.px.end());
  py.insert(py.end(), other.py.begin(), other.py.end());
  vx.insert(vx.end(), other.vx.begin(), other.vx.end());
  vy.insert(vy.end(), other.vy.begin(), other.vy.end());
  fx.insert(fx.end(), other.fx.begin(), other.fx.end());
  fy.insert(fy.end(), other.fy.begin(), other.fy.end());
  mass.insert(mass.end(), other.mass.begin(), other.mass.end());
  charge.insert(charge.end(), other.charge.begin(), other.charge.end());
  id.insert(id.end(), other.id.begin(), other.id.end());
  aux0.insert(aux0.end(), other.aux0.begin(), other.aux0.end());
  aux1.insert(aux1.end(), other.aux1.begin(), other.aux1.end());
}

void SoaBlock::assign_from(const SoaBlock& other) {
  px.assign(other.px.begin(), other.px.end());
  py.assign(other.py.begin(), other.py.end());
  vx.assign(other.vx.begin(), other.vx.end());
  vy.assign(other.vy.begin(), other.vy.end());
  fx.assign(other.fx.begin(), other.fx.end());
  fy.assign(other.fy.begin(), other.fy.end());
  mass.assign(other.mass.begin(), other.mass.end());
  charge.assign(other.charge.begin(), other.charge.end());
  id.assign(other.id.begin(), other.id.end());
  aux0.assign(other.aux0.begin(), other.aux0.end());
  aux1.assign(other.aux1.begin(), other.aux1.end());
}

void SoaBlock::assign_replica_from(const SoaBlock& other) {
  px.assign(other.px.begin(), other.px.end());
  py.assign(other.py.begin(), other.py.end());
  fx.assign(other.fx.begin(), other.fx.end());
  fy.assign(other.fy.begin(), other.fy.end());
  mass.assign(other.mass.begin(), other.mass.end());
  charge.assign(other.charge.begin(), other.charge.end());
  id.assign(other.id.begin(), other.id.end());
}

void SoaBlock::assign_visitor_from(const SoaBlock& other) {
  px.assign(other.px.begin(), other.px.end());
  py.assign(other.py.begin(), other.py.end());
  mass.assign(other.mass.begin(), other.mass.end());
  charge.assign(other.charge.begin(), other.charge.end());
  id.assign(other.id.begin(), other.id.end());
}

void SoaBlock::copy_within(std::size_t dst_i, std::size_t src_i) noexcept {
  px[dst_i] = px[src_i];
  py[dst_i] = py[src_i];
  vx[dst_i] = vx[src_i];
  vy[dst_i] = vy[src_i];
  fx[dst_i] = fx[src_i];
  fy[dst_i] = fy[src_i];
  mass[dst_i] = mass[src_i];
  charge[dst_i] = charge[src_i];
  id[dst_i] = id[src_i];
  aux0[dst_i] = aux0[src_i];
  aux1[dst_i] = aux1[src_i];
}

void SoaBlock::truncate(std::size_t n) {
  px.resize(n);
  py.resize(n);
  vx.resize(n);
  vy.resize(n);
  fx.resize(n);
  fy.resize(n);
  mass.resize(n);
  charge.resize(n);
  id.resize(n);
  aux0.resize(n);
  aux1.resize(n);
}

void SoaBlock::append_from(const SoaBlock& other, std::size_t i) {
  px.push_back(other.px[i]);
  py.push_back(other.py[i]);
  vx.push_back(other.vx[i]);
  vy.push_back(other.vy[i]);
  fx.push_back(other.fx[i]);
  fy.push_back(other.fy[i]);
  mass.push_back(other.mass[i]);
  charge.push_back(other.charge[i]);
  id.push_back(other.id[i]);
  aux0.push_back(other.aux0[i]);
  aux1.push_back(other.aux1[i]);
}

Particle SoaBlock::get(std::size_t i) const noexcept {
  Particle p;
  p.px = px[i];
  p.py = py[i];
  p.vx = vx[i];
  p.vy = vy[i];
  p.fx = static_cast<float>(fx[i]);
  p.fy = static_cast<float>(fy[i]);
  p.mass = mass[i];
  p.charge = charge[i];
  p.id = id[i];
  p.aux0 = static_cast<float>(aux0[i]);
  p.aux1 = static_cast<float>(aux1[i]);
  return p;
}

void SoaBlock::set(std::size_t i, const Particle& p) noexcept {
  px[i] = p.px;
  py[i] = p.py;
  vx[i] = p.vx;
  vy[i] = p.vy;
  fx[i] = static_cast<double>(p.fx);
  fy[i] = static_cast<double>(p.fy);
  mass[i] = p.mass;
  charge[i] = p.charge;
  id[i] = p.id;
  aux0[i] = static_cast<double>(p.aux0);
  aux1[i] = static_cast<double>(p.aux1);
}

Block SoaBlock::to_block() const {
  Block out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(get(i));
  return out;
}

void SoaBlock::clear_forces() noexcept {
  for (auto& f : fx) f = 0.0;
  for (auto& f : fy) f = 0.0;
}

void SoaBlock::wire_put(wire::Writer& w) const {
  w.scalar<std::uint64_t>(size());
  w.lane(px);
  w.lane(py);
  w.lane(vx);
  w.lane(vy);
  w.lane(fx);
  w.lane(fy);
  w.lane(mass);
  w.lane(charge);
  w.lane(id);
  w.lane(aux0);
  w.lane(aux1);
}

void SoaBlock::wire_get(wire::Reader& r) {
  const auto n = static_cast<std::size_t>(r.scalar<std::uint64_t>());
  r.lane(px);
  r.lane(py);
  r.lane(vx);
  r.lane(vy);
  r.lane(fx);
  r.lane(fy);
  r.lane(mass);
  r.lane(charge);
  r.lane(id);
  r.lane(aux0);
  r.lane(aux1);
  // Replica and visitor blocks carry short velocity/force/aux lanes by
  // contract (assign_replica_from, assign_visitor_from); the kernel-input
  // lanes always hold size() elements.
  if (px.size() != n || py.size() != n || mass.size() != n || charge.size() != n || id.size() != n)
    throw wire::DecodeError("SoaBlock frame: kernel-input lanes disagree with its size");
}

}  // namespace canb::particles
