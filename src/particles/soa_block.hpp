// The resident structure-of-arrays particle block.
//
// The SoA layout is the *resident* representation: RealPolicy's Buffer is a
// SoaBlock, so the buffers the vmpi primitives shift, skew, broadcast, and
// reduce are already in the layout the resident force sweep
// (particles/sweep.hpp) reads — no per-sweep gather from, or scatter back
// into, an AoS particles::Block.
//
// Lane types mirror the 52-byte wire record where the physics depends on
// them (positions, velocities, couplings stay float, so trajectories match
// the AoS pipeline's rounding). Force and aux lanes are double for the
// sweeps' in-call accumulation, but every store into them folds through
// float at the same points the AoS pipeline stored to a float field — so
// at phase boundaries they always hold float-representable values,
// materializing a Particle is lossless, and trajectories are bitwise
// identical to the wire-format pipeline. This is the force-lane precision
// invariant; sweep.hpp's detail::fold_force is where the sweep keeps it. The
// serialized size of a block is DEFINED as size() * kParticleBytes: the
// ledger charges bytes from particle counts, never from host layout (see
// docs/MODEL.md).
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "particles/particle.hpp"
#include "support/wire.hpp"

namespace canb::particles {

struct SoaBlock {
  std::vector<float> px, py;         ///< positions
  std::vector<float> vx, vy;         ///< velocities
  std::vector<double> fx, fy;        ///< force accumulators (double: sweep precision)
  std::vector<float> mass, charge;   ///< kernel coupling lanes
  std::vector<std::int32_t> id;      ///< globally unique; self-pair mask lane
  std::vector<double> aux0, aux1;    ///< integrator scratch (e.g. previous force)

  SoaBlock() = default;
  /// Implicit by design: engine constructors accept the AoS blocks that
  /// decomp::split_* produce and convert once at setup time.
  SoaBlock(std::span<const Particle> ps);
  SoaBlock(const Block& b) : SoaBlock(std::span<const Particle>(b)) {}

  std::size_t size() const noexcept { return id.size(); }
  bool empty() const noexcept { return id.empty(); }

  void clear();
  void reserve(std::size_t n);
  void swap(SoaBlock& other) noexcept;

  void push_back(const Particle& p);
  /// Appends every lane of `other` (bulk receive in re-assignment/gather).
  void append(const SoaBlock& other);
  /// Appends element i of `other` lane-exactly (no float round-trip through
  /// a materialized Particle — forces keep their double precision).
  void append_from(const SoaBlock& other, std::size_t i);

  /// Capacity-preserving full copy: every lane is assigned in place, so a
  /// destination that has once held a block of this size never reallocates
  /// (unlike operator=, this is a documented guarantee the data plane's
  /// zero-allocation test pins, not an implementation accident).
  void assign_from(const SoaBlock& other);

  /// Capacity-preserving copy of the lanes a broadcast REPLICA needs: the
  /// kernel inputs (px/py/mass/charge/id) and the force accumulators fx/fy
  /// (replicas accumulate partial forces that the team reduction folds
  /// back). Velocity and aux lanes are left untouched — integrators only
  /// ever run on team leaders, and the sweep's lane accessors expose no
  /// velocity, so nothing can read them from a replica. Callers must treat
  /// the destination as a replica from then on (size() is authoritative;
  /// vx/vy/aux0/aux1 may be stale or short).
  void assign_replica_from(const SoaBlock& other);

  /// Capacity-preserving copy of the lanes a staged VISITOR block needs:
  /// kernel inputs only (px/py/mass/charge/id). Visitor blocks are the
  /// read-only source operand of the force sweeps — their force lanes are
  /// never read or written — so the shift/skew staging copies skip 6 of the
  /// 11 lanes. Serialized size still derives from size() alone, so ledger
  /// bytes are unchanged by construction.
  void assign_visitor_from(const SoaBlock& other);

  /// Lane-exact in-block copy of element src_i onto dst_i (dst_i <= src_i
  /// in the compaction loops, so reads never see an overwritten slot).
  void copy_within(std::size_t dst_i, std::size_t src_i) noexcept;

  /// Drops elements [n, size()) from every lane; capacity is kept.
  void truncate(std::size_t n);

  /// Sets every lane's length to exactly n: shrinks like truncate, grows
  /// with value-initialized (zero) elements. Owner-computes phantom buffers
  /// use this — for a non-resident block only the *size* feeds the cost
  /// model, so the lanes may hold stale zeros.
  void resize(std::size_t n) { truncate(n); }

  /// Materializes element i as a wire-format Particle. Force and aux lanes
  /// round to float; the aux2/aux3 padding reads as zero.
  Particle get(std::size_t i) const noexcept;
  void set(std::size_t i, const Particle& p) noexcept;

  Block to_block() const;

  void clear_forces() noexcept;

  /// Lossless byte encoding for real transports (wire.hpp): every lane is
  /// copied bit-for-bit, so a block that round-trips through a socket is
  /// bitwise identical to the original — which is what lets the
  /// cross-backend parity suite demand identical trajectories. Note this is
  /// the *host* image (11 lanes, doubles intact), distinct from the modeled
  /// wire format whose size is DEFINED as size() * kParticleBytes for the
  /// ledger; the cost model never sees these bytes.
  void wire_put(wire::Writer& w) const;
  void wire_get(wire::Reader& r);

  // Read-only lane accessors for the resident sweep and lane_coupling
  // (float lanes are promoted to double where they are read — an exact
  // conversion).
  const float* xs() const noexcept { return px.data(); }
  const float* ys() const noexcept { return py.data(); }
  const float* charges() const noexcept { return charge.data(); }
  const float* masses() const noexcept { return mass.data(); }
  const std::int32_t* ids() const noexcept { return id.data(); }

  /// Materializing const iterator: read-only range-for over a SoaBlock
  /// yields Particle values, so diagnostic loops written against the AoS
  /// Block keep working unchanged.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Particle;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Particle;

    const_iterator() = default;
    const_iterator(const SoaBlock* blk, std::size_t i) : blk_(blk), i_(i) {}

    Particle operator*() const noexcept { return blk_->get(i_); }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator tmp = *this;
      ++i_;
      return tmp;
    }
    bool operator==(const const_iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const noexcept { return i_ != o.i_; }

   private:
    const SoaBlock* blk_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size()}; }
};

/// Serialized size: what travels between virtual ranks is always the 52-byte
/// wire record, independent of the host-resident layout.
inline std::size_t block_bytes(const SoaBlock& b) noexcept {
  return b.size() * kParticleBytes;
}

inline void clear_forces(SoaBlock& b) noexcept { b.clear_forces(); }

}  // namespace canb::particles
