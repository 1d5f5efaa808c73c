// Payload policies: the schedule/payload split.
//
// Every CA engine is a template over a Policy that defines what a "block"
// is and how blocks interact. Two policies exist:
//
//  * RealPolicy<K>  — blocks are real particle vectors; interactions run the
//    force kernel; used by tests, examples, and small-scale benches.
//  * PhantomPolicy  — blocks are particle *counts*; interactions only count
//    pairs. The communication schedule, ledger charges, and virtual clocks
//    are identical to RealPolicy by construction (tests verify this), which
//    lets benches replay the paper's 24K–32K-rank experiments in seconds.
//
// The interact() contract: `same_block` is true when the visiting block is a
// copy of the resident block (self-interaction step); policies must exclude
// self-pairs from the examined count so both modes agree exactly. A policy
// may evaluate such a step's pairs once each (RealPolicy does, when the
// visitor is a lane replica); the forces and `examined` stay those of the
// full sweep, and `computed` counts the evaluations made.
//
// RealPolicy also serves two ranks from one sweep when pairs_once() holds:
// interact_pair(resident, visitor, sums) is interact(resident, visitor,
// false), and leaves in `sums` what the partner rank's own interact(its
// resident, a copy of `resident`, false) would add, for fold_pair to add.
// The partner's `examined` is the same count; `computed` covers both.
// core::CaAllPairs pairs its ranks through it.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "particles/integrator.hpp"
#include "particles/kernels.hpp"
#include "particles/particle.hpp"
#include "particles/soa_block.hpp"
#include "particles/sweep.hpp"
#include "support/assert.hpp"

namespace canb::core {

/// Pairwise-interaction work units reported by a policy. Only `examined`
/// feeds the cost model; `computed` is host-side telemetry (pair
/// evaluations the host actually executed).
struct InteractStats {
  std::uint64_t examined = 0;
  std::uint64_t computed = 0;
};

/// Flop weight of integrating one particle for one step (charged via
/// MachineModel::gamma_flop; identical in both modes).
inline constexpr double kIntegrateFlopsPerParticle = 12.0;

/// Converts a vector of blocks into the policy's Buffer type (identity when
/// they already match). The engines' converting constructors funnel through
/// this, so the decomp::split_* call sites keep handing over AoS Block
/// vectors and pay exactly one layout conversion at setup time.
template <class Buffer, class B>
std::vector<Buffer> convert_blocks(std::vector<B> blocks) {
  if constexpr (std::is_same_v<Buffer, B>) {
    return blocks;
  } else {
    std::vector<Buffer> out;
    out.reserve(blocks.size());
    for (auto& b : blocks) out.emplace_back(std::move(b));
    return out;
  }
}

/// The combine functor both CA engines hand to vmpi::reduce_teams.
/// Whole-buffer combine always; the element-range overload exists only when
/// the policy provides one (RealPolicy does; PhantomPolicy reduces counts,
/// which have no element axis) — reduce_teams detects it by invocability
/// and splits each team's fold by element range across host threads.
template <class Policy>
struct TeamCombine {
  using Buffer = typename Policy::Buffer;
  void operator()(Buffer& acc, const Buffer& in) const { Policy::combine(acc, in); }
  template <class B = Buffer>
    requires requires(B& a, const B& i) {
      Policy::combine_range(a, i, std::size_t{}, std::size_t{});
    }
  void operator()(B& acc, const B& in, std::size_t lo, std::size_t hi) const {
    Policy::combine_range(acc, in, lo, hi);
  }
};

template <particles::ForceKernel K>
class RealPolicy {
 public:
  /// The resident representation *is* the kernel-ready SoA layout: the
  /// buffers vmpi primitives shift, skew, broadcast, and reduce feed the
  /// sweeps directly, with no per-sweep gather or scatter.
  using Buffer = particles::SoaBlock;
  static constexpr bool kIsPhantom = false;

  struct Config {
    particles::Box box;
    K kernel{};
    double cutoff = 0.0;  ///< 0 = no cutoff
    double dt = 1e-3;
  };

  explicit RealPolicy(Config cfg) : cfg_(std::move(cfg)) { cfg_.box.validate(); }

  static std::uint64_t bytes(const Buffer& b) noexcept { return particles::block_bytes(b); }
  static std::uint64_t count(const Buffer& b) noexcept { return b.size(); }

  /// One resident block-block sweep (particles/sweep.hpp): no gather, no
  /// scatter — both operands are already lanes, and forces accumulate in
  /// place. A self step of an inverse-cube kernel with no cutoff, whose
  /// visitor is a lane replica of the resident, evaluates each pair once
  /// (particles::sweep_self; bitwise the same forces). Every other call
  /// runs particles::sweep_blocks.
  InteractStats interact(Buffer& resident, const Buffer& visitor, bool same_block) const {
    if constexpr (particles::ExactLaneKernel<K>) {
      if (same_block && cfg_.cutoff == 0.0 && particles::lane_replica<K>(resident, visitor)) {
        const auto stats = particles::sweep_self(resident, cfg_.box, cfg_.kernel);
        return {stats.examined, stats.computed};
      }
    }
    const auto stats =
        particles::sweep_blocks(resident, visitor, cfg_.box, cfg_.kernel, cfg_.cutoff);
    return {stats.examined, stats.computed};
  }

  /// The partner's side of interact_pair: per-lane sums for fold_pair.
  using PairSums = particles::LaneSums;

  /// Whether interact_pair applies: an inverse-cube kernel and no cutoff.
  bool pairs_once() const noexcept {
    return particles::ExactLaneKernel<K> && cfg_.cutoff == 0.0;
  }

  /// interact(resident, visitor, false), plus the partner's sweep in one
  /// particles::sweep_pair: `partner` receives, per visitor lane, what
  /// interact(b, resident, false) would add to a block b with the visitor's
  /// lanes. Only when pairs_once().
  InteractStats interact_pair(Buffer& resident, const Buffer& visitor, PairSums& partner) const {
    CANB_ASSERT(pairs_once());
    if constexpr (particles::ExactLaneKernel<K>) {
      const auto stats = particles::sweep_pair(resident, visitor, cfg_.box, cfg_.kernel, partner);
      return {stats.examined, stats.computed};
    } else {
      return {};
    }
  }

  /// Adds the partner sums of interact_pair to `b`'s force lanes.
  static void fold_pair(Buffer& b, const PairSums& sums) { particles::fold_sums(b, sums); }

  /// Sums force accumulators of `in` into `acc` (team reduction combine).
  /// Each add folds through float — the AoS combine summed float fields —
  /// preserving the force-lane precision invariant (soa_block.hpp).
  static void combine(Buffer& acc, const Buffer& in) { combine_range(acc, in, 0, acc.size()); }

  /// Element-range form of combine: folds elements [lo, hi) only. Elements
  /// are independent, so the data plane's reduce can split a team's fold
  /// across host threads by element range while each element still sees the
  /// rows folded in the serial order — the float fold does not associate,
  /// so that ORDER (not the chunking) is what the bitwise contract pins.
  static void combine_range(Buffer& acc, const Buffer& in, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      acc.fx[i] = static_cast<double>(static_cast<float>(acc.fx[i]) +
                                      static_cast<float>(in.fx[i]));
      acc.fy[i] = static_cast<double>(static_cast<float>(acc.fy[i]) +
                                      static_cast<float>(in.fy[i]));
    }
  }

  void pre_force(const particles::Integrator& integ, Buffer& b) const {
    integ.pre_force(b, cfg_.dt);
    particles::clear_forces(b);
  }
  void post_force(const particles::Integrator& integ, Buffer& b) const {
    integ.post_force(b, cfg_.dt, cfg_.box);
  }

  const Config& config() const noexcept { return cfg_; }
  const particles::Box& box() const noexcept { return cfg_.box; }
  double cutoff() const noexcept { return cfg_.cutoff; }

 private:
  Config cfg_;
};

/// A block that exists only as a particle count.
struct PhantomBlock {
  std::uint64_t count = 0;
};

class PhantomPolicy {
 public:
  using Buffer = PhantomBlock;
  static constexpr bool kIsPhantom = true;

  struct Config {
    /// Fraction of particles assumed to cross a team boundary per step
    /// (drives the Re-assign phase cost in cutoff benches).
    double reassign_fraction = 0.05;
    /// Enables the exact bulk fast path for uniform all-pairs schedules.
    bool bulk_uniform = true;
  };

  PhantomPolicy() = default;
  explicit PhantomPolicy(Config cfg) : cfg_(cfg) {}

  static std::uint64_t bytes(const Buffer& b) noexcept {
    return b.count * particles::kParticleBytes;
  }
  static std::uint64_t count(const Buffer& b) noexcept { return b.count; }

  InteractStats interact(Buffer& resident, const Buffer& visitor, bool same_block) const {
    const std::uint64_t self = same_block ? resident.count : 0;
    return {resident.count * visitor.count - self};
  }

  static void combine(Buffer& acc, const Buffer& in) {
    // Counts must agree — a reduction combines replicas of the same block.
    CANB_ASSERT(acc.count == in.count);
    (void)in;
  }

  const Config& config() const noexcept { return cfg_; }

 private:
  Config cfg_{};
};

}  // namespace canb::core
