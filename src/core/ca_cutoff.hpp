// Algorithm 2 and its multi-dimensional generalization: the
// communication-avoiding algorithm for distance-limited interactions.
//
// Teams own spatial regions (1D segments or 2D cells). A timestep is:
//   1. broadcast the team block within the team            (log c msgs)
//   2. skew: row k jumps its exchange copy to window slot k
//   3. ceil(W/c) - 1 times: shift to the next slot (stride c through the
//      linearized window), interacting at each slot        (~2m/c msgs)
//   4. sum-reduce force contributions within the team      (log c msgs)
//   5. leaders integrate, then re-assign migrated particles to the
//      neighboring teams that now own them                 (Re-assign phase)
//
// Shifts traverse the window "modulo the cutoff window" (paper Fig. 4): a
// block only ever travels to the <= 2m teams that need it. Under
// reflective boundaries, window offsets falling off the team grid are
// skipped — boundary ranks idle, reproducing the load imbalance the paper
// reports in Section IV-D2.
//
// Every message this engine produces flows through the shared vmpi
// primitives (broadcast_teams / permute_step via shift machinery /
// reduce_teams) and reassign_spatial's exchange_lists — nothing here
// talks to a fabric directly. Attaching a real transport to the
// VirtualComm (vmpi/transport.hpp, docs/TRANSPORT.md) therefore carries
// this engine's payloads over sockets with zero changes to the
// schedule below: the transport arms live inside those primitives, and
// trajectories/ledgers/traces stay bitwise identical to the modeled run
// (tests/test_transport_parity.cpp pins this).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "decomp/partition.hpp"
#include "obs/telemetry.hpp"
#include "particles/integrator.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::core {

template <class Policy>
class CaCutoff {
 public:
  using Buffer = typename Policy::Buffer;

  struct Config {
    int p = 1;
    int c = 1;
    machine::MachineModel machine;
    CutoffGeometry geometry = CutoffGeometry::make_1d(1, 0);
    bool periodic = false;  ///< periodic boundaries: windows wrap spatially
  };

  /// `team_blocks[t]` holds the particles in team t's region (see
  /// decomp::split_spatial_*; col t = ty*qx + tx in 2D).
  CaCutoff(Config cfg, Policy policy, std::vector<Buffer> team_blocks)
      : cfg_(std::move(cfg)),
        policy_(std::move(policy)),
        grid_(vmpi::Grid2d::make(cfg_.p, cfg_.c)),
        vc_(cfg_.p, cfg_.machine),
        integrator_(std::make_unique<particles::VelocityVerlet>()) {
    CANB_REQUIRE(cfg_.geometry.teams() == grid_.cols(),
                 "team grid must have exactly p/c teams");
    CANB_REQUIRE(cfg_.c <= cfg_.geometry.window(),
                 "replication factor must fit inside the interaction window (c <= 2m+1)");
    CANB_REQUIRE(static_cast<int>(team_blocks.size()) == grid_.cols(),
                 "need exactly p/c team blocks");
    slots_ = cfg_.geometry.slots_per_row(cfg_.c);
    resident_.resize(static_cast<std::size_t>(cfg_.p));
    carried_.resize(static_cast<std::size_t>(cfg_.p));
    for (int t = 0; t < grid_.cols(); ++t)
      resident_[static_cast<std::size_t>(grid_.leader(t))] =
          std::move(team_blocks[static_cast<std::size_t>(t)]);
    // Per-rank team coordinates, cached to keep the per-step loops free of
    // divisions (they dominate at paper scale: 32K ranks x ~2m/c steps).
    const auto& geom = cfg_.geometry;
    tx_.resize(static_cast<std::size_t>(cfg_.p));
    ty_.resize(static_cast<std::size_t>(cfg_.p));
    tz_.resize(static_cast<std::size_t>(cfg_.p));
    src_.resize(static_cast<std::size_t>(cfg_.p));
    for (int r = 0; r < cfg_.p; ++r) {
      const int col = grid_.col_of(r);
      tx_[static_cast<std::size_t>(r)] = col % geom.qx();
      ty_[static_cast<std::size_t>(r)] = (col / geom.qx()) % geom.qy();
      tz_[static_cast<std::size_t>(r)] = col / (geom.qx() * geom.qy());
    }
  }

  /// Converting constructor: accepts blocks in a different layout than the
  /// policy's Buffer (the AoS blocks decomp::split_spatial_* produce) and
  /// converts once at setup time.
  template <class B>
    requires(!std::is_same_v<B, Buffer> && std::is_constructible_v<Buffer, B>)
  CaCutoff(Config cfg, Policy policy, std::vector<B> team_blocks)
      : CaCutoff(std::move(cfg), std::move(policy),
                 convert_blocks<Buffer>(std::move(team_blocks))) {}

  void set_integrator(std::unique_ptr<particles::Integrator> integ) {
    integrator_ = std::move(integ);
  }

  /// Attaches a host thread pool for the per-rank interaction loops and the
  /// data plane's copy fan-out; see CaAllPairs::set_host_pool.
  void set_host_pool(std::shared_ptr<ThreadPool> pool) {
    pool_ = std::move(pool);
    plane_->workers = pool_.get();
  }

  /// Replaces the engine's own host data plane; see
  /// CaAllPairs::set_data_plane.
  void set_data_plane(std::shared_ptr<vmpi::DataPlane<Buffer>> plane) {
    CANB_REQUIRE(plane, "the host data plane is required");
    plane_ = std::move(plane);
    plane_->workers = pool_.get();
  }

  /// Attaches telemetry (not owned; nullptr detaches); see
  /// CaAllPairs::set_telemetry — observation is passive.
  void set_telemetry(obs::Telemetry* telem) {
    telem_ = telem;
    if (telem_ != nullptr) telem_->attach(vc_);
  }

  void step() {
    if (telem_ != nullptr) telem_->begin_step(vc_);
    pre_integrate();
    vmpi::broadcast_teams(vc_, grid_, resident_, &Policy::bytes, *plane_);
    boundary(vmpi::Phase::Broadcast, "broadcast");
    stage_and_skew();
    boundary(vmpi::Phase::Skew, "skew");
    interact_slot(0);
    boundary(vmpi::Phase::Compute, "interact");
    for (int j = 1; j < slots_; ++j) {
      shift_to_slot(j);
      boundary(vmpi::Phase::Shift, "shift");
      interact_slot(j);
      boundary(vmpi::Phase::Compute, "interact");
    }
    vmpi::reduce_teams(vc_, grid_, resident_, &Policy::bytes, TeamCombine<Policy>{}, *plane_);
    boundary(vmpi::Phase::Reduce, "reduce");
    post_integrate();
    boundary(vmpi::Phase::Compute, "integrate");
    reassign();
    boundary(vmpi::Phase::Reassign, "reassign");
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  // --- observers ---------------------------------------------------------
  const vmpi::VirtualComm& comm() const noexcept { return vc_; }
  vmpi::VirtualComm& comm() noexcept { return vc_; }
  const vmpi::Grid2d& grid() const noexcept { return grid_; }
  const Config& config() const noexcept { return cfg_; }
  const Policy& policy() const noexcept { return policy_; }
  int slots_per_row() const noexcept { return slots_; }

  std::vector<Buffer> team_results() const {
    std::vector<Buffer> out;
    out.reserve(static_cast<std::size_t>(grid_.cols()));
    for (int t = 0; t < grid_.cols(); ++t)
      out.push_back(resident_[static_cast<std::size_t>(grid_.leader(t))]);
    return out;
  }

 private:
  void boundary(vmpi::Phase phase, const char* label) {
    if (telem_ != nullptr) telem_->phase_boundary(vc_, phase, label);
  }

  void pre_integrate() {
    if constexpr (!Policy::kIsPhantom) {
      for (int t = 0; t < grid_.cols(); ++t) {
        const int leader = grid_.leader(t);
        if (!vc_.resident(leader)) continue;  // owner runs the half-kick
        policy_.pre_force(*integrator_, resident_[static_cast<std::size_t>(leader)]);
      }
    }
  }

  // Fills src_ with the rank each rank receives from when every row k
  // applies team-grid displacement deltas[k]. Wrap arithmetic uses
  // conditional adds (|delta| < q per axis by construction).
  void fill_sources(const std::vector<TeamOffset>& deltas) {
    const int qx = cfg_.geometry.qx();
    const int qy = cfg_.geometry.qy();
    const int qz = cfg_.geometry.qz();
    const int q = cfg_.geometry.teams();
    for (int r = 0; r < cfg_.p; ++r) {
      const int row = r / q;  // grid_.row_of without the call
      const TeamOffset d = deltas[static_cast<std::size_t>(row)];
      int sx = tx_[static_cast<std::size_t>(r)] + d.x;
      if (sx < 0) sx += qx;
      if (sx >= qx) sx -= qx;
      int sy = ty_[static_cast<std::size_t>(r)] + d.y;
      if (sy < 0) sy += qy;
      if (sy >= qy) sy -= qy;
      int sz = tz_[static_cast<std::size_t>(r)] + d.z;
      if (sz < 0) sz += qz;
      if (sz >= qz) sz -= qz;
      src_[static_cast<std::size_t>(r)] = row * q + (sz * qy + sy) * qx + sx;
    }
  }

  void stage_and_skew() {
    // Carried blocks are pure visitors here (the sweeps' read-only
    // operand), so staging copies only the kernel-input lanes.
    vmpi::stage_buffers(
        vc_, resident_, carried_,
        [this](int r, Buffer& dst, const Buffer& src) {
          // Non-resident ranks stage a phantom (size-only) block: the
          // skew/shift permutes still need correct byte counts from it,
          // but its lanes never feed a sweep in this process.
          if (vc_.resident(r)) {
            vmpi::detail::assign_visitor(dst, src);
          } else {
            vmpi::detail::phantom_assign(dst, src);
          }
        },
        *plane_);
    const auto& geom = cfg_.geometry;
    deltas_.resize(static_cast<std::size_t>(cfg_.c));
    for (int k = 0; k < cfg_.c; ++k) deltas_[static_cast<std::size_t>(k)] = geom.slot_offset(k);
    fill_sources(deltas_);
    vmpi::permute_buffers(vc_, [this](int r) { return src_[static_cast<std::size_t>(r)]; },
                          carried_, scratch_, &Policy::bytes, vmpi::Phase::Skew,
                          /*shift_phase=*/false);
  }

  void shift_to_slot(int j) {
    const auto& geom = cfg_.geometry;
    // Row k walks slots k, k+c, ... — displacement between consecutive
    // slots is uniform per row per step, so one permutation round suffices.
    deltas_.resize(static_cast<std::size_t>(cfg_.c));
    for (int k = 0; k < cfg_.c; ++k) {
      const TeamOffset prev = geom.slot_offset(k + cfg_.c * (j - 1));
      const TeamOffset next = geom.slot_offset(k + cfg_.c * j);
      deltas_[static_cast<std::size_t>(k)] = {next.x - prev.x, next.y - prev.y, next.z - prev.z};
    }
    fill_sources(deltas_);
    vmpi::permute_buffers(vc_, [this](int r) { return src_[static_cast<std::size_t>(r)]; },
                          carried_, scratch_, &Policy::bytes, vmpi::Phase::Shift,
                          /*shift_phase=*/true);
  }

  void interact_slot(int j) {
    const auto& geom = cfg_.geometry;
    const int qx = geom.qx();
    const int qy = geom.qy();
    const int qz = geom.qz();
    const int q = geom.teams();
    // Per-row slot geometry, computed once per step (rows_ is persistent
    // scratch: the per-slot loops must not allocate in steady state).
    rows_.resize(static_cast<std::size_t>(cfg_.c));
    for (int k = 0; k < cfg_.c; ++k) {
      const int s = k + cfg_.c * j;
      auto& rs = rows_[static_cast<std::size_t>(k)];
      rs.in_window = geom.slot_in_window(s);
      rs.off = geom.slot_offset(s);
      rs.self = rs.off == TeamOffset{};
    }
    // Whether rank r's slot has a partner team: in the window and, under
    // reflective boundaries, on the team grid.
    auto has_partner = [&](int r) {
      const auto& rs = rows_[static_cast<std::size_t>(r / q)];
      if (!rs.in_window) return false;
      if (cfg_.periodic) return true;
      const int ox = tx_[static_cast<std::size_t>(r)] + rs.off.x;
      const int oy = ty_[static_cast<std::size_t>(r)] + rs.off.y;
      const int oz = tz_[static_cast<std::size_t>(r)] + rs.off.z;
      return ox >= 0 && ox < qx && oy >= 0 && oy < qy && oz >= 0 && oz < qz;
    };
    auto rank_body = [&](int r) {
      if (!has_partner(r)) return;
      const auto& rs = rows_[static_cast<std::size_t>(r / q)];
      if (!vc_.resident(r)) {
        // Owner-computes: charge the owner's sweep from block sizes alone
        // (non-resident sizes are maintained by every primitive) and skip
        // the physics; on_sweep is deliberately NOT called so canb_sweep_*
        // counters document the pairs this process actually executed.
        const auto nr = Policy::count(resident_[static_cast<std::size_t>(r)]);
        const auto nc = Policy::count(carried_[static_cast<std::size_t>(r)]);
        const std::uint64_t examined = nr * nc - (rs.self ? nr : 0);
        vc_.charge_interactions(r, static_cast<double>(examined));
        return;
      }
      const auto stats = policy_.interact(resident_[static_cast<std::size_t>(r)],
                                          carried_[static_cast<std::size_t>(r)], rs.self);
      // Per-rank ledger rows and telemetry sweep slots are disjoint: safe
      // across pool threads in any execution order, so every thread count
      // leaves every artifact bitwise identical.
      vc_.charge_interactions(r, static_cast<double>(stats.examined));
      if (telem_ != nullptr && telem_->enabled())
        telem_->on_sweep(r, stats.examined, stats.computed);
    };
    if (pool_) {
      // Cost hints: the spatial interaction histogram (resident x carried
      // block sizes) per rank, 0 for a rank whose body sweeps nothing (no
      // partner team, or not resident here). Clustered distributions skew
      // these by orders of magnitude; the pool claims the largest first.
      cost_.resize(static_cast<std::size_t>(cfg_.p));
      for (int r = 0; r < cfg_.p; ++r) {
        cost_[static_cast<std::size_t>(r)] =
            has_partner(r) && vc_.resident(r)
                ? static_cast<double>(Policy::count(resident_[static_cast<std::size_t>(r)])) *
                      static_cast<double>(Policy::count(carried_[static_cast<std::size_t>(r)]))
                : 0.0;
      }
      pool_->parallel_tasks(cfg_.p, [&](int r, int) { rank_body(r); }, cost_.data());
    } else {
      for (int r = 0; r < cfg_.p; ++r) rank_body(r);
    }
  }

  void post_integrate() {
    for (int t = 0; t < grid_.cols(); ++t) {
      const int leader = grid_.leader(t);
      auto& block = resident_[static_cast<std::size_t>(leader)];
      if constexpr (!Policy::kIsPhantom) {
        if (vc_.resident(leader)) policy_.post_force(*integrator_, block);
      }
      // The integration charge stays replicated for every leader — the
      // virtual cost plane is identical on all processes by construction.
      vc_.advance(leader, vmpi::Phase::Compute,
                  cfg_.machine.gamma_flop * kIntegrateFlopsPerParticle *
                      static_cast<double>(Policy::count(block)));
    }
  }

  // --- re-assignment (spatial decomposition maintenance) ------------------
  void reassign() {
    reassign_spatial(vc_, grid_, cfg_.geometry, policy_, resident_, cfg_.machine, *plane_);
  }

  Config cfg_;
  Policy policy_;
  vmpi::Grid2d grid_;
  vmpi::VirtualComm vc_;
  std::unique_ptr<particles::Integrator> integrator_;
  /// Per-row slot geometry for the current interaction slot.
  struct RowSlot {
    bool in_window = false;
    bool self = false;
    TeamOffset off{};
  };

  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<vmpi::DataPlane<Buffer>> plane_ = std::make_shared<vmpi::DataPlane<Buffer>>();
  obs::Telemetry* telem_ = nullptr;
  std::vector<Buffer> resident_;
  std::vector<Buffer> carried_;
  std::vector<Buffer> scratch_;
  std::vector<int> tx_;   ///< per-rank team x coordinate (cached)
  std::vector<int> ty_;   ///< per-rank team y coordinate (cached)
  std::vector<int> tz_;   ///< per-rank team z coordinate (cached)
  std::vector<int> src_;  ///< per-step receive-from permutation (scratch)
  std::vector<TeamOffset> deltas_;  ///< per-row displacement scratch
  std::vector<double> cost_;        ///< per-rank sweep cost hints (scratch)
  std::vector<RowSlot> rows_;       ///< per-row slot-geometry scratch
  int slots_ = 0;
};

}  // namespace canb::core
