// Algorithm 1 of the paper: CA-ALL-PAIRS-N-BODY.
//
// p ranks form a c-by-(p/c) grid. Teams (columns) own particle subsets; a
// timestep is:
//   1. broadcast the team's block from the leader to the team     (log c msgs)
//   2. copy to an exchange buffer
//   3. skew: row k shifts its exchange buffer east by k           (1 msg)
//   4. p/c^2 times: shift east by c, then interact                (p/c^2 msgs)
//   5. sum-reduce force contributions within the team             (log c msgs)
//   6. leaders integrate their subset
//
// Setting c=1 degenerates to Plimpton's particle decomposition (a ring
// pass); c=sqrt(p) degenerates to his force decomposition. Intermediate c
// trades memory (c copies of the particles) for communication, meeting the
// lower bound W = Ω(n^2/(p·M)) for every c (Section III-B).
//
// The engine is a template over a payload Policy (see policy.hpp); with
// PhantomPolicy and uniform blocks it takes an exact O(p)-per-step bulk
// fast path that reproduces the per-step ledger identically.
//
// Every unordered pair of team blocks is met twice per step: rank (k, t)
// sweeps team t against team t - o in round j, o = k + c*j (mod q), and a
// rank of team t - o sweeps it against team t at offset q - o. When both
// sweeps fall in the same round (always at c = sqrt(p)) and the policy's
// pairs_once() holds, the lower rank runs both as one (interact_pair) and
// the other evaluates nothing; see interact_all.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "obs/telemetry.hpp"
#include "particles/integrator.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::core {

template <class Policy>
class CaAllPairs {
 public:
  using Buffer = typename Policy::Buffer;

  struct Config {
    int p = 1;                       ///< total ranks
    int c = 1;                       ///< replication factor
    machine::MachineModel machine;   ///< cost model
  };

  /// `team_blocks` holds one block per team (q = p/c blocks); block t is
  /// owned by team t's leader. Requires a valid replication factor:
  /// c | p and c | (p/c), so the shift loop runs p/c^2 whole steps.
  CaAllPairs(Config cfg, Policy policy, std::vector<Buffer> team_blocks)
      : cfg_(std::move(cfg)),
        policy_(std::move(policy)),
        grid_(vmpi::Grid2d::make(cfg_.p, cfg_.c)),
        vc_(cfg_.p, cfg_.machine),
        integrator_(std::make_unique<particles::VelocityVerlet>()) {
    CANB_REQUIRE(vmpi::valid_all_pairs_replication(cfg_.p, cfg_.c),
                 "invalid replication factor: need c | p and c | p/c (so c^2 <= p)");
    CANB_REQUIRE(static_cast<int>(team_blocks.size()) == grid_.cols(),
                 "need exactly p/c team blocks");
    steps_ = grid_.cols() / grid_.rows();
    if constexpr (!Policy::kIsPhantom) pairs_once_ = policy_.pairs_once();
    resident_.resize(static_cast<std::size_t>(cfg_.p));
    carried_.resize(static_cast<std::size_t>(cfg_.p));
    for (int t = 0; t < grid_.cols(); ++t)
      resident_[static_cast<std::size_t>(grid_.leader(t))] = std::move(team_blocks[static_cast<std::size_t>(t)]);
  }

  /// Converting constructor: accepts blocks in a different layout than the
  /// policy's Buffer (the AoS blocks decomp::split_* produce) and converts
  /// once at setup time.
  template <class B>
    requires(!std::is_same_v<B, Buffer> && std::is_constructible_v<Buffer, B>)
  CaAllPairs(Config cfg, Policy policy, std::vector<B> team_blocks)
      : CaAllPairs(std::move(cfg), std::move(policy),
                   convert_blocks<Buffer>(std::move(team_blocks))) {}

  void set_integrator(std::unique_ptr<particles::Integrator> integ) {
    integrator_ = std::move(integ);
  }

  /// Attaches a host thread pool: the per-rank interaction loop (the O(n^2/p)
  /// force arithmetic) fans out across host threads, and so do the data
  /// plane's copies. Virtual-rank arithmetic stays sequential per rank, so
  /// results are bitwise identical to serial.
  void set_host_pool(std::shared_ptr<ThreadPool> pool) {
    pool_ = std::move(pool);
    plane_->workers = pool_.get();
  }

  /// Replaces the engine's own host data plane (pooled buffers + parallel
  /// copies; see vmpi/buffer_pool.hpp). Host execution only: ledgers,
  /// traces, and trajectories do not change.
  void set_data_plane(std::shared_ptr<vmpi::DataPlane<Buffer>> plane) {
    CANB_REQUIRE(plane, "the host data plane is required");
    plane_ = std::move(plane);
    plane_->workers = pool_.get();
  }

  /// Attaches telemetry (not owned; nullptr detaches). Observation is
  /// passive — ledger and clocks are bitwise unchanged — but Full-level
  /// spans disable the bulk fast path so every message is traceable (the
  /// two schedules produce identical ledgers; tests pin this).
  void set_telemetry(obs::Telemetry* telem) {
    telem_ = telem;
    if (telem_ != nullptr) telem_->attach(vc_);
  }

  /// Executes one full timestep (force evaluation + integration).
  void step() {
    if (telem_ != nullptr) telem_->begin_step(vc_);
    pre_integrate();
    broadcast_and_stage();
    if (use_bulk_path()) {
      bulk_shift_loop();
    } else {
      shift_loop();
    }
    vmpi::reduce_teams(vc_, grid_, resident_, &Policy::bytes, TeamCombine<Policy>{}, *plane_);
    boundary(vmpi::Phase::Reduce, "reduce");
    post_integrate();
    boundary(vmpi::Phase::Compute, "integrate");
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
  int shift_steps() const noexcept { return steps_; }

  /// Leader blocks in team order (the authoritative particle state).
  std::vector<Buffer> team_results() const {
    std::vector<Buffer> out;
    out.reserve(static_cast<std::size_t>(grid_.cols()));
    for (int t = 0; t < grid_.cols(); ++t)
      out.push_back(resident_[static_cast<std::size_t>(grid_.leader(t))]);
    return out;
  }

 private:
  struct Carried {
    Buffer buf{};
    int team = -1;

    // Wire support so the skew/shift rounds can cross a real transport
    // (wire.hpp): the tag travels with the block, losslessly.
    void wire_put(wire::Writer& w) const {
      w.scalar<std::int32_t>(team);
      wire::put(w, buf);
    }
    void wire_get(wire::Reader& r) {
      team = r.scalar<std::int32_t>();
      wire::get(r, buf);
    }
  };
  static std::uint64_t carried_bytes(const Carried& c) noexcept { return Policy::bytes(c.buf); }

  void pre_integrate() {
    if constexpr (!Policy::kIsPhantom) {
      for (int t = 0; t < grid_.cols(); ++t) {
        const int leader = grid_.leader(t);
        if (!vc_.resident(leader)) continue;  // owner runs the half-kick
        policy_.pre_force(*integrator_, resident_[static_cast<std::size_t>(leader)]);
      }
    }
  }

  void boundary(vmpi::Phase phase, const char* label) {
    if (telem_ != nullptr) telem_->phase_boundary(vc_, phase, label);
  }

  void broadcast_and_stage() {
    vmpi::broadcast_teams(vc_, grid_, resident_, &Policy::bytes, *plane_);
    boundary(vmpi::Phase::Broadcast, "broadcast");
    // Carried blocks are pure visitors (the sweeps' read-only operand), so
    // staging copies only the kernel-input lanes. Non-resident ranks stage
    // a phantom (size-only) block: the skew/shift rounds still need correct
    // byte counts from it, but its lanes never feed a sweep here.
    vmpi::stage_buffers(
        vc_, resident_, carried_,
        [this](int r, Carried& c, const Buffer& src) {
          if (vc_.resident(r)) {
            vmpi::detail::assign_visitor(c.buf, src);
          } else {
            vmpi::detail::phantom_assign(c.buf, src);
          }
          c.team = grid_.col_of(r);
        },
        *plane_);
    vmpi::skew_rows(vc_, grid_, [](int row) { return row; }, carried_,
                    &CaAllPairs::carried_bytes, plane_->ints);
    boundary(vmpi::Phase::Skew, "skew");
  }

  // Note a refinement over the paper's pseudocode: we interact with the
  // freshly skewed block BEFORE the first shift, so the loop needs only
  // p/c^2 - 1 shift rounds for the same p/c^2 updates (the pseudocode's
  // version shifts first and relies on the skewed block coming back around
  // on the final wrap). Coverage is identical — row k sees blocks at
  // offsets {k + c*j mod q} either way — and at c=1 the schedule becomes
  // exactly the classic p-1-round systolic ring.
  void shift_loop() {
    interact_all(0);
    boundary(vmpi::Phase::Compute, "interact");
    for (int j = 1; j < steps_; ++j) {
      vmpi::shift_rows(vc_, grid_, grid_.rows(), carried_, &CaAllPairs::carried_bytes);
      boundary(vmpi::Phase::Shift, "shift");
      interact_all(j);
      boundary(vmpi::Phase::Compute, "interact");
    }
  }

  /// The rank that sweeps rank r's two teams the other way in round j, or
  /// -1 if rank r sweeps alone. Rank (k, t) sweeps team t - o, o = k + c*j
  /// (mod q); for o != 0 its partner sweeps team t - o against team t at
  /// offset q - o, from row (q - o) mod c of column t - o, in round
  /// (q - o) / c. The two pair only when that round is j and both ranks
  /// are resident here; otherwise each keeps its own sweep.
  int partner(int r, int j) const {
    if (!pairs_once_) return -1;
    const int q = grid_.cols();
    const int o = (grid_.row_of(r) + grid_.rows() * j) % q;
    const int back = q - o;
    if (o == 0 || back / grid_.rows() != j) return -1;
    const int s = grid_.rank(back % grid_.rows(), grid_.wrap_col(grid_.col_of(r), -o));
    return vc_.resident(r) && vc_.resident(s) ? s : -1;
  }

  void on_sweep(int r, std::uint64_t examined, std::uint64_t computed) {
    if (telem_ != nullptr && telem_->enabled()) telem_->on_sweep(r, examined, computed);
  }

  /// Round j's interactions. Of two paired ranks the lower one leads: it
  /// runs interact_pair, folds its own sums, folds the partner's sums into
  /// the partner's resident block, and charges the partner's `examined`,
  /// all in its own task; the partner's task does nothing (the two ranks'
  /// blocks and ledger rows are disjoint from every other task's). So
  /// every rank charges the same `examined` in the same round as without
  /// pairing, and every force lane sees the same folds in the same order.
  /// `computed` counts each evaluation once, on the lead.
  void interact_all(int j) {
    auto rank_body = [&](int r) {
      auto& carried = carried_[static_cast<std::size_t>(r)];
      const bool same = carried.team == grid_.col_of(r);
      if constexpr (!Policy::kIsPhantom) {
        const int s = partner(r, j);
        if (s >= 0) {
          // The rotation delivered the partner's team, as partner() assumes.
          CANB_ASSERT(carried.team == grid_.col_of(s));
          if (r < s) lead(r, s, carried.buf);
          return;
        }
      }
      if (!vc_.resident(r)) {
        // Owner-computes: this rank's sweep runs in its owning process.
        // Charge exactly what the owner's sweep will report — examined
        // counts derive from block sizes alone (the sweep examines every
        // pair of the block product but same-id ones), and non-resident
        // buffer sizes are maintained by every primitive — then skip the
        // physics. on_sweep is deliberately NOT called: canb_sweep_*
        // counters document the pairs this process actually executed.
        const auto nr = Policy::count(resident_[static_cast<std::size_t>(r)]);
        const auto nc = Policy::count(carried.buf);
        const std::uint64_t examined = nr * nc - (same ? nr : 0);
        vc_.charge_interactions(r, static_cast<double>(examined));
        return;
      }
      const auto stats =
          policy_.interact(resident_[static_cast<std::size_t>(r)], carried.buf, same);
      // Per-rank ledger rows and clocks are disjoint: safe across threads
      // in any execution order (the telemetry sweep accumulators follow the
      // same per-rank rule), so every thread count produces
      // bitwise-identical artifacts.
      vc_.charge_interactions(r, static_cast<double>(stats.examined));
      on_sweep(r, stats.examined, stats.computed);
    };
    if (pool_) {
      // Cost hints: per-rank resident x carried block sizes — the exact
      // pair count each rank examines this round; a paired lead carries its
      // partner's, and the partner evaluates nothing.
      cost_.resize(static_cast<std::size_t>(cfg_.p));
      for (int r = 0; r < cfg_.p; ++r) {
        const int s = partner(r, j);
        cost_[static_cast<std::size_t>(r)] =
            vc_.resident(r) && (s < 0 || r < s)
                ? static_cast<double>(Policy::count(resident_[static_cast<std::size_t>(r)])) *
                      static_cast<double>(Policy::count(carried_[static_cast<std::size_t>(r)].buf))
                : 0.0;
      }
      pool_->parallel_tasks(cfg_.p, [&](int r, int) { rank_body(r); }, cost_.data());
    } else {
      for (int r = 0; r < cfg_.p; ++r) rank_body(r);
    }
  }

  /// A paired lead's sweep, for itself and for partner s (see interact_all).
  void lead(int r, int s, const Buffer& visitor) {
    thread_local typename Policy::PairSums sums;
    const InteractStats stats =
        policy_.interact_pair(resident_[static_cast<std::size_t>(r)], visitor, sums);
    vc_.charge_interactions(r, static_cast<double>(stats.examined));
    on_sweep(r, stats.examined, stats.computed);
    Policy::fold_pair(resident_[static_cast<std::size_t>(s)], sums);
    vc_.charge_interactions(s, static_cast<double>(stats.examined));
    on_sweep(s, stats.examined, 0);
  }

  // The bulk fast path applies when blocks are phantom and uniform: every
  // rank then behaves identically each shift step (no waits), so `steps_`
  // iterations can be charged in O(p) total. Produces a ledger exactly
  // equal to the per-step path (verified by tests).
  bool use_bulk_path() const {
    if constexpr (Policy::kIsPhantom) {
      if (!policy_.config().bulk_uniform) return false;
      // Hop-aware latency varies per rank pair (rank order maps onto a
      // torus), so the uniform-charge shortcut would be wrong.
      if (cfg_.machine.alpha_hop > 0.0) return false;
      // Fault injection perturbs ranks individually; fall back to the
      // per-step schedule so every draw lands on the right rank stream.
      if (vc_.fault_active()) return false;
      // Telemetry wants every message observable (counters, trace, spans);
      // the bulk shortcut charges them in one unobserved blob. Ledger
      // output is identical either way (pinned by the bulk-equivalence
      // tests), so this only trades speed for observability.
      if (telem_ != nullptr && telem_->enabled()) return false;
      // A real transport must see every message cross the fabric; the bulk
      // shortcut moves nothing, so it would leave unmatched sends/recvs on
      // peer endpoints.
      if (vc_.transport() != nullptr) return false;
      const std::uint64_t c0 = Policy::count(resident_[static_cast<std::size_t>(grid_.leader(0))]);
      for (int t = 1; t < grid_.cols(); ++t) {
        if (Policy::count(resident_[static_cast<std::size_t>(grid_.leader(t))]) != c0) return false;
      }
      return true;
    } else {
      return false;
    }
  }

  void bulk_shift_loop() {
    if constexpr (Policy::kIsPhantom) {
      const std::uint64_t cnt = Policy::count(resident_[0]);
      const auto w = static_cast<std::uint64_t>(cnt * particles::kParticleBytes);
      const auto steps = static_cast<std::uint64_t>(steps_);
      // steps_ - 1 shift rounds (interact-first loop); when c ≡ 0 (mod q)
      // the shift would be a no-op anyway (the c = sqrt(p)
      // force-decomposition end point has steps_ == 1).
      if (steps > 1 && grid_.rows() % grid_.cols() != 0) {
        vc_.advance_all(vmpi::Phase::Shift, cfg_.machine.shift_time(static_cast<double>(w)), 1, w,
                        steps - 1);
      }
      // Every rank examines cnt^2 pairs per step; a rank meets its own
      // team's block exactly once over the loop iff it sits in row 0, and
      // then skips cnt self-pairs.
      const double full = static_cast<double>(cnt) * static_cast<double>(cnt) *
                          static_cast<double>(steps);
      for (int r = 0; r < cfg_.p; ++r) {
        const double self = grid_.row_of(r) == 0 ? static_cast<double>(cnt) : 0.0;
        vc_.charge_interactions(r, full - self);
      }
    }
  }

  void post_integrate() {
    const double flops = kIntegrateFlopsPerParticle;
    for (int t = 0; t < grid_.cols(); ++t) {
      const int leader = grid_.leader(t);
      auto& block = resident_[static_cast<std::size_t>(leader)];
      if constexpr (!Policy::kIsPhantom) {
        if (vc_.resident(leader)) policy_.post_force(*integrator_, block);
      }
      // The integration charge stays replicated for every leader — the
      // virtual cost plane is identical on all processes by construction.
      vc_.advance(leader, vmpi::Phase::Compute,
                  cfg_.machine.gamma_flop * flops * static_cast<double>(Policy::count(block)));
    }
  }

  Config cfg_;
  Policy policy_;
  vmpi::Grid2d grid_;
  vmpi::VirtualComm vc_;
  std::unique_ptr<particles::Integrator> integrator_;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<vmpi::DataPlane<Buffer>> plane_ = std::make_shared<vmpi::DataPlane<Buffer>>();
  obs::Telemetry* telem_ = nullptr;
  std::vector<Buffer> resident_;
  std::vector<Carried> carried_;
  std::vector<double> cost_;  ///< per-rank sweep cost hints (scratch)
  int steps_ = 0;
  bool pairs_once_ = false;  ///< whether interact_all pairs ranks at all
};

}  // namespace canb::core
