// VirtualComm: p virtual ranks with per-rank clocks, executing synchronous
// communication steps against a MachineModel.
//
// Semantics:
//  * permute_step models an MPI_Sendrecv round: every rank sends one message
//    and receives one; the receiver's clock becomes
//    max(own, sender) + (alpha + beta*bytes). The elapsed time (including
//    any wait for a slow sender) is charged to the given phase.
//  * team_broadcast / team_reduce model tree collectives within each column
//    of a Grid2d; all members synchronize at max(member clocks) + T_coll.
//  * Message/byte accounting follows the paper (Section III-B): a tree
//    collective on c ranks charges ceil(log2 c) messages and O(w) bytes to
//    the critical path (pipelined tree), a point-to-point round charges one
//    message of w bytes.
//
// Data movement lives in primitives.hpp; this class is cost-only, which is
// what allows identical accounting for real and phantom payloads.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/machine_model.hpp"
#include "support/assert.hpp"
#include "vmpi/cost_ledger.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/grid.hpp"
#include "vmpi/observer.hpp"
#include "vmpi/trace.hpp"
#include "vmpi/transport.hpp"

namespace canb::vmpi {

class VirtualComm {
 public:
  VirtualComm(int p, machine::MachineModel model);

  int size() const noexcept { return p_; }
  const machine::MachineModel& model() const noexcept { return model_; }

  double clock(int rank) const;
  double max_clock() const;

  CostLedger& ledger() noexcept { return ledger_; }
  const CostLedger& ledger() const noexcept { return ledger_; }

  /// Zeroes all clocks and the ledger (an attached trace is also cleared).
  void reset();

  /// Attaches a trace recorder (not owned; nullptr detaches). Tracing is
  /// for tests and debugging — it records every message.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }
  TraceRecorder* trace() const noexcept { return trace_; }

  /// Attaches a fault/straggler model (not owned; nullptr detaches). The
  /// model perturbs *costs* only — data movement and physics are unchanged.
  /// A model with all rates zero is inert: clocks and ledgers stay bitwise
  /// identical to a detached run. Must cover exactly `size()` ranks.
  void set_fault(PerturbationModel* fault) {
    CANB_REQUIRE(fault == nullptr || fault->ranks() == p_,
                 "fault model must cover exactly p ranks");
    fault_ = fault;
  }
  PerturbationModel* fault() const noexcept { return fault_; }
  /// True when an attached model actually perturbs something (engines use
  /// this to disable uniform-schedule fast paths).
  bool fault_active() const noexcept { return fault_ != nullptr && fault_->active(); }

  /// Attaches a telemetry observer (not owned; nullptr detaches). Purely
  /// passive: every charge is reported after the fact, so an attached
  /// observer leaves clocks and ledgers bitwise identical (tested).
  void set_observer(CommObserver* obs) noexcept { obs_ = obs; }
  CommObserver* observer() const noexcept { return obs_; }

  /// Attaches a real byte transport (not owned; nullptr detaches and
  /// restores the default modeled arm). The primitives serialize payloads
  /// through it instead of assigning between rank heaps. Every virtual
  /// charge is issued *before* the bytes move, from particle counts alone,
  /// so an attached transport leaves clocks, ledgers, and traces bitwise
  /// identical to the modeled arm (pinned by tests/test_transport_parity).
  /// Must cover exactly `size()` ranks.
  void set_transport(Transport* t) {
    CANB_REQUIRE(t == nullptr || t->ranks() == p_, "transport must cover exactly p ranks");
    transport_ = t;
  }
  Transport* transport() const noexcept { return transport_; }

  /// Owner-computes execution: when enabled (requires an attached
  /// transport), engines and primitives skip the *physics* — force sweeps,
  /// reassign splits, data-plane copies — for ranks whose payloads live in
  /// another process group, while every virtual charge loop stays fully
  /// replicated so clocks, ledgers, and traces remain bitwise identical to
  /// the modeled arm. Off (the default, and every single-endpoint run)
  /// keeps resident() always true.
  void set_owner_computes(bool on) {
    CANB_REQUIRE(!on || transport_ != nullptr, "owner-computes requires an attached transport");
    owner_computes_ = on;
  }
  bool owner_computes() const noexcept { return owner_computes_; }

  /// Whether `rank`'s particle payloads are materialized (and its physics
  /// executed) in this process. The single predicate the primitives and
  /// engines consult; always true outside owner-computes mode.
  bool resident(int rank) const noexcept {
    return !owner_computes_ || transport_ == nullptr || transport_->local(rank);
  }

  /// Per-round message tag for transport flows. Every primitive call draws
  /// one tag; every process runs the same schedule and draws the same
  /// sequence, which is what lets send/recv pairs match across processes
  /// without any negotiation. Counts up from 1 — tags at or above
  /// vmpi::kReservedTagBase belong to out-of-band control flows (telemetry
  /// snapshots) and are never allocated here.
  std::uint64_t next_transport_tag() noexcept { return ++transport_tag_; }

  /// Per-call tag for the owner-computes reassign count exchange. Lives in
  /// the reserved out-of-band range (never collides with data flows or
  /// telemetry snapshots); all processes draw the same sequence because the
  /// exchange happens at the same schedule point everywhere.
  std::uint64_t next_reassign_count_tag() noexcept {
    return kReassignCountTagBase + (++reassign_count_tag_);
  }

  // --- local charges -----------------------------------------------------
  /// Advances one rank's clock, attributing to `phase`.
  void advance(int rank, Phase phase, double seconds, std::uint64_t messages = 0,
               std::uint64_t bytes = 0);

  /// Charges `interactions` pairwise force evaluations to one rank.
  void charge_interactions(int rank, double interactions);

  /// Bulk fast path: advances every rank identically, `repeat` times.
  /// Exactly equivalent to `repeat` uniform per-rank advances.
  void advance_all(Phase phase, double seconds, std::uint64_t messages, std::uint64_t bytes,
                   std::uint64_t repeat = 1);

  // --- synchronous communication rounds -----------------------------------
  /// One permutation round: rank r receives from src_of(r) a message of
  /// bytes_from(src) bytes. `src_of` must be a permutation; a round trips
  /// every rank exactly once. If src_of(r) == r the rank neither sends nor
  /// receives (zero cost). `shift_phase` selects the (possibly
  /// torus-optimized) shift cost instead of plain point-to-point.
  template <class SrcFn, class BytesFn>
  void permute_step(Phase phase, SrcFn&& src_of, BytesFn&& bytes_from, bool shift_phase = true) {
    snapshot_clocks();
    if (trace_) trace_->begin_round();
    const auto& m = model_;
    // Hop-aware latency is opt-in (alpha_hop > 0): virtual ranks map
    // rank-order onto the machine's torus, so message distance follows the
    // schedule's column displacement.
    const bool hop_aware = m.alpha_hop > 0.0 && hop_topology_ != nullptr;
    for (int r = 0; r < p_; ++r) {
      const int src = src_of(r);
      if (src == r) continue;
      const double w = bytes_from(src);
      // Empty payloads send no message (e.g. boundary leaders in the
      // re-assignment exchange have nothing to route outward).
      if (w <= 0.0) continue;
      const int hops = hop_aware ? hop_topology_->hops(src, r) : 1;
      double cost = shift_phase ? m.shift_time(w, hops) : m.p2p_time(w, hops);
      std::uint64_t msgs = 1;
      std::uint64_t wire_bytes = static_cast<std::uint64_t>(w);
      std::uint64_t retries = 0;
      std::uint64_t timeouts = 0;
      if (fault_) {
        // A degraded link slows the whole transfer; drops cost a timeout
        // wait plus a full retransmission per failed attempt, all charged
        // to the receiving rank's clock in this phase.
        cost *= fault_->link_factor(src, r);
        const auto d = fault_->plan_delivery(r, cost);
        if (d.retries > 0) {
          cost += d.extra_seconds;
          msgs += d.retries;
          wire_bytes += static_cast<std::uint64_t>(w) * d.retries;
          retries = d.retries;
          timeouts = d.timeouts;
          ledger_.charge_fault(r, phase, d.retries, d.timeouts);
        }
      }
      if (trace_) trace_->record_p2p(phase, src, r, static_cast<std::uint64_t>(w), retries, timeouts);
      const double start = std::max(clock_[static_cast<std::size_t>(r)],
                                    scratch_[static_cast<std::size_t>(src)]);
      const double finish = start + cost;
      if (obs_) {
        obs_->on_p2p(phase, src, r, static_cast<std::uint64_t>(w),
                     start - clock_[static_cast<std::size_t>(r)], cost, retries, timeouts);
      }
      advance(r, phase, finish - clock_[static_cast<std::size_t>(r)], msgs, wire_bytes);
      clock_[static_cast<std::size_t>(r)] = finish;
    }
  }

  /// Tree broadcast within every column (team) of `grid`.
  /// bytes_of_team(col) gives the payload size per team.
  template <class BytesFn>
  void team_broadcast(const Grid2d& grid, Phase phase, BytesFn&& bytes_of_team) {
    team_collective(grid, phase, /*is_reduce=*/false, std::forward<BytesFn>(bytes_of_team));
  }

  /// Tree reduction within every column (team) of `grid`.
  template <class BytesFn>
  void team_reduce(const Grid2d& grid, Phase phase, BytesFn&& bytes_of_team) {
    team_collective(grid, phase, /*is_reduce=*/true, std::forward<BytesFn>(bytes_of_team));
  }

  /// A collective over ALL ranks moving `bytes` per rank (naive all-gather
  /// baseline; may hit a hardware tree network if the model has one).
  void whole_machine_collective(Phase phase, double bytes, bool is_reduce);

  /// Tree collectives over arbitrary disjoint rank groups (used by the
  /// Plimpton force decomposition, whose row and column broadcasts do not
  /// match the Grid2d team layout). bytes_of_group(g) gives the payload.
  template <class BytesFn>
  void group_collective(const std::vector<std::vector<int>>& groups, Phase phase, bool is_reduce,
                        BytesFn&& bytes_of_group) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& members = groups[g];
      if (members.size() <= 1) continue;
      double t0 = 0.0;
      for (int r : members) t0 = std::max(t0, clock_[static_cast<std::size_t>(r)]);
      const double w = bytes_of_group(static_cast<int>(g));
      machine::CollectiveContext ctx{static_cast<int>(members.size()), w, p_,
                                     static_cast<int>(members.size()) == p_};
      double t_coll = is_reduce ? model_.reduce_time(ctx) : model_.broadcast_time(ctx);
      if (fault_) {
        t_coll *= fault_->collective_factor(
            members.front(), static_cast<int>(members.size()),
            [&](int i) { return members[static_cast<std::size_t>(i)]; });
      }
      const double finish = t0 + t_coll;
      if (trace_) trace_->record_collective(phase, is_reduce, members, static_cast<std::uint64_t>(w));
      if (obs_) {
        obs_->on_collective(phase, is_reduce, static_cast<int>(members.size()),
                            static_cast<std::uint64_t>(w), t_coll);
      }
      const auto msgs =
          static_cast<std::uint64_t>(model_.collective_messages(static_cast<int>(members.size())));
      for (int r : members) {
        advance(r, phase, finish - clock_[static_cast<std::size_t>(r)], msgs,
                static_cast<std::uint64_t>(w));
        clock_[static_cast<std::size_t>(r)] = finish;
      }
    }
  }

  /// Global barrier: all clocks jump to the current maximum. No messages
  /// are charged (we use it to delimit timesteps, not to model MPI_Barrier).
  void synchronize(Phase phase = Phase::Other);

 private:
  template <class BytesFn>
  void team_collective(const Grid2d& grid, Phase phase, bool is_reduce, BytesFn&& bytes_of_team) {
    CANB_ASSERT(grid.size() == p_);
    const int c = grid.rows();
    if (c <= 1) return;
    const int q = grid.cols();
    const auto msgs = static_cast<std::uint64_t>(model_.collective_messages(c));
    for (int col = 0; col < q; ++col) {
      double t0 = 0.0;
      for (int row = 0; row < c; ++row)
        t0 = std::max(t0, clock_[static_cast<std::size_t>(grid.rank(row, col))]);
      const double w = bytes_of_team(col);
      machine::CollectiveContext ctx{c, w, p_, /*whole_partition=*/c == p_};
      double t_coll = is_reduce ? model_.reduce_time(ctx) : model_.broadcast_time(ctx);
      if (fault_) {
        // The pipelined tree is bounded by its worst leader->member edge.
        t_coll *= fault_->collective_factor(grid.leader(col), c,
                                            [&](int row) { return grid.rank(row, col); });
      }
      const double finish = t0 + t_coll;
      if (trace_) {
        std::vector<int> members;
        members.reserve(static_cast<std::size_t>(c));
        for (int row = 0; row < c; ++row) members.push_back(grid.rank(row, col));
        trace_->record_collective(phase, is_reduce, std::move(members),
                                  static_cast<std::uint64_t>(w));
      }
      if (obs_) obs_->on_collective(phase, is_reduce, c, static_cast<std::uint64_t>(w), t_coll);
      for (int row = 0; row < c; ++row) {
        const int r = grid.rank(row, col);
        advance(r, phase, finish - clock_[static_cast<std::size_t>(r)], msgs,
                static_cast<std::uint64_t>(w));
        clock_[static_cast<std::size_t>(r)] = finish;
      }
    }
  }

  void snapshot_clocks();

  int p_;
  machine::MachineModel model_;
  CostLedger ledger_;
  std::vector<double> clock_;
  std::vector<double> scratch_;
  TraceRecorder* trace_ = nullptr;
  PerturbationModel* fault_ = nullptr;
  CommObserver* obs_ = nullptr;
  Transport* transport_ = nullptr;
  std::uint64_t transport_tag_ = 0;
  std::uint64_t reassign_count_tag_ = 0;
  bool owner_computes_ = false;
  /// Topology used for hop-aware latency; set in the constructor when the
  /// model requests it (alpha_hop > 0). Sized to exactly p ranks.
  std::shared_ptr<const machine::Topology> hop_topology_;
};

}  // namespace canb::vmpi
