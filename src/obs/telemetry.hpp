// Telemetry: the one object engines and the Simulation talk to.
//
// It implements vmpi::CommObserver (metrics publication from inside
// VirtualComm), owns the TraceRecorder and SpanTimeline needed for
// Chrome-trace export and critical-path analysis, and exposes the
// MetricsRegistry the exporters serialize. Observation is strictly
// passive: attaching a Telemetry changes no clock, ledger entry, or
// physics result — runs are bitwise identical with and without it
// (property-tested).
//
// Levels:
//   Off     — nothing attached; engines skip every hook (zero cost).
//   Metrics — counters/histograms only; no trace, no spans.
//   Full    — metrics + message trace + span samples at phase boundaries
//             (engines also give up the bulk uniform-schedule fast path so
//             every message is observable; ledgers are identical either
//             way, which the bulk-equivalence tests already pin).
//
// Threading: on_compute may fire concurrently from host-pool workers, but
// only for distinct ranks (mirroring ledger rows); it therefore writes a
// per-rank accumulator and never touches the registry. on_p2p and
// on_collective fire from the serial schedule walk. finalize() folds the
// per-rank accumulators into gauges once the run is done.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/parallel.hpp"
#include "vmpi/observer.hpp"
#include "vmpi/trace.hpp"
#include "vmpi/transport.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::obs {

enum class ObsLevel { Off, Metrics, Full };

const char* obs_level_name(ObsLevel level) noexcept;
/// Parses "off" / "metrics" / "full"; nullopt on anything else.
std::optional<ObsLevel> parse_obs_level(std::string_view text);

class Telemetry final : public vmpi::CommObserver {
 public:
  explicit Telemetry(ObsLevel level);

  ObsLevel level() const noexcept { return level_; }
  bool enabled() const noexcept { return level_ != ObsLevel::Off; }
  bool spans_enabled() const noexcept { return level_ == ObsLevel::Full; }

  /// Hooks this telemetry into `vc`: registers as its observer and, at
  /// Full level, attaches the owned TraceRecorder (an externally attached
  /// recorder is left in place and read instead). Sizes per-rank state.
  void attach(vmpi::VirtualComm& vc);

  /// Engines call this at the top of every timestep. Records the baseline
  /// span sample on the first call.
  void begin_step(const vmpi::VirtualComm& vc);

  /// Engines call this after each schedule phase completes; at Full level
  /// it samples all rank clocks plus the trace position. `label` names the
  /// schedule point (e.g. "shift", "reduce").
  void phase_boundary(const vmpi::VirtualComm& vc, vmpi::Phase phase, std::string label);

  /// CA engines call this next to each ledger charge with the sweep's
  /// InteractionCount fields. Threading mirrors on_compute: pool workers
  /// hit distinct ranks only, so the per-rank accumulators are race-free.
  /// `examined` is the ledger unit; `computed` counts pair evaluations the
  /// host actually executed (under a cutoff, the candidate pairs the cell
  /// cull kept, a superset of the pairs in range: particles/sweep.hpp). A
  /// paired all-pairs sweep reports its evaluations on the lead rank and 0
  /// on its partner; a rank may be reported from its partner's task.
  void on_sweep(int rank, std::uint64_t examined, std::uint64_t computed) noexcept;

  /// Names the SIMD backend the sweeps dispatched to; published by
  /// finalize() as canb_sweep_backend{backend=...}. Set by the Simulation
  /// (telemetry itself stays independent of the particles library).
  void set_sweep_backend(std::string name) { sweep_backend_ = std::move(name); }

  /// Mesh identity. Once set (>= 0), every process-local series this
  /// telemetry publishes afterwards carries a {"group", "<g>"} label, so
  /// the mesh-merged registry (obs/snapshot.hpp) keeps one disjoint series
  /// per OS process and the Prometheus sum over the group label equals the
  /// whole-mesh total. Leave unset (-1) on single-endpoint runs to keep
  /// the historical unlabeled series.
  void set_group(int group) noexcept { group_ = group; }
  int group() const noexcept { return group_; }

  /// Publishes host scheduler counters from a ThreadPool's SchedulerStats
  /// (support/parallel.hpp): canb_sched_tasks_total,
  /// canb_sched_calls_total, per-worker task/busy/idle series, and a
  /// canb_sched_info{mode=...} marker gauge. Host wall-time observability
  /// only — nothing here reads back into the simulation. Safe to call every
  /// step: counters publish the delta since the previous call, so the final
  /// values match a single publish at the end. A no-op while the stats
  /// carry no calls.
  void publish_scheduler(std::string_view mode, const SchedulerStats& stats);

  /// Publishes real-transport fabric counters (vmpi/transport.hpp):
  /// canb_transport_frames/bytes sent/received totals and a
  /// canb_transport_info{kind=...} marker gauge. Fabric observability
  /// only — the virtual-cost ledger is charged before any of these bytes
  /// move, so these series never feed back. Delta-based like publish_scheduler, so the live scrape plane can
  /// call it each step. A no-op until the first frame moves.
  void publish_transport(std::string_view kind, const vmpi::TransportStats& stats);

  /// Publishes the execution mode and rank-ownership share of this process:
  /// a canb_transport_exec{mode=lockstep|owner_computes} marker gauge
  /// (value 1) and the canb_local_ranks gauge (how many virtual ranks this
  /// process runs physics for — p on a single endpoint, the group's share
  /// under owner-computes). Idempotent gauges; safe to call every step.
  void publish_execution(std::string_view mode, int local_ranks);

  /// Publishes the per-phase HOST data-plane gauges accumulated so far.
  /// Gauges are set, not inc'd, so calling every step is idempotent at the
  /// end of the run; finalize() includes it.
  void publish_host_phases();

  // --- live accessors (flight recorder / scrape plane) ----------------------
  std::uint64_t sweep_pairs_examined() const noexcept;
  std::uint64_t sweep_pairs_computed() const noexcept;
  /// Total HOST data-plane seconds across phases so far.
  double host_seconds() const noexcept;
  /// Label of the most recent phase_boundary() call (tracked at every
  /// level, not just Full); "" before the first boundary.
  const std::string& last_phase_label() const noexcept { return last_phase_label_; }
  /// Steps begun so far (begin_step count); -1 before the first step.
  int current_step() const noexcept { return step_; }

  /// Folds per-rank accumulators (compute seconds, wait seconds, final
  /// clocks) into registry gauges. Call once after the run.
  void finalize(const vmpi::VirtualComm& vc);

  MetricsRegistry& metrics() noexcept { return registry_; }
  const MetricsRegistry& metrics() const noexcept { return registry_; }
  const SpanTimeline& spans() const noexcept { return timeline_; }
  /// The trace this telemetry reads (owned or external); null below Full.
  const vmpi::TraceRecorder* trace() const noexcept { return trace_view_; }

  // --- vmpi::CommObserver -------------------------------------------------
  void on_p2p(vmpi::Phase phase, int src, int dst, std::uint64_t bytes, double wait_seconds,
              double cost_seconds, std::uint64_t retries, std::uint64_t timeouts) override;
  void on_collective(vmpi::Phase phase, bool is_reduce, int members, std::uint64_t bytes,
                     double seconds) override;
  void on_compute(int rank, double seconds) override;
  void on_host_phase(vmpi::Phase phase, double seconds) override;

 private:
  struct PhaseSeries {
    Counter* messages = nullptr;
    Counter* bytes_total = nullptr;
    Counter* retries = nullptr;
    Counter* timeouts = nullptr;
    Histogram* message_bytes = nullptr;
    Histogram* wait_seconds = nullptr;
    Counter* bcasts = nullptr;
    Counter* reduces = nullptr;
  };

  PhaseSeries& series_for(vmpi::Phase phase);
  /// Appends {"group", group_} when mesh identity is set.
  Labels with_group(Labels labels) const;

  ObsLevel level_;
  MetricsRegistry registry_;
  SpanTimeline timeline_;
  vmpi::TraceRecorder owned_trace_;
  const vmpi::TraceRecorder* trace_view_ = nullptr;
  Counter* steps_ = nullptr;
  /// Lazily created per-phase series (hot-path pointers, no map lookups).
  std::array<std::optional<PhaseSeries>, vmpi::kPhaseCount> phase_series_;
  // Per-rank accumulators; disjoint writes from pool threads are safe.
  std::vector<double> rank_compute_;
  std::vector<double> rank_wait_;
  // Per-rank sweep accounting (same threading rule as rank_compute_).
  std::vector<double> sweep_examined_;
  std::vector<double> sweep_computed_;
  std::vector<double> sweep_calls_;
  std::string sweep_backend_;
  /// HOST wall seconds per phase spent physically moving buffers (the data
  /// plane's copy/fold/route time). Written from the serial orchestration
  /// thread only (on_host_phase fires after parallel regions join);
  /// published as gauges by finalize().
  std::array<double, vmpi::kPhaseCount> host_phase_seconds_{};
  int step_ = -1;
  int group_ = -1;  ///< mesh identity; -1 = single endpoint, no group label
  std::string last_phase_label_;
  // Last-published stats, so the publish_* family can run every step and
  // inc only the delta (final totals identical to one publish at the end).
  vmpi::TransportStats last_transport_{};
  std::uint64_t last_sched_calls_ = 0;
  std::uint64_t last_sched_tasks_ = 0;
};

}  // namespace canb::obs
