#include "obs/telemetry.hpp"

#include "support/assert.hpp"

namespace canb::obs {

const char* obs_level_name(ObsLevel level) noexcept {
  switch (level) {
    case ObsLevel::Off: return "off";
    case ObsLevel::Metrics: return "metrics";
    case ObsLevel::Full: return "full";
  }
  return "unknown";
}

std::optional<ObsLevel> parse_obs_level(std::string_view text) {
  if (text == "off") return ObsLevel::Off;
  if (text == "metrics") return ObsLevel::Metrics;
  if (text == "full") return ObsLevel::Full;
  return std::nullopt;
}

Telemetry::Telemetry(ObsLevel level) : level_(level) {}

void Telemetry::attach(vmpi::VirtualComm& vc) {
  if (!enabled()) return;
  vc.set_observer(this);
  if (spans_enabled()) {
    if (vc.trace() != nullptr) {
      trace_view_ = vc.trace();
    } else {
      vc.set_trace(&owned_trace_);
      trace_view_ = &owned_trace_;
    }
  }
  const auto p = static_cast<std::size_t>(vc.size());
  rank_compute_.assign(p, 0.0);
  rank_wait_.assign(p, 0.0);
  sweep_examined_.assign(p, 0.0);
  sweep_computed_.assign(p, 0.0);
  sweep_calls_.assign(p, 0.0);
  steps_ = &registry_.counter("canb_steps_total", {}, "timesteps executed");
}

Telemetry::PhaseSeries& Telemetry::series_for(vmpi::Phase phase) {
  auto& slot = phase_series_[static_cast<std::size_t>(phase)];
  if (!slot.has_value()) {
    const Labels labels{{"phase", vmpi::phase_name(phase)}};
    PhaseSeries s;
    s.messages = &registry_.counter("canb_messages_total", labels,
                                    "point-to-point messages delivered");
    s.bytes_total = &registry_.counter("canb_bytes_total", labels,
                                       "payload bytes moved point-to-point");
    s.retries = &registry_.counter("canb_retries_total", labels,
                                   "fault-injected message retransmissions");
    s.timeouts = &registry_.counter("canb_timeouts_total", labels,
                                    "fault-injected timeout expirations");
    s.message_bytes = &registry_.histogram(
        "canb_message_bytes", {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}, labels,
        "per-message payload size distribution (bytes)");
    s.wait_seconds = &registry_.histogram(
        "canb_wait_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}, labels,
        "receiver wait-for-sender time distribution (virtual seconds)");
    s.bcasts = &registry_.counter("canb_collectives_total",
                                  {{"phase", vmpi::phase_name(phase)}, {"op", "bcast"}},
                                  "tree collectives executed");
    s.reduces = &registry_.counter("canb_collectives_total",
                                   {{"phase", vmpi::phase_name(phase)}, {"op", "reduce"}},
                                   "tree collectives executed");
    slot = s;
  }
  return *slot;
}

void Telemetry::begin_step(const vmpi::VirtualComm& vc) {
  ++step_;
  if (steps_ != nullptr) steps_->inc();
  if (spans_enabled() && timeline_.empty()) {
    // Baseline sample: the chain's anchor at the run's starting clocks.
    SpanSample s;
    s.label = "start";
    s.step = -1;
    if (trace_view_ != nullptr) {
      s.p2p_end = trace_view_->p2p().size();
      s.coll_end = trace_view_->collectives().size();
    }
    s.clocks.reserve(static_cast<std::size_t>(vc.size()));
    for (int r = 0; r < vc.size(); ++r) s.clocks.push_back(vc.clock(r));
    timeline_.add(std::move(s));
  }
}

Labels Telemetry::with_group(Labels labels) const {
  if (group_ >= 0) labels.emplace_back("group", std::to_string(group_));
  return labels;
}

void Telemetry::phase_boundary(const vmpi::VirtualComm& vc, vmpi::Phase phase,
                               std::string label) {
  last_phase_label_ = label;
  if (!spans_enabled()) return;
  SpanSample s;
  s.label = std::move(label);
  s.phase = phase;
  s.step = step_;
  if (trace_view_ != nullptr) {
    s.p2p_end = trace_view_->p2p().size();
    s.coll_end = trace_view_->collectives().size();
  }
  s.clocks.reserve(static_cast<std::size_t>(vc.size()));
  for (int r = 0; r < vc.size(); ++r) s.clocks.push_back(vc.clock(r));
  timeline_.add(std::move(s));
}

void Telemetry::publish_scheduler(std::string_view mode, const SchedulerStats& stats) {
  if (!enabled() || stats.calls == 0) return;
  registry_
      .gauge("canb_sched_info", with_group({{"mode", std::string(mode)}}),
             "host task scheduler in effect (value 1; mode label carries the choice)")
      .set(1.0);
  registry_
      .counter("canb_sched_calls_total", with_group({}),
               "parallel_tasks invocations on the host pool")
      .inc(stats.calls - last_sched_calls_);
  registry_.counter("canb_sched_tasks_total", with_group({}), "tasks executed across all workers")
      .inc(stats.tasks - last_sched_tasks_);
  last_sched_calls_ = stats.calls;
  last_sched_tasks_ = stats.tasks;
  for (std::size_t w = 0; w < stats.tasks_per_worker.size(); ++w) {
    const Labels labels = with_group({{"worker", std::to_string(w)}});
    registry_
        .gauge("canb_tasks_per_worker", labels,
               "tasks this worker executed; HOST wall accounting")
        .set(static_cast<double>(stats.tasks_per_worker[w]));
    registry_
        .gauge("canb_worker_busy_seconds", labels,
               "HOST wall seconds this worker spent running tasks")
        .set(stats.busy_seconds[w]);
    registry_
        .gauge("canb_worker_idle_seconds", labels,
               "HOST wall seconds this worker spent in parallel_tasks calls not running "
               "tasks (call wall minus busy)")
        .set(stats.idle_seconds[w]);
  }
}

void Telemetry::publish_transport(std::string_view kind, const vmpi::TransportStats& stats) {
  if (!enabled() || stats.frames_sent == 0) return;
  registry_
      .gauge("canb_transport_info", with_group({{"kind", std::string(kind)}}),
             "real transport in effect (value 1; kind label carries the backend)")
      .set(1.0);
  registry_
      .counter("canb_transport_frames_sent_total", with_group({}),
               "payload frames this endpoint posted to the fabric")
      .inc(stats.frames_sent - last_transport_.frames_sent);
  registry_
      .counter("canb_transport_bytes_sent_total", with_group({}),
               "payload bytes posted to the fabric")
      .inc(stats.bytes_sent - last_transport_.bytes_sent);
  registry_
      .counter("canb_transport_frames_received_total", with_group({}),
               "payload frames delivered into this endpoint's mailboxes")
      .inc(stats.frames_received - last_transport_.frames_received);
  registry_
      .counter("canb_transport_bytes_received_total", with_group({}), "payload bytes delivered")
      .inc(stats.bytes_received - last_transport_.bytes_received);
  registry_
      .counter("canb_transport_retransmits_total", with_group({}),
               "reliable-channel data frames re-sent after a timeout")
      .inc(stats.retransmits - last_transport_.retransmits);
  registry_
      .counter("canb_transport_acks_total", with_group({}), "reliable-channel acks emitted")
      .inc(stats.acks_sent - last_transport_.acks_sent);
  registry_
      .counter("canb_transport_duplicates_total", with_group({}),
               "duplicate/stale frames discarded by the reliable channel")
      .inc(stats.duplicates_dropped - last_transport_.duplicates_dropped);
  last_transport_ = stats;
}

void Telemetry::publish_execution(std::string_view mode, int local_ranks) {
  if (!enabled()) return;
  registry_
      .gauge("canb_transport_exec", with_group({{"mode", std::string(mode)}}),
             "execution mode in effect (value 1; mode label: lockstep | owner_computes)")
      .set(1.0);
  registry_
      .gauge("canb_local_ranks", with_group({}),
             "virtual ranks whose physics this process executes (p on a single "
             "endpoint, the group's ownership share under owner-computes)")
      .set(static_cast<double>(local_ranks));
}

void Telemetry::publish_host_phases() {
  if (!enabled()) return;
  for (std::size_t i = 0; i < vmpi::kPhaseCount; ++i) {
    if (host_phase_seconds_[i] == 0.0) continue;  // phase never moved host data
    const auto phase = static_cast<vmpi::Phase>(i);
    registry_
        .gauge("canb_host_phase_seconds", with_group({{"phase", vmpi::phase_name(phase)}}),
               "HOST wall seconds moving buffers for this phase (data plane; "
               "not virtual time)")
        .set(host_phase_seconds_[i]);
  }
}

std::uint64_t Telemetry::sweep_pairs_examined() const noexcept {
  double total = 0.0;
  for (double v : sweep_examined_) total += v;
  return static_cast<std::uint64_t>(total);
}

std::uint64_t Telemetry::sweep_pairs_computed() const noexcept {
  double total = 0.0;
  for (double v : sweep_computed_) total += v;
  return static_cast<std::uint64_t>(total);
}

double Telemetry::host_seconds() const noexcept {
  double total = 0.0;
  for (double v : host_phase_seconds_) total += v;
  return total;
}

void Telemetry::finalize(const vmpi::VirtualComm& vc) {
  if (!enabled()) return;
  publish_host_phases();
  double sweep_pairs = 0.0;
  double sweep_computed = 0.0;
  double sweep_calls = 0.0;
  for (std::size_t r = 0; r < sweep_examined_.size(); ++r) {
    sweep_pairs += sweep_examined_[r];
    sweep_computed += sweep_computed_[r];
    sweep_calls += sweep_calls_[r];
  }
  // Sweep counters are process-local truths: they document the pairs THIS
  // process actually swept. Under owner-computes each group sweeps only its
  // owned ranks, so the group-labeled series are partial sums whose total
  // across groups equals a single-process run's count (pinned by
  // tests/test_owner_computes.cpp).
  if (sweep_calls > 0.0) {
    registry_
        .counter("canb_sweep_pairs_total", with_group({}),
                 "directed interaction pairs swept by THIS process (ledger unit; "
                 "a partial per-group sum under owner-computes)")
        .inc(static_cast<std::uint64_t>(sweep_pairs));
    registry_
        .counter("canb_sweep_pairs_computed_total", with_group({}),
                 "pair evaluations the host actually executed (under a cutoff, the "
                 "candidate pairs the cell cull kept, a superset of the pairs in range)")
        .inc(static_cast<std::uint64_t>(sweep_computed));
  }
  if (!sweep_backend_.empty()) {
    registry_
        .gauge("canb_sweep_backend", with_group({{"backend", sweep_backend_}}),
               "SIMD backend the sweep lane pipelines dispatched to (value 1)")
        .set(1.0);
  }
  for (int r = 0; r < vc.size(); ++r) {
    const Labels labels{{"rank", std::to_string(r)}};
    registry_
        .gauge("canb_rank_compute_seconds", labels, "virtual compute seconds accumulated")
        .set(rank_compute_[static_cast<std::size_t>(r)]);
    registry_.gauge("canb_rank_wait_seconds", labels, "virtual seconds spent waiting on senders")
        .set(rank_wait_[static_cast<std::size_t>(r)]);
    registry_.gauge("canb_rank_clock_seconds", labels, "final virtual clock")
        .set(vc.clock(r));
  }
}

void Telemetry::on_p2p(vmpi::Phase phase, int /*src*/, int dst, std::uint64_t bytes,
                       double wait_seconds, double /*cost_seconds*/, std::uint64_t retries,
                       std::uint64_t timeouts) {
  auto& s = series_for(phase);
  s.messages->inc();
  s.bytes_total->inc(bytes);
  if (retries > 0) s.retries->inc(retries);
  if (timeouts > 0) s.timeouts->inc(timeouts);
  s.message_bytes->observe(static_cast<double>(bytes));
  if (wait_seconds > 0.0) {
    s.wait_seconds->observe(wait_seconds);
    rank_wait_[static_cast<std::size_t>(dst)] += wait_seconds;
  }
}

void Telemetry::on_collective(vmpi::Phase phase, bool is_reduce, int /*members*/,
                              std::uint64_t bytes, double /*seconds*/) {
  auto& s = series_for(phase);
  (is_reduce ? s.reduces : s.bcasts)->inc();
  s.bytes_total->inc(bytes);
}

void Telemetry::on_sweep(int rank, std::uint64_t examined, std::uint64_t computed) noexcept {
  // Pool threads hit distinct ranks only; the registry is not touched here.
  const auto r = static_cast<std::size_t>(rank);
  if (r >= sweep_examined_.size()) return;  // not attached
  sweep_examined_[r] += static_cast<double>(examined);
  sweep_computed_[r] += static_cast<double>(computed);
  sweep_calls_[r] += 1.0;
}

void Telemetry::on_compute(int rank, double seconds) {
  // Pool threads hit distinct ranks only; the registry is not touched here.
  rank_compute_[static_cast<std::size_t>(rank)] += seconds;
}

void Telemetry::on_host_phase(vmpi::Phase phase, double seconds) {
  // Serial orchestration thread only (primitives report after joins).
  host_phase_seconds_[static_cast<std::size_t>(phase)] += seconds;
}

}  // namespace canb::obs
