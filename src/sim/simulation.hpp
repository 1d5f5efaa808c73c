// High-level simulation facade: pick a decomposition method, a machine
// model, and a kernel; feed particles; step. This is the public entry point
// used by the examples; benches and tests drive the engines directly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "core/midpoint.hpp"
#include "core/spatial_halo.hpp"
#include "decomp/force_decomposition.hpp"
#include "decomp/partition.hpp"
#include "decomp/particle_decomposition.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/serve.hpp"
#include "obs/snapshot.hpp"
#include "obs/step_series.hpp"
#include "obs/telemetry.hpp"
#include "particles/init.hpp"
#include "particles/simd/simd.hpp"
#include "sim/report.hpp"
#include "support/assert.hpp"
#include "vmpi/gather.hpp"

namespace canb::sim {

enum class Method {
  CaAllPairs,         ///< Algorithm 1 (the paper's contribution)
  CaCutoff,           ///< Algorithm 2 / Section IV-C (1D or 2D from box.dims)
  ParticleRing,       ///< baseline: systolic particle decomposition
  ParticleAllGather,  ///< baseline: naive all-gather decomposition
  ForceDecomp,        ///< baseline: Plimpton force decomposition
  SpatialHalo,        ///< baseline: halo-exchange spatial decomposition (c=1)
  Midpoint,           ///< related work: the midpoint method (Section II-D)
};

const char* method_name(Method m) noexcept;

/// Whether `m` can run over a transport: only the CA engines carry the
/// residency gates that owner-computes needs.
constexpr bool runs_over_transport(Method m) noexcept {
  return m == Method::CaAllPairs || m == Method::CaCutoff;
}

/// The host sweep's backend choice: the default SIMD dispatch
/// (particles/simd/simd.hpp) is the only one. Kept, with tune_mode_name,
/// only because print_provenance (perfbench/src/main.cpp) reads
/// Config::tune; both go once perfbench takes its provenance from the run
/// manifest.
enum class TuneMode {
  Off,  ///< the SIMD dispatch as configured (CANB_SIMD or the widest supported)
};

inline const char* tune_mode_name(TuneMode) noexcept { return "off"; }

/// Splits q into the most square qx-by-qy factorization (qx <= qy).
std::pair<int, int> near_square_factors(int q);

template <particles::ForceKernel K>
class Simulation {
 public:
  using Policy = core::RealPolicy<K>;

  struct Config {
    Method method = Method::CaAllPairs;
    int p = 4;
    int c = 1;  ///< replication factor (CA methods only)
    machine::MachineModel machine;
    particles::Box box = particles::Box::reflective_2d(1.0);
    K kernel{};
    double cutoff = 0.0;  ///< required > 0 for Method::CaCutoff
    double dt = 1e-3;
    std::string integrator = "velocity-verlet";
    /// The host pool's one task discipline (support/parallel.hpp). A
    /// constant, not a setting; perfbench's provenance line reads it.
    static constexpr SchedMode sched = SchedMode::kLargestFirst;
    /// A constant, not a setting (see TuneMode); kept only because
    /// perfbench's print_provenance reads it.
    static constexpr TuneMode tune = TuneMode::Off;
    /// Fault/straggler injection (vmpi/fault.hpp). Disengaged by default;
    /// a config with all rates zero is attached but inert (bitwise-identical
    /// clocks, ledgers, and trajectories — tested).
    std::optional<vmpi::FaultConfig> fault;
    /// Observability level (obs/telemetry.hpp). Off by default; attaching
    /// telemetry never changes clocks, ledgers, or trajectories (tested).
    obs::ObsLevel obs = obs::ObsLevel::Off;
    /// A constant (each engine owns a pooled data plane); perfbench reads it.
    static constexpr bool pooled_data_plane = true;
    /// Real byte transport beneath the vmpi primitives (vmpi/transport.hpp).
    /// Null (the default) is the modeled arm: costs only, no fabric. When
    /// set, every message is serialized through the transport and receivers
    /// adopt the wire bytes — trajectories, ledgers, and traces stay
    /// bitwise identical to the modeled arm (tests/test_transport_parity).
    /// CA methods only: they carry the owner-computes residency gates. A
    /// transport spanning more than one group runs owner-computes: each
    /// process runs force sweeps, reassign splits, and data-plane copies
    /// only for its owned ranks, while the virtual cost plane stays fully
    /// replicated. Shared (not unique) so multi-endpoint harnesses can hold
    /// the endpoint while the Simulation uses it.
    std::shared_ptr<vmpi::Transport> transport;
    /// A constant, not a setting (see `transport`); kept because the
    /// repository benchmark reads it.
    static constexpr vmpi::ExecMode exec = vmpi::ExecMode::OwnerComputes;
    /// Live scrape endpoint (obs/serve.hpp): when >= 0, an HTTP server
    /// binds 127.0.0.1:<port> (0 = ephemeral) and serves /metrics,
    /// /healthz, /spans.csv, /trace.json refreshed every step. On a
    /// multi-group transport only group 0 serves (the mesh-merged view).
    /// Requires obs != Off.
    int serve_port = -1;
    /// Flight recorder (obs/step_series.hpp): per-step sample ring of this
    /// capacity; 0 disables. Requires obs != Off.
    int series_capacity = 0;
    /// A step whose HOST wall time exceeds this multiple of the rolling
    /// median is flagged as a straggler in the flight recorder.
    double straggler_factor = 3.0;
  };

  Simulation(Config cfg, particles::Block initial)
      : cfg_(std::move(cfg)),
        engine_(make_engine(cfg_, std::move(initial))) {
    set_integrator(cfg_.integrator);
    if (cfg_.fault) {
      fault_model_ = std::make_unique<vmpi::PerturbationModel>(*cfg_.fault, cfg_.p);
      comm().set_fault(fault_model_.get());
    }
    if (cfg_.transport) {
      CANB_REQUIRE(runs_over_transport(cfg_.method),
                   std::string("a transport carries only the CA methods (ca-all-pairs, "
                               "ca-cutoff), not ") +
                       method_name(cfg_.method));
      comm().set_transport(cfg_.transport.get());
      owner_computes_ = cfg_.transport->groups() > 1;
      if (owner_computes_) comm().set_owner_computes(true);
    }
    if (cfg_.obs != obs::ObsLevel::Off) {
      telemetry_ = std::make_unique<obs::Telemetry>(cfg_.obs);
      std::visit(
          [&](auto& e) {
            // CA engines take telemetry directly (span samples at phase
            // boundaries); baselines get the metrics-only observer hookup.
            if constexpr (requires { e.set_telemetry(telemetry_.get()); }) {
              e.set_telemetry(telemetry_.get());
            } else {
              telemetry_->attach(e.comm());
            }
          },
          engine_);
      // Record which SIMD backend the host sweeps dispatch to (canb_obs
      // does not link canb_particles, so the simulation reports it).
      telemetry_->set_sweep_backend(
          particles::simd::backend_name(particles::simd::active()));
    }
    CANB_REQUIRE(cfg_.serve_port < 0 || telemetry_ != nullptr,
                 "serve_port needs observability enabled (obs != Off)");
    CANB_REQUIRE(cfg_.series_capacity == 0 || telemetry_ != nullptr,
                 "series_capacity needs observability enabled (obs != Off)");

    // Provenance for every export this run produces. The CLI augments it
    // (workload, seeds, thread counts) before the first artifact is written.
    manifest_.machine = cfg_.machine.name;
    manifest_.simd = particles::simd::backend_name(particles::simd::max_supported());
    manifest_.set("method", method_name(cfg_.method));
    manifest_.set("p", cfg_.p);
    manifest_.set("c", cfg_.c);
    manifest_.set("dt", cfg_.dt);
    if (cfg_.cutoff > 0.0) manifest_.set("cutoff", cfg_.cutoff);
    manifest_.set("obs_level", obs::obs_level_name(cfg_.obs));
    if (cfg_.transport) {
      manifest_.set("transport", vmpi::transport_kind_name(cfg_.transport->kind()));
      manifest_.set("transport_groups", cfg_.transport->groups());
      manifest_.set("transport_exec", vmpi::exec_mode_name(exec_mode()));
    }

    if (telemetry_) {
      // Multi-group transport: label this process's series and stand up the
      // step-boundary snapshot push so group 0 can export mesh-wide totals.
      if (cfg_.transport && cfg_.transport->groups() > 1) {
        telemetry_->set_group(cfg_.transport->group());
        mesh_ = std::make_unique<obs::MeshAggregator>(cfg_.transport);
      }
      if (cfg_.series_capacity > 0) {
        series_ = std::make_unique<obs::StepSeries>(
            static_cast<std::size_t>(cfg_.series_capacity), cfg_.straggler_factor);
      }
      if (cfg_.serve_port >= 0 && (mesh_ == nullptr || mesh_->primary())) {
        server_ = std::make_unique<obs::MetricsServer>(cfg_.serve_port);
      }
    }
  }

  /// Throws PreconditionError when no engine can run `cfg`: builds the
  /// configured engine on an empty particle set, so the checks are the
  /// engine constructors' own. Lets a caller reject a configuration before
  /// it forks processes or generates particles.
  static void validate(const Config& cfg) { (void)make_engine(cfg, particles::Block{}); }

  void set_integrator(const std::string& name) {
    std::visit([&](auto& e) { e.set_integrator(particles::make_integrator(name)); }, engine_);
  }

  /// Attaches a host thread pool to engines that support parallel force
  /// loops (the CA engines); a no-op for the simple baselines. Keeps a
  /// reference so finalize_telemetry can publish the pool's stats.
  void set_host_pool(std::shared_ptr<ThreadPool> pool) {
    if (pool) pool_ = pool;
    std::visit(
        [&](auto& e) {
          if constexpr (requires { e.set_host_pool(pool); }) e.set_host_pool(std::move(pool));
        },
        engine_);
  }

  void step() {
    // The live plane reads pre-step baselines so the flight recorder can
    // attribute per-step deltas. All of it is observation: the engine step
    // itself is untouched, so runs stay bitwise identical plane-on/off.
    const bool live = telemetry_ && (server_ || series_ || mesh_);
    std::chrono::steady_clock::time_point wall0{};
    obs::StepSample sample;
    if (live) {
      wall0 = std::chrono::steady_clock::now();
      sample.clock_advance_seconds = max_virtual_clock();
      sample.pairs_examined = telemetry_->sweep_pairs_examined();
      sample.pairs_computed = telemetry_->sweep_pairs_computed();
      sample.host_phase_seconds = telemetry_->host_seconds();
    }

    std::visit([](auto& e) { e.step(); }, engine_);
    ++steps_;

    if (live) {
      publish_live();
      if (series_) {
        sample.step = steps_;
        sample.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
        sample.clock_advance_seconds = max_virtual_clock() - sample.clock_advance_seconds;
        sample.pairs_examined = telemetry_->sweep_pairs_examined() - sample.pairs_examined;
        sample.pairs_computed = telemetry_->sweep_pairs_computed() - sample.pairs_computed;
        sample.host_phase_seconds = telemetry_->host_seconds() - sample.host_phase_seconds;
        series_->record(sample);
      }
      // Symmetric mesh exchange: every group reaches this point once per
      // step (same config, same schedule), so the push/recv pair matches.
      if (mesh_) mesh_->exchange(telemetry_->metrics(), static_cast<std::uint64_t>(steps_));
      publish_server(false);
    }
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  int steps_taken() const noexcept { return steps_; }

  /// All particles, sorted by id (authoritative owner copies). Under
  /// owner-computes the copied team blocks are first all-gathered across
  /// the process groups (vmpi/gather.hpp) — every group assembles the full
  /// authoritative state, so the call must be made symmetrically on every
  /// group (same discipline as the mesh exchange). Engine state is never
  /// touched: the gather operates on the team_results() copies.
  particles::Block gather() const {
    auto blocks = std::visit([](const auto& e) { return e.team_results(); }, engine_);
    if (owner_computes_) {
      std::vector<int> leaders;
      std::visit(
          [&](const auto& e) {
            if constexpr (requires { e.grid(); }) {
              leaders.reserve(static_cast<std::size_t>(e.grid().cols()));
              for (int t = 0; t < e.grid().cols(); ++t) leaders.push_back(e.grid().leader(t));
            }
          },
          engine_);
      CANB_REQUIRE(leaders.size() == blocks.size(),
                   "owner-computes gather needs the engine's team-leader map");
      vmpi::all_gather_teams(*cfg_.transport, leaders, blocks);
    }
    auto all = decomp::concat(blocks);
    particles::sort_by_id(all);
    return all;
  }

  /// The execution mode in effect: OwnerComputes on a multi-group
  /// transport; Lockstep (one endpoint, every rank local) otherwise.
  vmpi::ExecMode exec_mode() const noexcept {
    return owner_computes_ ? vmpi::ExecMode::OwnerComputes : vmpi::ExecMode::Lockstep;
  }

  /// Ranks whose payloads (and physics) this process owns: p on a
  /// single-endpoint run, the group's share on a multi-group transport.
  int local_ranks() const {
    if (!cfg_.transport) return cfg_.p;
    int n = 0;
    for (int r = 0; r < cfg_.p; ++r)
      if (cfg_.transport->local(r)) ++n;
    return n;
  }

  const vmpi::VirtualComm& comm() const {
    return std::visit([](const auto& e) -> const vmpi::VirtualComm& { return e.comm(); },
                      engine_);
  }

  vmpi::VirtualComm& comm() {
    return std::visit([](auto& e) -> vmpi::VirtualComm& { return e.comm(); }, engine_);
  }

  /// The attached fault model, or nullptr when fault injection is off.
  const vmpi::PerturbationModel* fault_model() const noexcept { return fault_model_.get(); }

  /// The attached telemetry, or nullptr when observability is off.
  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const noexcept { return telemetry_.get(); }

  /// Folds per-rank telemetry accumulators into gauges and recovers the
  /// critical path from the span timeline (empty report below Full level).
  /// Call after the last step — on EVERY group of a multi-group transport
  /// (the final mesh exchange is symmetric); export the artifacts from
  /// group 0 only.
  obs::CriticalPathReport finalize_telemetry() {
    if (!telemetry_) return {};
    publish_live();
    telemetry_->finalize(comm());
    // Final push carries the registry with all finalize-time series, so
    // merged exports see each group's complete process-local state.
    if (mesh_) mesh_->exchange(telemetry_->metrics(), static_cast<std::uint64_t>(steps_));
    publish_server(true);
    return obs::analyze_critical_path(telemetry_->spans(), telemetry_->trace());
  }

  /// Marks the run failed: /healthz serves {"state":"failed","error":...}
  /// from now on. Call it when a step throws, before the Simulation
  /// unwinds, so a scraper learns why the run stopped. Local only (no mesh
  /// exchange), so any one group may call it.
  void publish_failure(const std::string& error) {
    failure_ = error;
    publish_server(false);
  }

  /// The registry every exporter should serialize: on a mesh primary, the
  /// local registry with each remote group's latest snapshot merged in;
  /// otherwise a copy of the local registry (empty when obs is Off).
  obs::MetricsRegistry merged_metrics() const {
    if (!telemetry_) return {};
    if (mesh_ && mesh_->primary()) return mesh_->merged(telemetry_->metrics());
    return telemetry_->metrics();
  }

  /// Largest rank virtual clock (the virtual makespan so far).
  double max_virtual_clock() const {
    const auto& vc = comm();
    double m = 0.0;
    for (int r = 0; r < vc.size(); ++r) m = std::max(m, vc.clock(r));
    return m;
  }

  /// Run provenance; mutable so the embedding CLI can add workload keys
  /// before the first export.
  obs::RunManifest& manifest() noexcept { return manifest_; }
  const obs::RunManifest& manifest() const noexcept { return manifest_; }

  /// The live scrape server, or nullptr (obs off / no serve port / not the
  /// mesh primary).
  obs::MetricsServer* server() noexcept { return server_.get(); }
  /// The flight recorder, or nullptr when series_capacity is 0.
  obs::StepSeries* step_series() noexcept { return series_.get(); }
  const obs::StepSeries* step_series() const noexcept { return series_.get(); }
  /// The mesh aggregator, or nullptr on single-endpoint runs.
  const obs::MeshAggregator* mesh() const noexcept { return mesh_.get(); }

  /// Per-step report over every step taken so far.
  RunReport report(std::string label = {}) const {
    return summarize(comm(), std::max(1, steps_),
                     label.empty() ? method_name(cfg_.method) : std::move(label), cfg_.c);
  }

  const Config& config() const noexcept { return cfg_; }

 private:
  using CaAllPairsT = core::CaAllPairs<Policy>;
  using CaCutoffT = core::CaCutoff<Policy>;
  using SpatialHaloT = core::SpatialHaloDecomposition<Policy>;
  using MidpointT = core::MidpointMethod<K>;
  using RingT = decomp::ParticleDecompositionRing<Policy>;
  using AllGatherT = decomp::ParticleDecompositionAllGather<Policy>;
  using ForceT = decomp::ForceDecomposition<Policy>;
  using EngineVariant =
      std::variant<CaAllPairsT, CaCutoffT, SpatialHaloT, MidpointT, RingT, AllGatherT, ForceT>;

  static EngineVariant make_engine(const Config& cfg, particles::Block initial) {
    cfg.box.validate();
    Policy policy(typename Policy::Config{cfg.box, cfg.kernel, cfg.cutoff, cfg.dt});
    switch (cfg.method) {
      case Method::CaAllPairs: {
        const int q = cfg.p / cfg.c;
        return EngineVariant(
            std::in_place_type<CaAllPairsT>,
            typename CaAllPairsT::Config{cfg.p, cfg.c, cfg.machine}, std::move(policy),
            decomp::split_even(initial, q));
      }
      case Method::CaCutoff: {
        CANB_REQUIRE(cfg.cutoff > 0.0, "Method::CaCutoff requires a positive cutoff");
        const int q = cfg.p / cfg.c;
        const bool periodic = cfg.box.boundary == particles::Boundary::Periodic;
        if (cfg.box.dims == 1) {
          const int m = core::window_radius_teams(cfg.cutoff, cfg.box.lx, q);
          return EngineVariant(
              std::in_place_type<CaCutoffT>,
              typename CaCutoffT::Config{cfg.p, cfg.c, cfg.machine,
                                         core::CutoffGeometry::make_1d(q, m), periodic},
              std::move(policy), decomp::split_spatial_1d(initial, cfg.box, q));
        }
        const auto [qx, qy] = near_square_factors(q);
        const int mx = core::window_radius_teams(cfg.cutoff, cfg.box.lx, qx);
        const int my = core::window_radius_teams(cfg.cutoff, cfg.box.ly, qy);
        return EngineVariant(
            std::in_place_type<CaCutoffT>,
            typename CaCutoffT::Config{cfg.p, cfg.c, cfg.machine,
                                       core::CutoffGeometry::make_2d(qx, qy, mx, my), periodic},
            std::move(policy), decomp::split_spatial_2d(initial, cfg.box, qx, qy));
      }
      case Method::SpatialHalo: {
        CANB_REQUIRE(cfg.cutoff > 0.0, "Method::SpatialHalo requires a positive cutoff");
        CANB_REQUIRE(cfg.c == 1, "the halo-exchange baseline does not replicate (c must be 1)");
        if (cfg.box.dims == 1) {
          const int m = core::window_radius_teams(cfg.cutoff, cfg.box.lx, cfg.p);
          return EngineVariant(
              std::in_place_type<SpatialHaloT>,
              typename SpatialHaloT::Config{cfg.p, cfg.machine,
                                            core::CutoffGeometry::make_1d(cfg.p, m),
                                            cfg.box.boundary == particles::Boundary::Periodic},
              std::move(policy), decomp::split_spatial_1d(initial, cfg.box, cfg.p));
        }
        const auto [qx, qy] = near_square_factors(cfg.p);
        const int mx = core::window_radius_teams(cfg.cutoff, cfg.box.lx, qx);
        const int my = core::window_radius_teams(cfg.cutoff, cfg.box.ly, qy);
        return EngineVariant(
            std::in_place_type<SpatialHaloT>,
            typename SpatialHaloT::Config{cfg.p, cfg.machine,
                                          core::CutoffGeometry::make_2d(qx, qy, mx, my),
                                          cfg.box.boundary == particles::Boundary::Periodic},
            std::move(policy), decomp::split_spatial_2d(initial, cfg.box, qx, qy));
      }
      case Method::Midpoint: {
        CANB_REQUIRE(cfg.cutoff > 0.0, "Method::Midpoint requires a positive cutoff");
        CANB_REQUIRE(cfg.c == 1, "the midpoint method does not replicate (c must be 1)");
        const bool periodic = cfg.box.boundary == particles::Boundary::Periodic;
        if (cfg.box.dims == 1) {
          const int m = core::window_radius_teams(cfg.cutoff, cfg.box.lx, cfg.p);
          return EngineVariant(
              std::in_place_type<MidpointT>,
              typename MidpointT::Config{cfg.p, cfg.machine,
                                         core::CutoffGeometry::make_1d(cfg.p, m), periodic},
              std::move(policy), decomp::split_spatial_1d(initial, cfg.box, cfg.p));
        }
        const auto [qx, qy] = near_square_factors(cfg.p);
        const int mx = core::window_radius_teams(cfg.cutoff, cfg.box.lx, qx);
        const int my = core::window_radius_teams(cfg.cutoff, cfg.box.ly, qy);
        return EngineVariant(
            std::in_place_type<MidpointT>,
            typename MidpointT::Config{cfg.p, cfg.machine,
                                       core::CutoffGeometry::make_2d(qx, qy, mx, my), periodic},
            std::move(policy), decomp::split_spatial_2d(initial, cfg.box, qx, qy));
      }
      case Method::ParticleRing:
        return EngineVariant(std::in_place_type<RingT>,
                             typename RingT::Config{cfg.p, cfg.machine}, std::move(policy),
                             decomp::split_even(initial, cfg.p));
      case Method::ParticleAllGather:
        return EngineVariant(std::in_place_type<AllGatherT>,
                             typename AllGatherT::Config{cfg.p, cfg.machine}, std::move(policy),
                             decomp::split_even(initial, cfg.p));
      case Method::ForceDecomp: {
        const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(cfg.p))));
        return EngineVariant(std::in_place_type<ForceT>,
                             typename ForceT::Config{cfg.p, cfg.machine}, std::move(policy),
                             decomp::split_even(initial, s));
      }
    }
    CANB_REQUIRE(false, "unknown simulation method");
    // Unreachable; silences the missing-return warning.
    throw PreconditionError("unreachable");
  }

  /// Spans/trace are heavier to copy than the metrics text, so the server
  /// re-publishes them every this-many steps (plus once at finalize).
  static constexpr int kServeSpanStride = 8;

  /// Pushes current scheduler/transport/host-phase state into the registry
  /// (all delta-based or idempotent, so per-step calls end at the same
  /// totals as one finalize-time call) and stamps the build-info gauge.
  void publish_live() {
    if (!telemetry_) return;
    if (pool_) {
      telemetry_->publish_scheduler(to_string(Config::sched), pool_->scheduler_stats());
    }
    if (cfg_.transport) {
      telemetry_->publish_transport(vmpi::transport_kind_name(cfg_.transport->kind()),
                                    cfg_.transport->stats());
      telemetry_->publish_execution(vmpi::exec_mode_name(exec_mode()), local_ranks());
    }
    telemetry_->publish_host_phases();
    if (!build_info_published_) {
      obs::publish_build_info(telemetry_->metrics(), manifest_);
      build_info_published_ = true;
    }
  }

  std::string healthz_json(bool finished) const {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    if (failure_) {
      w.kv("state", "failed");
      w.kv("error", *failure_);
    } else {
      w.kv("state", finished ? "finished" : "running");
    }
    w.kv("step", steps_);
    w.kv("phase", telemetry_ ? telemetry_->last_phase_label() : std::string());
    w.kv("method", method_name(cfg_.method));
    w.kv("p", cfg_.p);
    w.kv("groups", mesh_ ? mesh_->groups() : 1);
    w.kv("exec", vmpi::exec_mode_name(exec_mode()));
    w.kv("local_ranks", local_ranks());
    w.kv("max_virtual_clock_seconds", max_virtual_clock());
    w.end_object();
    return os.str();
  }

  /// Renders and swaps the scrape content. Cheap parts (metrics text,
  /// healthz) refresh every call; span/trace copies only on the stride.
  void publish_server(bool finished) {
    if (!server_) return;
    obs::LiveContent content;
    content.prometheus = obs::to_prometheus(merged_metrics());
    content.healthz = healthz_json(finished);
    if (telemetry_->spans_enabled() && !telemetry_->spans().empty() &&
        (finished || steps_ % kServeSpanStride == 0)) {
      content.spans = std::make_shared<obs::SpanTimeline>(telemetry_->spans());
      if (telemetry_->trace() != nullptr) {
        content.trace = std::make_shared<vmpi::TraceRecorder>(*telemetry_->trace());
      }
    }
    server_->publish(std::move(content));
  }

  Config cfg_;
  EngineVariant engine_;
  /// Owned here (heap) so the pointer held by the engine's VirtualComm
  /// stays valid if the Simulation object itself is moved.
  std::unique_ptr<vmpi::PerturbationModel> fault_model_;
  /// Heap-owned for the same move-stability reason as the fault model.
  std::unique_ptr<obs::Telemetry> telemetry_;
  /// The attached host pool (null until set_host_pool): kept so
  /// finalize_telemetry can publish the scheduler's counters.
  std::shared_ptr<ThreadPool> pool_;
  int steps_ = 0;
  obs::RunManifest manifest_;
  std::unique_ptr<obs::MeshAggregator> mesh_;
  std::unique_ptr<obs::StepSeries> series_;
  bool build_info_published_ = false;
  /// Whether owner-computes is active (a multi-group transport); see
  /// exec_mode().
  bool owner_computes_ = false;
  /// Set by publish_failure: the error /healthz reports.
  std::optional<std::string> failure_;
  /// Declared last: the serving thread reads only content it was handed,
  /// but tearing it down first on destruction keeps the shutdown ordering
  /// obvious (no scrape can race the engine's teardown).
  std::unique_ptr<obs::MetricsServer> server_;
};

}  // namespace canb::sim
