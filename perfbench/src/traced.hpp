// Outside-in layer trace for the benchmark.
//
// Nothing here changes the library. The traced pass runs the library's own
// engines, core::CaCutoff and core::CaAllPairs, wired the way
// sim::Simulation wires them, and observes them through the hooks they
// already offer:
//
//   sweep    TracedPolicy::interact: the engines are instantiated with a
//            core::RealPolicy<K> subclass that times each call
//            (-> particles::interact_blocks)
//   integ.   TracedPolicy::pre_force / post_force
//   vmpi     broadcast_teams, stage_buffers and the skew, permute_buffers /
//            shift_rows and reduce_teams, through the host-phase timer each
//            of them reports to an attached vmpi::CommObserver
//   core     reassign_spatial, through the same timer (Phase::Reassign)
//   mesh     a vmpi::Transport decorator (send / recv / barrier)
//
// ThreadPool::parallel_tasks cannot be observed from outside the library;
// main.cpp bounds each pooled round by the sweeps its workers ran.
//
// The traced engine must reproduce sim::Simulation's gathered final state
// bitwise for the same inputs; main.cpp checks that, which is what proves
// the spans timed the same work the library does.
//
// Spans live in per-thread buffers in memory and are analysed (and
// optionally written) after the pass. Spans of one thread nest or are
// disjoint, so main.cpp recovers each span's parent from the intervals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "particles/integrator.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "support/wire.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/gather.hpp"
#include "vmpi/observer.hpp"
#include "vmpi/transport.hpp"
#include "vmpi/virtual_comm.hpp"

namespace perfbench {

using namespace canb;

enum class Layer : std::uint8_t {
  Step,
  Broadcast,
  Skew,
  Shift,
  Reduce,
  Reassign,
  OtherPhase,
  Sweep,
  Tasks,
  Integrate,
  Send,
  Recv,
  Barrier,
};
inline constexpr int kLayers = 13;

inline const char* layer_name(Layer l) {
  static constexpr const char* kNames[kLayers] = {
      "sim.step",            "vmpi.broadcast_teams", "vmpi.skew",
      "vmpi.shift",          "vmpi.reduce_teams",    "core.reassign_spatial",
      "vmpi.other_phase",    "particles.interact",   "support.parallel_tasks",
      "particles.integrate", "transport.send",       "transport.recv",
      "transport.barrier"};
  return kNames[static_cast<int>(l)];
}

struct Span {
  Layer layer;
  int step;
  double t0;
  double t1;
};

/// Pair counts and seconds of the traced sweeps.
struct SweepCounts {
  std::uint64_t examined = 0;
  std::uint64_t computed = 0;
  double seconds = 0.0;  ///< summed over all threads
};

/// Per-thread span buffers. Thread 0 is the thread that constructs the
/// Tracer and steps the engine; pool workers get the next indices.
class Tracer {
 public:
  static constexpr int kMaxThreads = 64;

  Tracer() : bufs_(kMaxThreads), counts_(kMaxThreads) {
    CANB_REQUIRE(thread_index() == 0, "the Tracer must be built on the thread that steps");
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled = false;

  static double now() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Stable per-thread index, assigned on first use.
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  void set_step(int s) noexcept { step_ = s; }

  void record(Layer l, double t0, double t1) {
    const int w = thread_index();
    if (enabled && w < kMaxThreads) bufs_[static_cast<std::size_t>(w)].push_back({l, step_, t0, t1});
  }

  void record_sweep(double t0, double t1, const core::InteractStats& stats) {
    const int w = thread_index();
    if (!enabled || w >= kMaxThreads) return;
    bufs_[static_cast<std::size_t>(w)].push_back({Layer::Sweep, step_, t0, t1});
    auto& c = counts_[static_cast<std::size_t>(w)];
    c.examined += stats.examined;
    c.computed += stats.computed;
    c.seconds += t1 - t0;
  }

  const std::vector<std::vector<Span>>& buffers() const noexcept { return bufs_; }

  SweepCounts sweep_counts() const {
    SweepCounts s;
    for (const auto& c : counts_) {
      s.examined += c.examined;
      s.computed += c.computed;
      s.seconds += c.seconds;
    }
    return s;
  }

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer* t, Layer l) : t_(t), l_(l), t0_(now()) {}
    ~Scope() { t_->record(l_, t0_, now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    Layer l_;
    double t0_;
  };

 private:
  std::vector<std::vector<Span>> bufs_;
  std::vector<SweepCounts> counts_;
  int step_ = 0;
};

/// The vmpi layers' host time: every primitive and reassign_spatial report
/// their data-movement seconds to the comm's observer when they finish. The
/// other hooks carry virtual time and are ignored here.
class PhaseSpans final : public vmpi::CommObserver {
 public:
  explicit PhaseSpans(Tracer* tracer) : tracer_(tracer) {}

  void on_p2p(vmpi::Phase, int, int, std::uint64_t, double, double, std::uint64_t,
              std::uint64_t) override {}
  void on_collective(vmpi::Phase, bool, int, std::uint64_t, double) override {}
  void on_compute(int, double) override {}
  void on_host_phase(vmpi::Phase phase, double seconds) override {
    const double t1 = Tracer::now();
    tracer_->record(layer_of(phase), t1 - seconds, t1);
  }

 private:
  static Layer layer_of(vmpi::Phase p) {
    switch (p) {
      case vmpi::Phase::Broadcast: return Layer::Broadcast;
      case vmpi::Phase::Skew: return Layer::Skew;
      case vmpi::Phase::Shift: return Layer::Shift;
      case vmpi::Phase::Reduce: return Layer::Reduce;
      case vmpi::Phase::Reassign: return Layer::Reassign;
      default: return Layer::OtherPhase;
    }
  }

  Tracer* tracer_;
};

/// Transport decorator: forwards every call to the wrapped endpoint and
/// records a span and a frame count per call.
class TracedTransport final : public vmpi::Transport {
 public:
  TracedTransport(std::shared_ptr<vmpi::Transport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  vmpi::TransportKind kind() const noexcept override { return inner_->kind(); }
  int ranks() const noexcept override { return inner_->ranks(); }
  bool local(int rank) const noexcept override { return inner_->local(rank); }
  int groups() const noexcept override { return inner_->groups(); }
  int group() const noexcept override { return inner_->group(); }
  int owner_group(int rank) const noexcept override { return inner_->owner_group(rank); }

  void send(int src, int dst, std::uint64_t tag, std::span<const std::byte> payload) override {
    Tracer::Scope s(tracer_, Layer::Send);
    inner_->send(src, dst, tag, payload);
    if (tracer_->enabled) {
      ++frames;
      bytes += payload.size();
      if (inner_->local(dst)) ++local_frames;
    }
  }
  void recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) override {
    Tracer::Scope s(tracer_, Layer::Recv);
    inner_->recv(src, dst, tag, out);
  }
  void barrier() override {
    Tracer::Scope s(tracer_, Layer::Barrier);
    inner_->barrier();
  }
  vmpi::TransportStats stats() const override { return inner_->stats(); }

  std::uint64_t frames = 0;        ///< frames sent while tracing
  std::uint64_t bytes = 0;         ///< payload bytes sent while tracing
  std::uint64_t local_frames = 0;  ///< of those, frames to a rank in this process

 private:
  std::shared_ptr<vmpi::Transport> inner_;
  Tracer* tracer_;
};

/// The library's RealPolicy with each sweep and half-kick timed. The engines
/// are templates over their policy, so they call these in place of the base.
template <particles::ForceKernel K>
class TracedPolicy : public core::RealPolicy<K> {
 public:
  using Base = core::RealPolicy<K>;
  using Buffer = typename Base::Buffer;

  TracedPolicy(typename Base::Config cfg, Tracer* tracer)
      : Base(std::move(cfg)), tracer_(tracer) {}

  core::InteractStats interact(Buffer& resident, const Buffer& visitor, bool same_block) const {
    const double t0 = Tracer::now();
    const auto stats = Base::interact(resident, visitor, same_block);
    tracer_->record_sweep(t0, Tracer::now(), stats);
    return stats;
  }
  void pre_force(const particles::Integrator& integ, Buffer& b) const {
    Tracer::Scope s(tracer_, Layer::Integrate);
    Base::pre_force(integ, b);
  }
  void post_force(const particles::Integrator& integ, Buffer& b) const {
    Tracer::Scope s(tracer_, Layer::Integrate);
    Base::post_force(integ, b);
  }

 private:
  Tracer* tracer_;
};

// Library defaults read off sim::Simulation's Config. Each knob is read only
// if it still exists, so deleting a knob from the library leaves the
// benchmark building (and running whatever the library then does).

template <class Cfg>
bool pooled_plane(const Cfg& c) {
  if constexpr (requires { c.pooled_data_plane; }) {
    return c.pooled_data_plane;
  } else {
    return true;
  }
}

template <class Cfg>
bool owner_computes(const Cfg& c, const vmpi::Transport* t) {
  if (t == nullptr || t->groups() <= 1) return false;
  if constexpr (requires { c.exec; }) {
    return c.exec == vmpi::ExecMode::OwnerComputes;
  } else {
    return true;
  }
}

template <class Cfg>
void install_sched(const Cfg& c, ThreadPool& pool) {
  if constexpr (requires { c.sched; }) pool.set_sched_mode(c.sched);
  if constexpr (requires { c.steal_grain; }) pool.set_steal_grain(c.steal_grain);
}

template <particles::ForceKernel K, class Cfg>
typename core::RealPolicy<K>::Config policy_config(const Cfg& c) {
  typename core::RealPolicy<K>::Config pc{};
  pc.box = c.box;
  pc.kernel = c.kernel;
  pc.cutoff = c.cutoff;
  pc.dt = c.dt;
  if constexpr (requires { pc.engine = c.engine; }) pc.engine = c.engine;
  if constexpr (requires { pc.tuning = c.sweep; }) pc.tuning = c.sweep;
  return pc;
}

/// core::CaCutoff or core::CaAllPairs over TracedPolicy, built and wired the
/// way sim::Simulation builds its engine: integrator, data plane, transport,
/// owner-computes, host pool and scheduler. Pass the Simulation's effective
/// config() so anything it tuned at construction is used here too.
template <particles::ForceKernel K>
class TracedSim {
 public:
  using SimConfig = typename sim::Simulation<K>::Config;
  using Policy = TracedPolicy<K>;
  using Buffer = typename Policy::Buffer;

  TracedSim(const SimConfig& cfg, const particles::Block& initial,
            std::shared_ptr<vmpi::Transport> transport, std::shared_ptr<ThreadPool> pool,
            Tracer* tracer)
      : engine_(make_engine(cfg, initial, tracer)),
        transport_(std::move(transport)),
        observer_(tracer),
        tracer_(tracer) {
    std::visit(
        [&](auto& e) {
          e.set_integrator(particles::make_integrator(cfg.integrator));
          e.set_data_plane(pooled_plane(cfg) ? std::make_shared<vmpi::DataPlane<Buffer>>()
                                             : nullptr);
          if (transport_) {
            e.comm().set_transport(transport_.get());
            owner_ = owner_computes(cfg, transport_.get());
            if (owner_) e.comm().set_owner_computes(true);
          }
          if (pool) {
            install_sched(cfg, *pool);
            e.set_host_pool(std::move(pool));
          }
          e.comm().set_observer(&observer_);
        },
        engine_);
  }
  TracedSim(const TracedSim&) = delete;
  TracedSim& operator=(const TracedSim&) = delete;

  void step() {
    Tracer::Scope s(tracer_, Layer::Step);
    std::visit([](auto& e) { e.step(); }, engine_);
  }

  /// Leader blocks in team order; under owner-computes the non-owned ones
  /// are phantoms unless all-gathered over `via`.
  std::vector<Buffer> team_blocks(vmpi::Transport* via = nullptr) const {
    return std::visit(
        [&](const auto& e) {
          auto blocks = e.team_results();
          if (owner_ && via != nullptr) {
            std::vector<int> leaders;
            for (int t = 0; t < e.grid().cols(); ++t) leaders.push_back(e.grid().leader(t));
            vmpi::all_gather_teams(*via, leaders, blocks);
          }
          return blocks;
        },
        engine_);
  }

  /// All particles sorted by id, as sim::Simulation::gather() assembles them.
  particles::Block gather(vmpi::Transport* via) const {
    auto all = decomp::concat(team_blocks(via));
    particles::sort_by_id(all);
    return all;
  }

  const vmpi::VirtualComm& comm() const {
    return std::visit([](const auto& e) -> const vmpi::VirtualComm& { return e.comm(); },
                      engine_);
  }

 private:
  using Cutoff = core::CaCutoff<Policy>;
  using AllPairs = core::CaAllPairs<Policy>;
  using Engine = std::variant<Cutoff, AllPairs>;

  /// The two CA cases of sim::Simulation's engine factory.
  static Engine make_engine(const SimConfig& cfg, const particles::Block& initial,
                            Tracer* tracer) {
    cfg.box.validate();
    Policy policy(policy_config<K>(cfg), tracer);
    const int q = cfg.p / cfg.c;
    if (cfg.method == sim::Method::CaAllPairs) {
      return Engine(std::in_place_type<AllPairs>,
                    typename AllPairs::Config{cfg.p, cfg.c, cfg.machine}, std::move(policy),
                    decomp::split_even(initial, q));
    }
    CANB_REQUIRE(cfg.method == sim::Method::CaCutoff && cfg.box.dims == 2,
                 "the traced pass covers ca-all-pairs and 2D ca-cutoff");
    const auto [qx, qy] = sim::near_square_factors(q);
    const auto geom = core::CutoffGeometry::make_2d(
        qx, qy, core::window_radius_teams(cfg.cutoff, cfg.box.lx, qx),
        core::window_radius_teams(cfg.cutoff, cfg.box.ly, qy));
    return Engine(std::in_place_type<Cutoff>,
                  typename Cutoff::Config{cfg.p, cfg.c, cfg.machine, geom,
                                          cfg.box.boundary == particles::Boundary::Periodic},
                  std::move(policy), decomp::split_spatial_2d(initial, cfg.box, qx, qy));
  }

  Engine engine_;
  std::shared_ptr<vmpi::Transport> transport_;
  PhaseSpans observer_;
  Tracer* tracer_;
  bool owner_ = false;
};

}  // namespace perfbench
