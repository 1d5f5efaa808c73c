// End-to-end step throughput bench: host steps/sec through the Simulation
// facade for the configurations the figure drivers actually exercise —
// cutoff + cell-window schedules, plus an all-pairs case for context. This
// measures HOST wall time of the whole timestep (broadcast/skew/shift
// staging, force sweeps, reduce, integrate, re-assign); the virtual-time
// ledger is layout-invariant by construction and is *not* what this bench
// reports.
//
//   ./bench/step_bench --out=BENCH_step.json --min-ms=400 --repeats=3
//
// Built with the library's own flags (not the -O3 bench flags): the
// Simulation and its sweeps are header templates instantiated here, so the
// recorded numbers are the step as users build it. The manifest records the
// host's core count and CPU model. Emitted JSON records steps/sec per
// (method, n, p, c, threads) so the perf trajectory of the host data path
// is a file in the repo, not a claim from memory.
//
// --series-out=FILE additionally runs the headline case once more with the
// per-step flight recorder attached (obs/step_series.hpp) and writes its
// JSON — a per-step wall/pairs profile of the bench workload. This
// instrumented pass is separate from the timed windows above, so attaching
// the recorder cannot perturb the recorded steps/sec.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "machine/presets.hpp"
#include "obs/export.hpp"
#include "obs/step_series.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"

namespace {

using namespace canb;

volatile double g_sink = 0.0;  ///< defeats dead-code elimination across runs

struct Case {
  sim::Method method = sim::Method::CaCutoff;
  int n = 4096;
  int p = 64;
  int c = 2;
  double cutoff = 0.1;
  int threads = 1;
  /// Initial particle distribution: "uniform", "plummer" (dense core),
  /// or "ring" (annulus). Clustered inputs skew the per-rank interaction
  /// histogram, which the pool's largest-first claims balance.
  std::string dist = "uniform";
};

struct Result {
  Case cfg;
  double steps_per_sec = 0.0;
};

/// Builds a fresh Simulation for the case (identical initial state every
/// time: the workload seed is fixed).
sim::Simulation<particles::InverseSquareRepulsion> make_sim(
    const Case& cs, int series_capacity = 0,
    std::shared_ptr<vmpi::Transport> transport = nullptr) {
  sim::Simulation<particles::InverseSquareRepulsion>::Config cfg;
  cfg.method = cs.method;
  cfg.p = cs.p;
  cfg.c = cs.c;
  cfg.machine = machine::hopper();
  cfg.kernel = particles::InverseSquareRepulsion{1e-4, 1e-2};
  cfg.cutoff = cs.cutoff;
  cfg.dt = 1e-4;
  cfg.transport = std::move(transport);
  if (series_capacity > 0) {
    cfg.obs = obs::ObsLevel::Metrics;
    cfg.series_capacity = series_capacity;
  }
  if (cs.dist == "plummer")
    return {cfg, particles::init_plummer(cs.n, cfg.box, 0.1, 2013, 0.01)};
  if (cs.dist == "ring")
    return {cfg, particles::init_ring(cs.n, cfg.box, 0.35, 0.05, 2013, 0.01)};
  return {cfg, particles::init_uniform(cs.n, cfg.box, 2013, 0.01)};
}

/// The flight-recorder pass: one fresh run of `cs` with the step series
/// attached, written as flight-recorder JSON. Separate from the timed
/// windows so instrumentation cannot perturb the steps/sec numbers.
void record_series(const Case& cs, const std::string& path, int steps) {
  auto simulation = make_sim(cs, steps);
  if (cs.threads > 1) simulation.set_host_pool(std::make_shared<ThreadPool>(cs.threads));
  simulation.run(steps);
  simulation.finalize_telemetry();
  simulation.manifest()
      .set("bench", "step_throughput")
      .set("n", cs.n)
      .set("steps", steps)
      .set("dist", cs.dist)
      .set("threads", cs.threads);
  std::ofstream out(path);
  CANB_REQUIRE(out.good(), "cannot open --series-out file: " + path);
  obs::write_step_series(out, *simulation.step_series(), simulation.manifest());
  g_sink = g_sink + simulation.gather()[0].px;
}

/// Best steps/sec over `repeats` timed windows of at least `min_ms` each
/// (after a warmup step that faults pages and primes scratch buffers).
double measure_steps_per_sec(const Case& cs, double min_ms, int repeats) {
  auto simulation = make_sim(cs);
  if (cs.threads > 1) simulation.set_host_pool(std::make_shared<ThreadPool>(cs.threads));
  simulation.step();  // warmup
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    long steps = 0;
    double elapsed = 0.0;
    do {
      simulation.step();
      ++steps;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed * 1e3 < min_ms);
    best = std::max(best, static_cast<double>(steps) / elapsed);
  }
  g_sink = g_sink + simulation.gather()[0].px;
  return best;
}

struct SocketResult {
  Case cfg;
  int groups = 0;
  int steps = 0;
  double steps_per_sec = 0.0;
};

/// The socket arm: forks `groups` OS processes over a Unix-socket mesh
/// (owner-computes: each process sweeps only the ranks its group owns) and
/// times `steps` fixed steps on the primary, barrier-aligned on both ends
/// so the window covers the whole mesh's work. MUST run before any
/// ThreadPool exists — fork precedes threads — which is why main() does
/// the socket cases first, single-threaded. Children exit here; only the
/// primary returns.
double measure_socket_steps_per_sec(const Case& cs, int groups, int steps) {
  const std::string dir = vmpi::make_rendezvous_dir();
  vmpi::ProcessGroup pg(groups);
  double sps = 0.0;
  {
    vmpi::SocketConfig sc;
    sc.ranks = cs.p;
    sc.groups = groups;
    sc.group = pg.group();
    sc.dir = dir;
    auto transport = std::make_shared<vmpi::SocketTransport>(sc);
    auto simulation = make_sim(cs, 0, transport);
    simulation.step();  // warmup: faults pages, primes scratch + mailboxes
    transport->barrier();
    const auto start = std::chrono::steady_clock::now();
    simulation.run(steps);
    transport->barrier();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    sps = static_cast<double>(steps) / elapsed;
    // gather() is symmetric under owner-computes: every group participates.
    g_sink = g_sink + simulation.gather()[0].px;
    // Scope exit drops the endpoint (flush + close-barrier) with every
    // process still alive.
  }
  if (!pg.primary()) std::_Exit(0);
  CANB_REQUIRE(pg.wait_children() == 0, "a forked bench group failed");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return sps;
}

void write_json(const std::string& path, const std::vector<Result>& rs,
                const std::vector<SocketResult>& socket_rs, double min_ms, int repeats) {
  obs::RunManifest manifest;
  manifest.machine = "host";
  manifest.simd = particles::simd::backend_name(particles::simd::max_supported());
  manifest
      .set("note",
           "host wall time per full timestep via sim::Simulation, built with the library's "
           "own flags; virtual-time ledgers are layout-invariant")
      .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .set("cpu_model", obs::host_cpu_model())
      .set("simd_active", particles::simd::backend_name(particles::simd::active()))
      .set("virtual_machine", "hopper")
      .set("min_ms", min_ms)
      .set("repeats", repeats);
  obs::BenchJsonWriter out(path, "step_throughput", "steps_per_sec", manifest);
  for (const auto& r : rs) {
    out.row([&](obs::JsonWriter& w) {
      w.kv("method", sim::method_name(r.cfg.method))
          .kv("n", r.cfg.n)
          .kv("p", r.cfg.p)
          .kv("c", r.cfg.c)
          .kv("cutoff", r.cfg.cutoff)
          .kv("threads", r.cfg.threads)
          .kv("dist", r.cfg.dist)
          .kv("steps_per_sec", r.steps_per_sec);
    });
  }
  // Socket-mesh rows: owner-computes wall clock per group count.
  for (const auto& r : socket_rs) {
    out.row([&](obs::JsonWriter& w) {
      w.kv("method", sim::method_name(r.cfg.method))
          .kv("n", r.cfg.n)
          .kv("p", r.cfg.p)
          .kv("c", r.cfg.c)
          .kv("cutoff", r.cfg.cutoff)
          .kv("threads", r.cfg.threads)
          .kv("transport", "socket")
          .kv("groups", r.groups)
          .kv("steps", r.steps)
          .kv("steps_per_sec", r.steps_per_sec);
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"out", "min-ms", "repeats", "series-out", "series-steps", "socket-steps"});
  const std::string out_path = args.get("out", "BENCH_step.json");
  const double min_ms = args.get_double("min-ms", 400.0);
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const std::string series_out = args.get("series-out", "");
  const int series_steps = static_cast<int>(args.get_int("series-steps", 64));
  const int socket_steps = static_cast<int>(args.get_int("socket-steps", 24));

  // Socket-mesh arm FIRST: ProcessGroup forks, and fork must precede any
  // thread this process ever spawns (ThreadPool workers, transport
  // readers are joined before each case ends). --socket-steps=0 skips the
  // arm.
  std::vector<SocketResult> socket_results;
  if (socket_steps > 0) {
    const Case socket_case{sim::Method::CaCutoff, 4096, 64, 2, 0.1, 1};
    for (const int groups : {2, 4}) {
      SocketResult r{socket_case, groups, socket_steps,
                     measure_socket_steps_per_sec(socket_case, groups, socket_steps)};
      socket_results.push_back(r);
      std::printf("socket g=%d %.2f steps/s\n", groups, r.steps_per_sec);
    }
  }

  std::vector<Case> cases;
  // The headline configuration: cutoff schedule, ~128 particles per team —
  // the small-block regime the paper's weak-scaling figures run in.
  cases.push_back({sim::Method::CaCutoff, 4096, 64, 2, 0.1, 1});
  // Smaller blocks (~32/team): per-sweep overheads weigh most.
  cases.push_back({sim::Method::CaCutoff, 2048, 128, 2, 0.12, 1});
  // All-pairs for context (larger blocks, sweep-dominated).
  cases.push_back({sim::Method::CaAllPairs, 2048, 16, 2, 0.0, 1});
  // Threaded cutoff: the configuration the examples/figure sweeps use.
  cases.push_back({sim::Method::CaCutoff, 4096, 64, 2, 0.1, 4});
  // Broadcast/reduce-dominated: deep replication (c=8 -> 7 replica copies
  // per team per step) over small blocks, where the per-step host time is
  // mostly data movement, not force arithmetic.
  for (const int n : {128, 512}) cases.push_back({sim::Method::CaAllPairs, n, 64, 8, 0.0, 1});
  // Clustered arm: Plummer core / ring annulus over the cutoff schedule.
  // Clustered inputs make per-rank interaction counts wildly non-uniform,
  // so these rows measure how well the pool balances skewed task lists.
  for (const std::string& dist : {std::string("plummer"), std::string("ring")}) {
    for (const int threads : {4, 8})
      cases.push_back({sim::Method::CaCutoff, 4096, 64, 2, 0.1, threads, dist});
  }

  std::vector<Result> results;
  std::cout << "method        n      p    c  thr  dist     steps/s\n";
  for (const auto& cs : cases) {
    Result r{cs, measure_steps_per_sec(cs, min_ms, repeats)};
    results.push_back(r);
    std::printf("%-13s %-6d %-4d %-2d %-4d %-8s %.2f\n", sim::method_name(cs.method), cs.n,
                cs.p, cs.c, cs.threads, cs.dist.c_str(), r.steps_per_sec);
  }
  write_json(out_path, results, socket_results, min_ms, repeats);
  std::cout << "wrote " << out_path << "\n";

  if (!series_out.empty()) {
    // Flight-record the headline case (first in `cases`) after the timed
    // windows are done and written.
    record_series(cases.front(), series_out, series_steps);
    std::cout << "wrote " << series_out << " (" << series_steps << "-step flight record)\n";
  }
  return 0;
}
