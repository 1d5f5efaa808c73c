// The general-purpose runner: every method, machine, workload, and output
// format behind one command line — the tool a downstream user scripts.
//
//   ./examples/run_simulation --method=ca-all-pairs --machine=laptop
//       --n=512 --p=64 --c=4 --steps=100 --workload=uniform
//       --xyz=traj.xyz --checkpoint=state.canb --report
//   (one line; wrapped here for readability)
//
//   --method      ca-all-pairs | ca-cutoff | spatial-halo | midpoint | particle-ring |
//                 particle-allgather | force-decomp
//   --machine     laptop | hopper | intrepid | intrepid-tree
//   --workload    uniform | lattice | clusters | gradient | two-stream |
//                 plummer | ring
//   --cutoff      cutoff radius (required by the cutoff methods)
//   --restart     resume from a checkpoint written by --checkpoint
//   --threads     host threads for the force loops (ca methods), at most
//                 512; 0 = auto-detect (std::thread::hardware_concurrency).
//                 The pool claims each step's per-rank tasks largest
//                 first (support/parallel.hpp); outputs are bitwise
//                 identical at every thread count
//
// Real transport (docs/TRANSPORT.md). The modeled default moves bytes
// in-process and only charges the virtual clock; socket runs the same
// schedule over Unix-domain sockets between OS processes, owner-computes:
// each process runs force sweeps and reassign splits only for the ranks
// its group owns and gathers full state over the wire at snapshot points.
// Trajectories, ledgers, and traces stay bitwise identical to the modeled
// arm. Only the CA methods (ca-all-pairs, ca-cutoff) run on a socket mesh.
//   --transport        modeled | socket (default modeled)
//   --transport-groups socket: number of OS processes (forked here unless
//                      --transport-group names this process's group)
//   --transport-group  socket: this process's group index, for externally
//                      launched groups (requires --transport-dir)
//   --transport-dir    socket: shared rendezvous directory (default: a
//                      fresh private temp dir when forking)
// With --transport=socket only the group-0 process prints and writes
// output files; the other groups compute, feed the fabric, and exit. A
// crashed group fails the whole run with that group's exit status; a
// process that loses a peer mid-run prints one line naming the lost group
// and flow and exits 1.
//
// Fault injection (deterministic; see vmpi/fault.hpp and docs/TESTING.md).
// Passing any of these attaches a PerturbationModel to the virtual machine;
// all-zero rates leave the run bitwise identical to no model at all:
//   --fault-seed    seed for the per-rank fault streams (default 2013)
//   --straggler     per-compute-charge straggler probability
//   --jitter        lognormal sigma on every compute charge
//   --drop-rate     per-attempt message drop probability (retries charged)
//   --link-degrade  fraction of directed links degraded (4x slower)
//
// Observability (docs/OBSERVABILITY.md). Attaching telemetry never changes
// clocks, ledgers, or trajectories:
//   --obs-level     off | metrics | full (defaults to off; implied by the
//                   output flags below: metrics-out => metrics, trace-out
//                   or spans-csv => full)
//   --metrics-out   write metrics JSON here, plus Prometheus text next to
//                   it (same path with a .prom extension)
//   --trace-out     write a Chrome trace-event JSON (chrome://tracing,
//                   Perfetto) of the per-rank span timeline
//   --spans-csv     write the per-(sample, rank) clock time series as CSV
// At full level the run also prints the recovered critical path and the
// report table grows cp-rank / cp(s) / slack(s) columns.
//
// Live observability plane (implies --obs-level=metrics when unset):
//   --serve         serve /metrics /healthz /spans.csv /trace.json over
//                   HTTP on 127.0.0.1:<port> during the run (bare --serve
//                   = port 0 = pick an ephemeral port; URL is printed).
//                   Under --transport=socket the group-0 process serves
//                   the mesh-merged view covering every process.
//   --serve-linger  keep serving this many seconds after the run finishes
//                   (for scripted scrapes; default 0), or after a step
//                   fails, when /healthz reports {"state":"failed",...}
//   --series-out    write the per-step flight recorder JSON here
//   --series-capacity  flight recorder ring size (default 1024)
//   --straggler-factor a step slower than this multiple of the rolling
//                   median wall time is flagged and dumped immediately to
//                   <series-out>.straggler-step<K>.json (default 3.0)
//
//   --help          print the option list and exit 0
// A usage error (unknown option, bad value, a configuration no engine can
// run such as c not dividing p, an output or --transport-dir in a missing
// directory, or a --restart checkpoint that fails its checks) prints one
// line naming the problem plus the option list and exits 2. Any other
// failure during the run prints one line and exits 1.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.hpp"
#include "obs/export.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "sim/trajectory.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"

namespace {

using namespace canb;

sim::Method parse_method(const std::string& name) {
  if (name == "ca-all-pairs") return sim::Method::CaAllPairs;
  if (name == "ca-cutoff") return sim::Method::CaCutoff;
  if (name == "spatial-halo") return sim::Method::SpatialHalo;
  if (name == "midpoint") return sim::Method::Midpoint;
  if (name == "particle-ring") return sim::Method::ParticleRing;
  if (name == "particle-allgather") return sim::Method::ParticleAllGather;
  if (name == "force-decomp") return sim::Method::ForceDecomp;
  CANB_REQUIRE(false, "unknown --method: " + name);
  return sim::Method::CaAllPairs;
}

machine::MachineModel parse_machine(const std::string& name) {
  if (name == "laptop") return machine::laptop();
  if (name == "hopper") return machine::hopper();
  if (name == "intrepid") return machine::intrepid();
  if (name == "intrepid-tree") return machine::intrepid(true);
  CANB_REQUIRE(false, "unknown --machine: " + name);
  return machine::laptop();
}

particles::Block make_workload(const std::string& name, int n, const particles::Box& box,
                               std::uint64_t seed) {
  if (name == "uniform") return particles::init_uniform(n, box, seed, 0.02);
  if (name == "lattice") return particles::init_lattice(n, box, 0.3, seed);
  if (name == "clusters") return particles::init_clusters(n, box, 4, 0.05, seed, 0.02);
  if (name == "gradient") return particles::init_gradient(n, box, 1.0, seed);
  if (name == "two-stream") return particles::init_two_stream(n, box, 0.2, 0.02, seed);
  if (name == "plummer") return particles::init_plummer(n, box, 0.1, seed, 0.02);
  if (name == "ring") return particles::init_ring(n, box, 0.35, 0.05, seed, 0.02);
  CANB_REQUIRE(false, "unknown --workload: " + name);
  return {};
}

/// Throws PreconditionError unless `path` can name a file to write: its
/// directory exists and it is not a directory itself. Creates nothing.
void require_output_path(const std::string& option, const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::path(path).parent_path();
  CANB_REQUIRE(dir.empty() || fs::is_directory(dir, ec),
               "--" + option + ": directory " + dir.string() + " does not exist");
  CANB_REQUIRE(!path.empty() && !fs::is_directory(path, ec),
               "--" + option + " needs a file path, not '" + path + "'");
}

using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

const std::vector<std::string> kOptions = {
    "method", "machine", "workload", "n", "p", "c", "steps", "dt", "cutoff", "seed", "xyz",
    "csv", "checkpoint", "restart", "report", "rdf", "threads", "integrator", "fault-seed",
    "straggler", "jitter", "drop-rate", "link-degrade", "obs-level", "metrics-out",
    "trace-out", "spans-csv", "serve", "serve-linger", "series-out", "series-capacity",
    "straggler-factor", "transport", "transport-groups", "transport-group", "transport-dir",
    "help"};

/// Everything the options decide, parsed and validated before any process
/// is forked or any simulation state is built.
struct RunPlan {
  Sim::Config cfg;
  /// Set for --transport=socket; modeled attaches no transport.
  std::optional<vmpi::SocketConfig> socket;
  /// Socket transport without --transport-group: this process forks the
  /// other groups itself.
  bool fork_groups = false;
  int n = 0;
  int steps = 0;
  std::uint64_t seed = 0;
  int threads = 1;
  double serve_linger = 0.0;
  std::string series_out;
  particles::Block initial;
  bool restarted = false;
  std::int64_t step0 = 0;
  double time0 = 0.0;
};

/// Parses every option and checks the configuration with the engines' own
/// preconditions; throws (PreconditionError or another
/// std::invalid_argument / std::out_of_range) on a usage error.
RunPlan plan_run(const CliArgs& args) {
  RunPlan plan;
  Sim::Config& cfg = plan.cfg;
  cfg.method = parse_method(args.get("method", "ca-all-pairs"));
  cfg.machine = parse_machine(args.get("machine", "laptop"));
  cfg.p = static_cast<int>(args.get_int("p", 64));
  cfg.c = static_cast<int>(args.get_int("c", 1));
  cfg.dt = args.get_double("dt", 1e-4);
  cfg.cutoff = args.get_double("cutoff", 0.0);
  cfg.kernel = particles::InverseSquareRepulsion{1e-4, 1e-2};
  cfg.integrator = args.get("integrator", "velocity-verlet");
  plan.n = static_cast<int>(args.get_int("n", 512));
  plan.steps = static_cast<int>(args.get_int("steps", 50));
  plan.seed = static_cast<std::uint64_t>(args.get_int("seed", 2013));
  plan.threads = static_cast<int>(args.get_int("threads", 1));
  CANB_REQUIRE(plan.threads >= 0 && plan.threads <= ThreadPool::kMaxThreads,
               "--threads must be in [0, " + std::to_string(ThreadPool::kMaxThreads) + "]");
  plan.serve_linger = args.get_double("serve-linger", 0.0);

  // Real transport selection (the socket arm forks later, in run()).
  {
    const std::string tname = args.get("transport", "modeled");
    const auto kind = vmpi::parse_transport_kind(tname);
    CANB_REQUIRE(kind.has_value(), "unknown --transport (modeled | socket): " + tname);
    const bool socket = *kind == vmpi::TransportKind::Socket;
    CANB_REQUIRE(socket || (!args.has("transport-groups") && !args.has("transport-group") &&
                            !args.has("transport-dir")),
                 "--transport-groups/-group/-dir need --transport=socket");
    if (socket) {
      CANB_REQUIRE(sim::runs_over_transport(cfg.method),
                   std::string("--transport=socket runs only ca-all-pairs and ca-cutoff, not ") +
                       sim::method_name(cfg.method));
      vmpi::SocketConfig& sc = plan.socket.emplace();
      sc.ranks = cfg.p;
      sc.groups = static_cast<int>(args.get_int("transport-groups", 2));
      CANB_REQUIRE(sc.groups >= 1 && sc.groups <= cfg.p, "--transport-groups must be in [1, p]");
      sc.dir = args.get("transport-dir", "");
      std::error_code ec;
      CANB_REQUIRE(sc.dir.empty() || std::filesystem::is_directory(sc.dir, ec),
                   "--transport-dir: directory " + sc.dir + " does not exist");
      if (args.has("transport-group")) {
        // Externally launched: the caller starts one process per group and
        // points them all at the same rendezvous directory.
        sc.group = static_cast<int>(args.get_int("transport-group", 0));
        CANB_REQUIRE(sc.group >= 0 && sc.group < sc.groups,
                     "--transport-group must be in [0, transport-groups)");
        CANB_REQUIRE(args.has("transport-dir"),
                     "--transport-group needs --transport-dir (shared rendezvous)");
      } else {
        plan.fork_groups = true;
      }
    }
  }

  if (args.has("fault-seed") || args.has("straggler") || args.has("jitter") ||
      args.has("drop-rate") || args.has("link-degrade")) {
    vmpi::FaultConfig fault;
    fault.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 2013));
    fault.straggler_rate = args.get_double("straggler", 0.0);
    fault.jitter = args.get_double("jitter", 0.0);
    fault.drop_rate = args.get_double("drop-rate", 0.0);
    fault.link_degrade_rate = args.get_double("link-degrade", 0.0);
    cfg.fault = fault;
  }

  // Observability level: explicit flag wins; otherwise the requested
  // outputs imply the cheapest level that can produce them.
  if (args.has("obs-level")) {
    const auto level = obs::parse_obs_level(args.get("obs-level", "off"));
    CANB_REQUIRE(level.has_value(), "unknown --obs-level (off | metrics | full)");
    cfg.obs = *level;
  } else if (args.has("trace-out") || args.has("spans-csv")) {
    cfg.obs = obs::ObsLevel::Full;
  } else if (args.has("metrics-out") || args.has("serve") || args.has("series-out")) {
    cfg.obs = obs::ObsLevel::Metrics;
  }
  CANB_REQUIRE(!(args.has("trace-out") || args.has("spans-csv")) ||
                   cfg.obs == obs::ObsLevel::Full,
               "--trace-out/--spans-csv need --obs-level=full (span sampling)");
  CANB_REQUIRE(!args.has("metrics-out") || cfg.obs != obs::ObsLevel::Off,
               "--metrics-out needs --obs-level=metrics or full");
  if (args.has("serve")) {
    CANB_REQUIRE(cfg.obs != obs::ObsLevel::Off, "--serve needs --obs-level=metrics or full");
    // Bare "--serve" parses as the string "true": pick an ephemeral port.
    const std::string port = args.get("serve", "0");
    cfg.serve_port = port == "true" ? 0 : static_cast<int>(args.get_int("serve", 0));
    CANB_REQUIRE(cfg.serve_port >= 0 && cfg.serve_port <= 65535,
                 "--serve port must be in [0, 65535]");
  }
  plan.series_out = args.get("series-out", "");
  if (!plan.series_out.empty()) {
    CANB_REQUIRE(cfg.obs != obs::ObsLevel::Off,
                 "--series-out needs --obs-level=metrics or full");
    cfg.series_capacity = static_cast<int>(args.get_int("series-capacity", 1024));
    CANB_REQUIRE(cfg.series_capacity > 0, "--series-capacity must be positive");
    cfg.straggler_factor = args.get_double("straggler-factor", 3.0);
    CANB_REQUIRE(cfg.straggler_factor > 1.0, "--straggler-factor must exceed 1");
  } else {
    CANB_REQUIRE(!args.has("series-capacity") && !args.has("straggler-factor"),
                 "--series-capacity/--straggler-factor need --series-out");
  }

  // The run opens its output files only as it writes them, some after the
  // last step; check now that each can be created, before any fork. The
  // .prom file and straggler dumps land next to their option's file.
  for (const char* option :
       {"csv", "xyz", "checkpoint", "metrics-out", "series-out", "trace-out", "spans-csv"}) {
    if (args.has(option)) require_output_path(option, args.get(option, ""));
  }

  // An impossible method/p/c/cutoff combination is a usage error too.
  Sim::validate(cfg);

  if (args.has("restart")) {
    const auto cp = sim::load_checkpoint(args.get("restart", ""));
    plan.initial = cp.particles;
    plan.restarted = true;
    plan.step0 = cp.step;
    plan.time0 = cp.time;
  } else {
    plan.initial = make_workload(args.get("workload", "uniform"), plan.n, cfg.box, plan.seed);
  }
  return plan;
}

/// Prints a usage error (one line naming the option, then the option list)
/// and returns the usage exit status.
int usage_error(const std::string& what) {
  std::cerr << "run_simulation: " << what << "\n"
            << format_usage("run_simulation", kOptions) << "\n";
  return 2;
}

/// Opens `path`, hands the stream to `write`, then flushes and checks it.
/// A write that fails after the file opened (a full disk, /dev/full)
/// throws, naming the option and the path; main prints it and exits 1.
template <class WriteFn>
void write_output(const char* option, const std::string& path, WriteFn&& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("cannot open --") + option + " file " + path);
  write(out);
  if (!out.flush())
    throw std::runtime_error(std::string("cannot write --") + option + " file " + path);
}

int run(const CliArgs& args, RunPlan plan) {
  Sim::Config& cfg = plan.cfg;
  const int n = plan.n;
  const int steps = plan.steps;
  const std::uint64_t seed = plan.seed;
  const std::string& series_out = plan.series_out;
  const std::int64_t step0 = plan.step0;
  const double time0 = plan.time0;

  // The socket arm forks its process group here, BEFORE any threads exist
  // (the host pool spawns some), and before the simulation is
  // built so every group constructs identical state. `primary` gates every
  // print and file output below: group 0 speaks for the run, the other
  // groups compute, feed the fabric, exit 0.
  std::unique_ptr<vmpi::ProcessGroup> launch;
  std::string owned_rendezvous_dir;
  if (plan.fork_groups) {
    if (plan.socket->dir.empty()) {
      owned_rendezvous_dir = vmpi::make_rendezvous_dir();
      plan.socket->dir = owned_rendezvous_dir;
    }
    launch = std::make_unique<vmpi::ProcessGroup>(plan.socket->groups);
    plan.socket->group = launch->group();
  }
  const bool primary = !plan.socket || plan.socket->group == 0;
  // Modeled attaches no endpoint: the default arm moves bytes in-process
  // already and attaching nothing keeps it allocation-free.
  if (plan.socket) cfg.transport = std::make_shared<vmpi::SocketTransport>(*plan.socket);
  if (primary && plan.restarted)
    std::cout << "restarted from step " << step0 << " (" << plan.initial.size()
              << " particles)\n";

  // Held by pointer so the endpoint can be torn down (flush + barrier +
  // close, in ~Transport) explicitly before forked children are reaped —
  // plain destructor order would reap first and deadlock the barrier. The
  // simulation keeps the only reference, so an error unwinding this
  // function also drops the endpoint before `launch` reaps the children.
  auto simulation_ptr = std::make_unique<Sim>(cfg, std::move(plan.initial));
  cfg.transport.reset();
  Sim& simulation = *simulation_ptr;
  int threads = plan.threads;
  if (threads == 0) {
    // --threads=0: use every hardware thread (minimum 1 when the runtime
    // cannot tell, which hardware_concurrency signals by returning 0).
    threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                         ThreadPool::kMaxThreads);
    if (primary) std::cout << "auto-detected " << threads << " host threads\n";
  }
  if (threads > 1) simulation.set_host_pool(std::make_shared<ThreadPool>(threads));

  // Provenance the Simulation cannot know on its own, added before any
  // artifact (file export, scrape, straggler dump) can embed the manifest.
  simulation.manifest()
      .set("workload", args.get("workload", "uniform"))
      .set("n", n)
      .set("steps", steps)
      .set("seed", seed)
      .set("integrator", cfg.integrator)
      .set("threads", threads)
      .set("sched", to_string(simulation.config().sched));
  if (cfg.fault) {
    simulation.manifest()
        .set("fault_seed", cfg.fault->seed)
        .set("straggler", cfg.fault->straggler_rate)
        .set("jitter", cfg.fault->jitter)
        .set("drop_rate", cfg.fault->drop_rate)
        .set("link_degrade", cfg.fault->link_degrade_rate);
  }

  if (auto* srv = simulation.server(); primary && srv != nullptr) {
    std::cout << "live metrics at " << srv->url() << "  (/metrics /healthz"
              << (cfg.obs == obs::ObsLevel::Full ? " /spans.csv /trace.json" : "") << ")"
              << std::endl;  // flush: scrapers watch stdout for the URL
  }
  if (auto* series = simulation.step_series(); primary && series != nullptr) {
    // Dump a flight-recorder snapshot the moment a straggler is flagged —
    // the evidence is on disk even if the run later hangs or dies.
    series->set_straggler_sink([&simulation, series_out](const obs::StepSample& s) {
      const std::string path = series_out + ".straggler-step" + std::to_string(s.step) + ".json";
      write_output("series-out", path, [&](std::ostream& out) {
        obs::write_step_series(out, *simulation.step_series(), simulation.manifest());
      });
      std::cout << "straggler at step " << s.step << " (" << obs::format_double(s.wall_seconds)
                << "s wall); snapshot written to " << path << "\n";
    });
  }

  std::unique_ptr<sim::TrajectoryWriter> xyz;
  if (primary && args.has("xyz"))
    xyz = std::make_unique<sim::TrajectoryWriter>(args.get("xyz", ""),
                                                  sim::TrajectoryWriter::Format::Xyz);
  std::unique_ptr<sim::TrajectoryWriter> csv;
  if (primary && args.has("csv"))
    csv = std::make_unique<sim::TrajectoryWriter>(args.get("csv", ""),
                                                  sim::TrajectoryWriter::Format::Csv);

  const int snapshot_every = std::max(1, steps / 10);
  // The snapshot-gather decision must be identical on every forked group:
  // under owner-computes gather() is a symmetric wire all-gather, so gating
  // it on the writers (which only the primary constructs) would deadlock.
  const bool snapshots = args.has("xyz") || args.has("csv");
  // Scripted scrapers (CI, the demo script) get a deterministic window to
  // read the final state. Non-primary groups skip straight to teardown and
  // park in the close barrier until the primary follows.
  const auto linger = [&] {
    if (primary && simulation.server() != nullptr && plan.serve_linger > 0.0) {
      std::cout << "serving for another " << plan.serve_linger << "s (--serve-linger)"
                << std::endl;
      std::this_thread::sleep_for(std::chrono::duration<double>(plan.serve_linger));
    }
  };
  try {
    for (int s = 0; s < steps; ++s) {
      simulation.step();
      if ((s + 1) % snapshot_every == 0 && snapshots) {
        const auto snap = simulation.gather();
        const double t = time0 + (step0 + s + 1) * cfg.dt;
        if (xyz) xyz->append(snap, static_cast<int>(step0) + s + 1, t);
        if (csv) csv->append(snap, static_cast<int>(step0) + s + 1, t);
      }
    }
  } catch (const std::exception& e) {
    // /healthz says why the run stopped, for the linger window; then the
    // error ends the run like any other (one line, exit 1).
    if (primary && simulation.server() != nullptr) {
      simulation.publish_failure(e.what());
      linger();
    }
    throw;
  }

  const auto final_state = simulation.gather();
  if (primary)
    std::cout << "ran " << steps << " steps of " << sim::method_name(cfg.method) << " on "
              << cfg.p << " ranks (" << cfg.machine.name << ", c=" << cfg.c << ")\n";
  if (const auto* fault = simulation.fault_model(); primary && fault != nullptr) {
    const auto& ledger = simulation.comm().ledger();
    std::cout << "fault injection: seed=" << fault->config().seed
              << " straggler=" << fault->config().straggler_rate
              << " jitter=" << fault->config().jitter
              << " drop=" << fault->config().drop_rate
              << " link-degrade=" << fault->config().link_degrade_rate << " — "
              << ledger.aggregate_retries() << " retries, " << ledger.aggregate_timeouts()
              << " timeouts across all ranks\n";
  }

  if (primary && args.has("checkpoint")) {
    sim::save_checkpoint(args.get("checkpoint", ""),
                         {step0 + steps, time0 + (step0 + steps) * cfg.dt, final_state});
    std::cout << "checkpoint written to " << args.get("checkpoint", "") << "\n";
  }

  obs::CriticalPathReport cp;
  if (auto* telem = simulation.telemetry(); telem != nullptr) {
    // EVERY group finalizes — the closing mesh snapshot exchange is
    // symmetric, so a primary-only call would deadlock the socket arm.
    cp = simulation.finalize_telemetry();
  }
  if (auto* telem = simulation.telemetry(); primary && telem != nullptr) {
    const obs::RunManifest& manifest = simulation.manifest();
    if (args.has("metrics-out")) {
      const std::string path = args.get("metrics-out", "");
      // Mesh runs export the merged registry: every process's transport,
      // scheduler, and host-phase series, group-labeled and summable.
      const obs::MetricsRegistry merged = simulation.merged_metrics();
      write_output("metrics-out", path, [&](std::ostream& out) {
        obs::write_metrics_json(out, merged, manifest, telem->spans_enabled() ? &cp : nullptr);
      });
      // Prometheus text rides along under the same stem, opened only once
      // the JSON is known to be written.
      const std::string prom_path =
          std::filesystem::path(path).replace_extension(".prom").string();
      write_output("metrics-out", prom_path,
                   [&](std::ostream& out) { out << obs::to_prometheus(merged); });
      std::cout << "metrics written to " << path << " (+" << prom_path << ")\n";
    }
    if (!series_out.empty()) {
      write_output("series-out", series_out, [&](std::ostream& out) {
        obs::write_step_series(out, *simulation.step_series(), manifest);
      });
      std::cout << "flight recorder written to " << series_out << "\n";
    }
    if (args.has("trace-out")) {
      const std::string path = args.get("trace-out", "");
      write_output("trace-out", path, [&](std::ostream& out) {
        obs::write_chrome_trace(out, telem->spans(), telem->trace(), &manifest);
      });
      std::cout << "chrome trace written to " << path
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (args.has("spans-csv")) {
      const std::string path = args.get("spans-csv", "");
      write_output("spans-csv", path,
                   [&](std::ostream& out) { obs::write_span_csv(out, telem->spans()); });
      std::cout << "span time series written to " << path << "\n";
    }
    if (telem->spans_enabled()) std::cout << obs::format_critical_path(cp);
  }

  if (primary && args.get_bool("report", false)) {
    std::vector<sim::RunReport> reps{simulation.report()};
    if (cp.end_rank >= 0) sim::annotate_critical_path(reps.front(), cp);
    sim::print_reports(std::cout, reps);
  }

  if (primary && args.get_bool("rdf", false)) {
    const auto g = particles::radial_distribution(
        std::span<const particles::Particle>(final_state), cfg.box, 0.25, 10);
    std::cout << "g(r) in 10 bins to r=0.25:";
    for (double v : g) std::cout << " " << std::fixed << std::setprecision(2) << v;
    std::cout << "\n";
  }

  linger();

  // Fabric teardown while every peer process is still alive: releasing the
  // last references runs the endpoint's flush + close-barrier. Only then
  // may the parent reap its children (which exit after the same teardown).
  simulation_ptr.reset();
  if (launch != nullptr) {
    const int child_status = launch->wait_children();
    if (launch->primary()) {
      if (!owned_rendezvous_dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(owned_rendezvous_dir, ec);
      }
      if (child_status != 0) {
        // Fail the run with the crashed group's status — a silent exit 0
        // here would hide a child that diverged or died to a signal.
        std::cerr << "error: a forked transport group failed (status " << child_status << ")\n";
        return child_status;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage errors (an unknown option, a bad value, an option missing its
  // companion, a configuration the engines reject) exit 2 with the option
  // list; nothing has been forked or built yet when they are found.
  std::optional<CliArgs> args;
  RunPlan plan;
  try {
    args.emplace(argc, argv, kOptions);
    if (args->has("help")) {
      std::cout << format_usage("run_simulation", kOptions) << "\n";
      return 0;
    }
    plan = plan_run(*args);
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  } catch (const std::out_of_range& e) {
    return usage_error(e.what());
  }
  // A socket peer that dies mid-run (vmpi::TransportError), or any other
  // failure the run throws (an output that cannot be written after all),
  // ends this process with one line, not a hang or std::terminate.
  try {
    return run(*args, std::move(plan));
  } catch (const std::exception& e) {
    std::cerr << "run_simulation: " << e.what() << "\n";
    return 1;
  }
}
