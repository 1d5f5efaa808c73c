// The repository benchmark: host wall time of whole timesteps through
// sim::Simulation, on four workloads, plus an outside-in layer trace.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--run-dir DIR] [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics of one timed run; --trace 1 runs
// the separate traced pass (traced.hpp) and prints the per-layer metrics.
// Every run checks its output and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any check failed. perfbench/run.py builds
// this program, enforces a deadline, and cleans up after it; see
// perfbench/README.md for the workloads and the metric definitions.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "particles/reference.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "traced.hpp"
#include "vmpi/socket_transport.hpp"

namespace perfbench {
namespace {

using Kernel = particles::InverseSquareRepulsion;
using Sim = sim::Simulation<Kernel>;

/// Workload properties only: every host knob stays at the library default.
struct Workload {
  const char* name;
  sim::Method method;
  int n, p, c;
  double cutoff;
  const char* dist;  ///< "uniform" | "plummer"
  int threads;
  int groups;         ///< OS processes (socket mesh when > 1)
  double trace_rate;  ///< traced-pass steps per --seconds (fixed, not timed)
};

constexpr Workload kWorkloads[] = {
    {"cutoff_uniform", sim::Method::CaCutoff, 4096, 64, 2, 0.1, "uniform", 1, 1, 12.0},
    {"cutoff_plummer_t2", sim::Method::CaCutoff, 4096, 64, 2, 0.1, "plummer", 2, 1, 3.0},
    {"allpairs_c8", sim::Method::CaAllPairs, 1024, 64, 8, 0.0, "uniform", 1, 1, 25.0},
    {"mesh_cutoff_g2", sim::Method::CaCutoff, 4096, 64, 2, 0.1, "uniform", 1, 2, 12.0},
};

constexpr int kWarmupSteps = 10;
constexpr int kSetupReps = 15;          ///< set-ups per run; setup_s is their median
constexpr std::size_t kRssSteps = 200;  ///< peak_rss_mb is read after this many timed steps
constexpr int kMeshChunk = 8;           ///< steps between the mesh's continue/stop decisions
constexpr int kMeshPrefix = 3;          ///< steps compared bitwise against one process
constexpr double kForceTol = 1e-5;      ///< first-step force error, relative (see check_forces)
constexpr double kOverheadBound = 0.10;  ///< max obs.trace_overhead_frac

// --- small utilities --------------------------------------------------------

double now_s() { return Tracer::now(); }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process's address space (VmHWM). Not
/// getrusage's ru_maxrss: Linux carries that across exec, so it would report
/// the launching interpreter's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The run's outcome: metrics in print order plus the run accounting.
struct Result {
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one simulation run; a non-empty error fails it.
  void run(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      errors.push_back(error);
    }
  }
};

// --- workload inputs ----------------------------------------------------------

Sim::Config make_config(const Workload& w) {
  Sim::Config cfg;
  cfg.method = w.method;
  cfg.p = w.p;
  cfg.c = w.c;
  cfg.machine = machine::hopper();
  cfg.box = particles::Box::reflective_2d(1.0);
  cfg.kernel = Kernel{1e-4, 1e-2};
  cfg.cutoff = w.cutoff;
  cfg.dt = 1e-4;
  return cfg;
}

particles::Block make_particles(const Workload& w, const particles::Box& box, std::uint64_t seed) {
  if (std::string(w.dist) == "plummer") return particles::init_plummer(w.n, box, 0.1, seed, 0.01);
  return particles::init_uniform(w.n, box, seed, 0.01);
}

std::shared_ptr<ThreadPool> make_pool(const Workload& w) {
  return w.threads > 1 ? std::make_shared<ThreadPool>(w.threads) : nullptr;
}

/// Constructs a Simulation the way a user would: config, particles, pool.
std::unique_ptr<Sim> make_sim(const Workload& w, Sim::Config cfg, const particles::Block& ps) {
  auto s = std::make_unique<Sim>(std::move(cfg), ps);
  if (auto pool = make_pool(w)) s->set_host_pool(std::move(pool));
  return s;
}

// --- output checks ------------------------------------------------------------

/// Final-state check: n unique ids, every field finite, every particle in
/// the box.
std::string check_state(const particles::Block& b, int n, const particles::Box& box) {
  if (static_cast<int>(b.size()) != n)
    return "final state holds " + std::to_string(b.size()) + " particles, expected " +
           std::to_string(n);
  for (int i = 0; i < n; ++i) {
    const auto& q = b[static_cast<std::size_t>(i)];
    if (q.id != i) return "final state ids are not 0..n-1 (duplicate or missing id)";
    for (const float v : {q.px, q.py, q.vx, q.vy, q.fx, q.fy})
      if (!std::isfinite(v)) return "non-finite value for particle " + std::to_string(i);
    if (q.px < 0.0f || q.px > static_cast<float>(box.lx) || q.py < 0.0f ||
        q.py > static_cast<float>(box.ly))
      return "particle " + std::to_string(i) + " left the box";
  }
  return {};
}

/// First-step forces against the serial O(n^2) reference (with the cutoff).
/// The reference sees the positions the first force pass sees: the initial
/// state after the integrator's drift. Per particle, |f - f_ref| must stay
/// below kForceTol * (|f_ref| + rms |f_ref|).
std::string check_forces(const particles::Block& after_step, const particles::Block& initial,
                         const Sim::Config& cfg, double* max_err) {
  particles::Block ps = initial;
  particles::make_integrator(cfg.integrator)->pre_force(std::span<particles::Particle>(ps), cfg.dt);
  particles::Block ref = particles::reference_forces(ps, cfg.box, cfg.kernel, cfg.cutoff);
  particles::sort_by_id(ref);
  if (ref.size() != after_step.size()) return "force check: particle count differs";
  double rms = 0.0;
  for (const auto& q : ref) rms += double(q.fx) * q.fx + double(q.fy) * q.fy;
  rms = std::sqrt(rms / static_cast<double>(ref.size()));
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto& a = after_step[i];
    const auto& r = ref[i];
    const double err = std::hypot(double(a.fx) - r.fx, double(a.fy) - r.fy);
    worst = std::max(worst, err / (std::hypot(double(r.fx), double(r.fy)) + rms));
  }
  *max_err = worst;
  if (!(worst <= kForceTol)) return "first-step forces differ from the serial reference";
  return {};
}

bool bitwise_equal(const particles::Block& a, const particles::Block& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(particles::Particle)) == 0;
}

// --- the socket mesh ------------------------------------------------------------

/// What a forked mesh group reports back to group 0 (anonymous shared page).
struct ChildReport {
  pid_t pid = 0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  double sweep_s = 0.0;
  std::uint64_t examined = 0;
  std::uint64_t computed = 0;
};

/// One forked 2-group mesh: rendezvous directories, the ProcessGroup, a
/// control pipe (group 0 -> group 1) and the shared report page. Group 1
/// runs `body` and exits inside run(); group 0 returns the child's status.
class Mesh {
 public:
  explicit Mesh(const std::string& run_dir) : run_dir_(run_dir) {
    void* page = mmap(nullptr, sizeof(ChildReport), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    CANB_REQUIRE(page != MAP_FAILED, "mmap failed");
    report_ = new (page) ChildReport{};
    CANB_REQUIRE(pipe(ctl_) == 0, "pipe failed");
  }
  ~Mesh() {
    munmap(report_, sizeof(ChildReport));
    for (const auto& d : dirs_) std::filesystem::remove_all(d);
  }

  /// A fresh rendezvous directory (relative to the checkout, so socket
  /// paths stay short).
  std::string new_dir() {
    std::filesystem::create_directories(run_dir_);
    std::string tmpl = run_dir_ + "/mXXXXXX";
    CANB_REQUIRE(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    dirs_.push_back(tmpl);
    return tmpl;
  }

  std::shared_ptr<vmpi::SocketTransport> endpoint(int p, const std::string& dir) const {
    vmpi::SocketConfig sc;
    sc.ranks = p;
    sc.groups = 2;
    sc.group = group_;
    sc.dir = dir;
    return std::make_shared<vmpi::SocketTransport>(sc);
  }

  /// Forks, runs body(*this) in both groups, and returns the child's exit
  /// status on group 0 (group 1 never returns). The body must leave no
  /// thread running.
  int run(const std::function<int(Mesh&)>& body) {
    std::fflush(stdout);
    std::fflush(stderr);
    vmpi::ProcessGroup pg(2);
    group_ = pg.group();
    if (!pg.primary()) {
      report_->pid = getpid();
      close(ctl_[1]);
      int code = 1;
      try {
        code = body(*this);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mesh group 1: %s\n", e.what());
      }
      std::_Exit(code);
    }
    close(ctl_[0]);
    int code = 0;
    try {
      code = body(*this);
    } catch (...) {
      if (report_->pid > 0) kill(report_->pid, SIGKILL);
      pg.wait_children();
      throw;
    }
    close(ctl_[1]);
    const int child = pg.wait_children();
    return code != 0 ? code : child;
  }

  bool primary() const noexcept { return group_ == 0; }
  ChildReport& report() noexcept { return *report_; }

  /// Group 0 tells group 1 whether to run another chunk; returns the decision.
  bool agree(bool go) {
    char b = go ? 1 : 0;
    if (primary()) {
      CANB_REQUIRE(write(ctl_[1], &b, 1) == 1, "mesh control write failed");
    } else {
      CANB_REQUIRE(read(ctl_[0], &b, 1) == 1, "mesh control read failed");
    }
    return b != 0;
  }

 private:
  std::string run_dir_;
  ChildReport* report_ = nullptr;
  int ctl_[2] = {-1, -1};
  int group_ = 0;
  std::vector<std::string> dirs_;
};

// --- set-up -------------------------------------------------------------------

struct SetupSample {
  double construct_s = 0.0;  ///< start of construction (incl. pool / fork) to constructed
  double first_step_s = 0.0;
};

/// Records the first-step force check of `after_step` as one run and
/// prints its worst error.
void record_force_check(const particles::Block& after_step, const particles::Block& initial,
                        const Sim::Config& cfg, Result& res) {
  double err = 0.0;
  res.run(check_forces(after_step, initial, cfg, &err));
  std::printf("check first-step forces: max relative error %.3g (tolerance %.0e)\n", err,
              kForceTol);
}

/// One single-process set-up: construct and first step, then the force
/// check (`check`) or the final-state check of that step's output.
SetupSample setup_single(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                         Result& res, bool check) {
  const double t0 = now_s();
  auto s = make_sim(w, cfg, ps);
  const double t1 = now_s();
  s->step();
  const double t2 = now_s();
  if (check) {
    record_force_check(s->gather(), ps, cfg, res);
  } else {
    res.run(check_state(s->gather(), w.n, cfg.box));
  }
  return {t1 - t0, t2 - t1};
}

/// One mesh set-up: fork, rendezvous, construct, first step; then a short
/// prefix compared bitwise with the single-process run.
SetupSample setup_mesh(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                       const particles::Block& prefix_ref, Mesh& mesh, Result& res) {
  SetupSample out;
  const std::string dir = mesh.new_dir();
  bool equal = false;
  const double t0 = now_s();
  const int code = mesh.run([&](Mesh& m) {
    auto c = cfg;
    c.transport = m.endpoint(w.p, dir);
    Sim s(c, ps);
    const double t1 = now_s();
    s.step();
    const double t2 = now_s();
    s.run(kMeshPrefix - 1);
    equal = bitwise_equal(s.gather(), prefix_ref);
    out = {t1 - t0, t2 - t1};
    return equal ? 0 : 1;
  });
  std::string err;
  if (!equal) err = "mesh prefix differs from the single-process run";
  if (code != 0 && err.empty()) err = "mesh group 1 failed (status " + std::to_string(code) + ")";
  res.run(err);
  return out;
}

std::vector<SetupSample> run_setups(const Workload& w, const Sim::Config& cfg,
                                    const particles::Block& ps, Result& res,
                                    const std::string& run_dir) {
  std::vector<SetupSample> out;
  if (w.groups == 1) {
    for (int k = 0; k < kSetupReps; ++k) out.push_back(setup_single(w, cfg, ps, res, k == 0));
    return out;
  }
  // The single-process reference for the mesh prefix, force-checked too.
  particles::Block prefix_ref;
  {
    Sim s(cfg, ps);
    s.step();
    record_force_check(s.gather(), ps, cfg, res);
    s.run(kMeshPrefix - 1);
    prefix_ref = s.gather();
  }
  for (int k = 0; k < kSetupReps; ++k) {
    Mesh mesh(run_dir);
    out.push_back(setup_mesh(w, cfg, ps, prefix_ref, mesh, res));
  }
  return out;
}

// --- timed run (--trace 0) ------------------------------------------------------

struct Timed {
  std::vector<double> step_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;  ///< VmHWM after kRssSteps timed steps
};

/// Times one step and, at the kRssSteps-th, reads the peak resident set, so
/// the memory metric does not depend on how many steps the run fits in.
void timed_step(const std::function<void()>& step, Timed& t, double& last) {
  step();
  const double tn = now_s();
  t.step_s.push_back(tn - last);
  last = tn;
  if (t.step_s.size() == kRssSteps) t.rss_mb = peak_rss_mb();
}

/// Whether a timed run goes on: until `seconds` of wall have passed and at
/// least kRssSteps steps were taken.
bool more(const Timed& t, double elapsed, double seconds) {
  return elapsed < seconds || t.step_s.size() < kRssSteps;
}

void timed_single(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                  double seconds, Timed& t, Result& res) {
  auto s = make_sim(w, cfg, ps);
  s->run(kWarmupSteps);
  const double cpu0 = cpu_s();
  const double start = now_s();
  double last = start;
  while (more(t, last - start, seconds)) timed_step([&] { s->step(); }, t, last);
  t.wall_s = last - start;
  t.cpu_s = cpu_s() - cpu0;
  res.run(check_state(s->gather(), w.n, cfg.box));
}

void timed_mesh(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                double seconds, Timed& t, Result& res, const std::string& run_dir) {
  Mesh mesh(run_dir);
  const std::string dir = mesh.new_dir();
  std::string err;
  const int code = mesh.run([&](Mesh& m) {
    auto c = cfg;
    auto transport = m.endpoint(w.p, dir);
    c.transport = transport;
    Sim s(c, ps);
    s.run(kWarmupSteps);
    transport->barrier();
    const double cpu0 = cpu_s();
    const double start = now_s();
    double last = start;
    bool go = true;
    while (go) {
      for (int k = 0; k < kMeshChunk; ++k) timed_step([&] { s.step(); }, t, last);
      go = m.agree(more(t, last - start, seconds));
    }
    t.wall_s = last - start;
    transport->barrier();
    const double cpu = cpu_s() - cpu0;
    err = check_state(s.gather(), w.n, cfg.box);
    if (m.primary()) {
      t.cpu_s = cpu;
    } else {
      m.report().cpu_s = cpu;
      m.report().rss_mb = t.rss_mb;
    }
    return err.empty() ? 0 : 1;
  });
  if (err.empty() && code != 0) err = "mesh group 1 failed (status " + std::to_string(code) + ")";
  res.run(err);
  t.cpu_s += mesh.report().cpu_s;
  t.rss_mb += mesh.report().rss_mb;
}

void end_to_end(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                double seconds, const std::string& run_dir, Result& res) {
  const auto setups = run_setups(w, cfg, ps, res, run_dir);
  Timed t;
  if (w.groups == 1) {
    timed_single(w, cfg, ps, seconds, t, res);
  } else {
    timed_mesh(w, cfg, ps, seconds, t, res, run_dir);
  }
  std::vector<double> setup_s;
  for (const auto& s : setups) setup_s.push_back(s.construct_s + s.first_step_s);
  std::vector<double> ms;
  for (const double v : t.step_s) ms.push_back(1e3 * v);
  const double steps = static_cast<double>(t.step_s.size());
  res.add("step_ms_p90", quantile(ms, 0.9), "ms");
  res.add("setup_s", median(setup_s), "s");
  res.add("peak_rss_mb", t.rss_mb, "MB");
  // Means over the run follow the host's share of slow steps, which swings
  // from run to run (perfbench/README.md), so they are reported, not gated.
  std::printf("timed %zu steps over %.2f s after %d warm-up steps: steps_per_s %.3f, "
              "cpu_s_per_step %.6f; step_ms median %.3f, p90 %.3f (%zu samples); "
              "setup_s median of %zu; peak_rss_mb after %zu steps\n",
              t.step_s.size(), t.wall_s, kWarmupSteps, steps / t.wall_s, t.cpu_s / steps,
              quantile(ms, 0.5), quantile(ms, 0.9), ms.size(), setup_s.size(), kRssSteps);
}

// --- traced pass (--trace 1) ------------------------------------------------------

/// Benchmark-side bookkeeping between traced steps (outside every span):
/// pairs within the cutoff at the positions the next force pass sees, and
/// particles whose team changed during the last step.
class StepCounts {
 public:
  StepCounts(const Sim::Config& cfg, int n)
      : cfg_(cfg),
        integ_(particles::make_integrator(cfg.integrator)),
        team_(static_cast<std::size_t>(n), -1) {}

  /// `teams` = authoritative leader blocks in team order.
  template <class Blocks>
  void boundary(const Blocks& teams, bool next_step) {
    std::vector<int> now(team_.size(), -1);
    for (std::size_t t = 0; t < teams.size(); ++t)
      for (std::size_t i = 0; i < teams[t].size(); ++i)
        now[static_cast<std::size_t>(teams[t].id[i])] = static_cast<int>(t);
    if (started_) {
      for (std::size_t i = 0; i < now.size(); ++i) migrants += now[i] != team_[i] ? 1 : 0;
    }
    team_.swap(now);
    started_ = true;
    if (next_step) in_range += count_in_range(teams);
  }

  std::uint64_t migrants = 0;
  std::uint64_t in_range = 0;

 private:
  template <class Blocks>
  std::uint64_t count_in_range(const Blocks& teams) const {
    std::vector<double> x, y;
    for (const auto& b : teams) {
      auto drifted = b;
      integ_->pre_force(drifted, cfg_.dt);
      for (std::size_t i = 0; i < drifted.size(); ++i) {
        x.push_back(drifted.px[i]);
        y.push_back(drifted.py[i]);
      }
    }
    const std::uint64_t n = x.size();
    if (cfg_.cutoff <= 0.0) return n * (n - 1);
    const double rc2 = cfg_.cutoff * cfg_.cutoff;
    const int nx = std::max(1, static_cast<int>(cfg_.box.lx / cfg_.cutoff));
    const int ny = std::max(1, static_cast<int>(cfg_.box.ly / cfg_.cutoff));
    auto cell = [&](double v, double len, int k) {
      return std::clamp(static_cast<int>(v / len * k), 0, k - 1);
    };
    std::vector<std::vector<std::uint32_t>> cells(static_cast<std::size_t>(nx * ny));
    for (std::uint32_t i = 0; i < n; ++i)
      cells[static_cast<std::size_t>(cell(y[i], cfg_.box.ly, ny) * nx +
                                     cell(x[i], cfg_.box.lx, nx))]
          .push_back(i);
    std::uint64_t pairs = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const int cx = cell(x[i], cfg_.box.lx, nx);
      const int cy = cell(y[i], cfg_.box.ly, ny);
      for (int gy = std::max(0, cy - 1); gy <= std::min(ny - 1, cy + 1); ++gy)
        for (int gx = std::max(0, cx - 1); gx <= std::min(nx - 1, cx + 1); ++gx)
          for (const std::uint32_t j : cells[static_cast<std::size_t>(gy * nx + gx)]) {
            const double dx = x[i] - x[j];
            const double dy = y[i] - y[j];
            if (j != i && dx * dx + dy * dy <= rc2) ++pairs;
          }
    }
    return pairs;
  }

  Sim::Config cfg_;
  std::unique_ptr<particles::Integrator> integ_;
  std::vector<int> team_;
  bool started_ = false;
};

/// Per-layer self times (summed over the traced steps) on the orchestration
/// thread's timeline, where they tile the step wall.
struct LayerTimes {
  std::map<std::string, double> self;
  double step_wall = 0.0;
};

/// Pooled interaction rounds as orchestration-thread spans.
/// ThreadPool::parallel_tasks is not observable from outside the library,
/// so a round is bounded by the sweeps it ran: from the first sweep start
/// to the last sweep end on any worker. The sweeps of one round lie between
/// the same two orchestration-thread spans (the permutes around it).
void add_task_rounds(const Tracer& tracer, std::vector<Span>& main) {
  std::vector<double> fences;
  for (const auto& s : main)
    if (s.layer != Layer::Step && s.layer != Layer::Sweep) fences.push_back(s.t1);
  std::sort(fences.begin(), fences.end());
  std::map<std::pair<int, std::ptrdiff_t>, Span> rounds;
  for (const auto& buf : tracer.buffers())
    for (const auto& s : buf) {
      if (s.layer != Layer::Sweep) continue;
      const auto passed = std::upper_bound(fences.begin(), fences.end(), s.t0) - fences.begin();
      auto [it, fresh] =
          rounds.try_emplace({s.step, passed}, Span{Layer::Tasks, s.step, s.t0, s.t1});
      if (!fresh) {
        it->second.t0 = std::min(it->second.t0, s.t0);
        it->second.t1 = std::max(it->second.t1, s.t1);
      }
    }
  for (const auto& [key, r] : rounds) main.push_back(r);
}

bool is_vmpi_phase(Layer l) {
  return l == Layer::Broadcast || l == Layer::Skew || l == Layer::Shift || l == Layer::Reduce ||
         l == Layer::Reassign || l == Layer::OtherPhase;
}

LayerTimes analyse(const Tracer& tracer, bool pooled) {
  LayerTimes lt;
  std::vector<Span> main = tracer.buffers()[0];
  if (pooled) add_task_rounds(tracer, main);
  std::sort(main.begin(), main.end(), [](const Span& a, const Span& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
  });
  // Spans of one thread nest or are disjoint: a span's parent is the
  // innermost earlier span that has not ended before it ends.
  std::vector<int> parent(main.size(), -1);
  std::vector<int> open;
  for (std::size_t i = 0; i < main.size(); ++i) {
    while (!open.empty() && main[static_cast<std::size_t>(open.back())].t1 < main[i].t1)
      open.pop_back();
    if (!open.empty()) parent[i] = open.back();
    open.push_back(static_cast<int>(i));
  }
  std::vector<double> child(main.size(), 0.0);
  for (std::size_t i = 0; i < main.size(); ++i)
    if (parent[i] >= 0) child[static_cast<std::size_t>(parent[i])] += main[i].t1 - main[i].t0;
  // Serialize/deserialize sit between the transport calls of a vmpi call:
  // a gap that ends at a send is the wire::to_bytes before it, a gap that
  // starts at a recv (and does not end at a send) is the wire::from_bytes
  // after it. Gaps are carved out of the vmpi call's self time.
  std::vector<double> carved(main.size(), 0.0);
  std::vector<double> last_end(main.size(), -1.0);
  std::vector<int> last_layer(main.size(), -1);
  double ser = 0.0;
  double des = 0.0;
  for (std::size_t i = 0; i < main.size(); ++i) {
    const auto& s = main[i];
    if (parent[i] < 0 || (s.layer != Layer::Send && s.layer != Layer::Recv)) continue;
    const auto p = static_cast<std::size_t>(parent[i]);
    if (!is_vmpi_phase(main[p].layer)) continue;
    const double gap = s.t0 - (last_end[p] < 0 ? main[p].t0 : last_end[p]);
    if (s.layer == Layer::Send) {
      ser += gap;
      carved[p] += gap;
    } else if (last_layer[p] == static_cast<int>(Layer::Recv)) {
      des += gap;
      carved[p] += gap;
    }
    last_end[p] = s.t1;
    last_layer[p] = static_cast<int>(s.layer);
  }
  for (std::size_t p = 0; p < main.size(); ++p) {
    if (last_layer[p] == static_cast<int>(Layer::Recv)) {
      const double gap = main[p].t1 - last_end[p];
      des += gap;
      carved[p] += gap;
    }
  }
  static const std::map<Layer, std::string> kMetric = {
      {Layer::Step, "sim.other_s"},
      {Layer::Broadcast, "vmpi.broadcast_s"},
      {Layer::Skew, "vmpi.skew_s"},
      {Layer::Shift, "vmpi.shift_s"},
      {Layer::Reduce, "vmpi.reduce_s"},
      {Layer::Reassign, "core.reassign_s"},
      {Layer::OtherPhase, "sim.other_s"},
      {Layer::Sweep, "particles.sweep_s"},
      {Layer::Tasks, "support.parallel_tasks_s"},
      {Layer::Integrate, "particles.integrate_s"},
      {Layer::Send, "vmpi.transport_send_s"},
      {Layer::Recv, "vmpi.transport_recv_wait_s"},
      {Layer::Barrier, "vmpi.transport_recv_wait_s"},
  };
  for (const auto& [layer, name] : kMetric) lt.self[name] += 0.0;
  lt.self["vmpi.wire_serialize_s"] = ser;
  lt.self["vmpi.wire_deserialize_s"] = des;
  for (std::size_t i = 0; i < main.size(); ++i) {
    const auto& s = main[i];
    lt.self[kMetric.at(s.layer)] += (s.t1 - s.t0) - child[i] - carved[i];
    if (s.layer == Layer::Step) lt.step_wall += s.t1 - s.t0;
  }
  return lt;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  CANB_REQUIRE(out.good(), "cannot open --spans-out file: " + path);
  double origin = 0.0;
  const auto& main = tracer.buffers()[0];
  if (!main.empty()) origin = main.front().t0;
  out << "thread,layer,step,start_us,end_us\n";
  for (std::size_t w = 0; w < tracer.buffers().size(); ++w)
    for (const auto& s : tracer.buffers()[w])
      out << w << ',' << layer_name(s.layer) << ',' << s.step << ','
          << json_num(1e6 * (s.t0 - origin)) << ',' << json_num(1e6 * (s.t1 - origin)) << '\n';
}

struct TraceState {
  std::vector<double> untraced_s;
  double gather_s = 0.0;
  SweepCounts sweep;
  std::uint64_t frames = 0, bytes = 0, local_frames = 0, retransmits = 0;
  double ledger_messages = 0.0, ledger_bytes = 0.0;
  SchedulerStats sched_before, sched_after;
  bool has_pool = false;
  double group_sweep_max = 0.0, group_sweep_mean = 0.0;
};

/// The interleaved pass: an untraced Simulation and the traced engine take
/// the same steps alternately, so both see the same host regime. Returns
/// the error (empty when the traced final state equals the Simulation's).
std::string interleave(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
                       int steps, Tracer& tracer, StepCounts& counts, TraceState& st,
                       std::shared_ptr<vmpi::Transport> ta, std::shared_ptr<TracedTransport> tb,
                       vmpi::Transport* gather_via) {
  auto c = cfg;
  c.transport = ta;
  auto a = make_sim(w, c, ps);
  auto pool_b = make_pool(w);
  TracedSim<Kernel> b(a->config(), ps, tb, pool_b, &tracer);
  st.has_pool = pool_b != nullptr;
  if (pool_b) st.sched_before = pool_b->scheduler_stats();
  const auto retrans0 = tb ? tb->stats().retransmits : 0;
  for (int i = 0; i < steps; ++i) {
    counts.boundary(b.team_blocks(gather_via), true);
    auto step_a = [&] {
      const double t0 = now_s();
      a->step();
      st.untraced_s.push_back(now_s() - t0);
    };
    auto step_b = [&] {
      tracer.set_step(i);
      tracer.enabled = true;
      b.step();
      tracer.enabled = false;
    };
    if (i % 2 == 0) {
      step_a();
      step_b();
    } else {
      step_b();
      step_a();
    }
  }
  counts.boundary(b.team_blocks(gather_via), false);
  if (pool_b) st.sched_after = pool_b->scheduler_stats();
  st.sweep = tracer.sweep_counts();
  st.ledger_messages = static_cast<double>(b.comm().ledger().critical_messages());
  st.ledger_bytes = static_cast<double>(b.comm().ledger().critical_bytes());
  if (tb) {
    st.frames = tb->frames;
    st.bytes = tb->bytes;
    st.local_frames = tb->local_frames;
    st.retransmits = tb->stats().retransmits - retrans0;
  }
  const double g0 = now_s();
  const auto final_a = a->gather();
  st.gather_s = now_s() - g0;
  const auto final_b = b.gather(gather_via);
  if (!bitwise_equal(final_a, final_b))
    return "traced pass final state differs from sim::Simulation (the spans timed other work)";
  return check_state(final_a, w.n, cfg.box);
}

void per_layer(const Workload& w, const Sim::Config& cfg, const particles::Block& ps,
               double seconds, const std::string& run_dir, const std::string& spans_out,
               Result& res) {
  const auto setups = run_setups(w, cfg, ps, res, run_dir);
  const int steps = std::max(16, static_cast<int>(std::lround(seconds * w.trace_rate)));
  Tracer tracer;
  StepCounts counts(cfg, w.n);
  TraceState st;
  std::string err;
  if (w.groups == 1) {
    err = interleave(w, cfg, ps, steps, tracer, counts, st, nullptr, nullptr, nullptr);
  } else {
    Mesh mesh(run_dir);
    const std::string dir_a = mesh.new_dir();
    const std::string dir_b = mesh.new_dir();
    const int code = mesh.run([&](Mesh& m) {
      auto ta = m.endpoint(w.p, dir_a);
      auto inner = m.endpoint(w.p, dir_b);
      auto tb = std::make_shared<TracedTransport>(inner, &tracer);
      err = interleave(w, cfg, ps, steps, tracer, counts, st, ta, tb, inner.get());
      if (!m.primary()) {
        m.report().sweep_s = st.sweep.seconds;
        m.report().examined = st.sweep.examined;
        m.report().computed = st.sweep.computed;
      }
      return err.empty() ? 0 : 1;
    });
    if (err.empty() && code != 0)
      err = "mesh group 1 failed (status " + std::to_string(code) + ")";
    const double g0 = st.sweep.seconds;
    const double g1 = mesh.report().sweep_s;
    st.group_sweep_max = std::max(g0, g1);
    st.group_sweep_mean = 0.5 * (g0 + g1);
    st.sweep.seconds += g1;
    st.sweep.examined += mesh.report().examined;
    st.sweep.computed += mesh.report().computed;
  }
  const LayerTimes lt = analyse(tracer, st.has_pool);
  const double n_steps = static_cast<double>(steps);
  const double untraced = std::accumulate(st.untraced_s.begin(), st.untraced_s.end(), 0.0);
  const double overhead = 1.0 - untraced / lt.step_wall;
  if (err.empty() && !(overhead <= kOverheadBound)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "trace overhead %.4f exceeds its bound %.2f", overhead,
                  kOverheadBound);
    err = buf;
  }
  double layer_sum = 0.0;
  for (const auto& [name, v] : lt.self) layer_sum += v;
  if (err.empty() && std::abs(layer_sum - lt.step_wall) > 1e-9 * lt.step_wall)
    err = "layer self times do not sum to the traced step wall";
  res.run(err);
  if (!err.empty()) return;  // no layer numbers for a different program
  if (!spans_out.empty()) write_spans(tracer, spans_out);

  std::vector<double> construct, first;
  for (const auto& s : setups) {
    construct.push_back(s.construct_s);
    first.push_back(s.first_step_s);
  }
  const double examined = static_cast<double>(st.sweep.examined);
  const double computed = static_cast<double>(st.sweep.computed);
  const double in_range = static_cast<double>(counts.in_range);
  res.add("particles.sweep_s", lt.self.at("particles.sweep_s") / n_steps, "s");
  res.add("particles.ns_per_pair", computed > 0 ? 1e9 * st.sweep.seconds / computed : 0.0, "ns");
  res.add("particles.pairs_examined", examined / n_steps, "count");
  res.add("particles.pairs_in_range", in_range / n_steps, "count");
  res.add("particles.pairs_evaluated", computed / n_steps, "count");
  res.add("particles.useful_frac", computed > 0 ? in_range / computed : 0.0, "ratio");
  res.add("particles.in_range_frac", examined > 0 ? in_range / examined : 0.0, "ratio");
  res.add("particles.integrate_s", lt.self.at("particles.integrate_s") / n_steps, "s");
  for (const char* k : {"vmpi.broadcast_s", "vmpi.skew_s", "vmpi.shift_s", "vmpi.reduce_s"})
    res.add(k, lt.self.at(k) / n_steps, "s");
  res.add("vmpi.ledger_messages", st.ledger_messages / n_steps, "count");
  res.add("vmpi.ledger_bytes", st.ledger_bytes / n_steps, "bytes");
  for (const char* k : {"vmpi.transport_send_s", "vmpi.transport_recv_wait_s",
                        "vmpi.wire_serialize_s", "vmpi.wire_deserialize_s"})
    res.add(k, lt.self.at(k) / n_steps, "s");
  res.add("vmpi.transport_frames", static_cast<double>(st.frames) / n_steps, "count");
  res.add("vmpi.transport_bytes", static_cast<double>(st.bytes) / n_steps, "bytes");
  res.add("vmpi.transport_retransmits", static_cast<double>(st.retransmits) / n_steps, "count");
  res.add("vmpi.transport_local_frac",
          st.frames > 0 ? static_cast<double>(st.local_frames) / static_cast<double>(st.frames)
                        : 0.0,
          "ratio");
  res.add("core.reassign_s", lt.self.at("core.reassign_s") / n_steps, "s");
  res.add("core.migrants", static_cast<double>(counts.migrants) / n_steps, "count");
  res.add("core.mesh_group_imbalance",
          st.group_sweep_mean > 0 ? st.group_sweep_max / st.group_sweep_mean : 1.0, "ratio");
  double busy = 0.0, idle = 0.0, busy_max = 0.0;
  std::uint64_t steals = 0;
  if (st.has_pool) {
    const auto& a = st.sched_before;
    const auto& b = st.sched_after;
    for (std::size_t k = 0; k < b.busy_seconds.size(); ++k) {
      const double bk = b.busy_seconds[k] - (k < a.busy_seconds.size() ? a.busy_seconds[k] : 0.0);
      busy += bk;
      busy_max = std::max(busy_max, bk);
      idle += b.idle_seconds[k] - (k < a.idle_seconds.size() ? a.idle_seconds[k] : 0.0);
    }
    steals = b.steals - a.steals;
  }
  const double workers = st.has_pool ? static_cast<double>(st.sched_after.busy_seconds.size()) : 1.0;
  res.add("support.parallel_tasks_s", lt.self.at("support.parallel_tasks_s") / n_steps, "s");
  res.add("support.sched_busy_s", busy / n_steps, "s");
  res.add("support.sched_idle_s", idle / n_steps, "s");
  res.add("support.sched_imbalance", busy > 0 ? busy_max / (busy / workers) : 1.0, "ratio");
  res.add("support.sched_steals", static_cast<double>(steals) / n_steps, "count");
  res.add("sim.step_s", lt.step_wall / n_steps, "s");
  res.add("sim.other_s", lt.self.at("sim.other_s") / n_steps, "s");
  res.add("sim.setup_construct_s", median(construct), "s");
  res.add("sim.setup_first_step_s", median(first), "s");
  res.add("sim.gather_s", st.gather_s, "s");
  res.add("obs.trace_overhead_frac", overhead, "ratio");
  std::printf("traced %d steps interleaved with %d untraced ones; final states bitwise equal; "
              "layer self times + sim.other_s = step wall\n",
              steps, steps);
}

// --- provenance ------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The build block and the defaults this run actually used, read off the
/// Simulation (manifest() and config()) rather than restated here.
void print_provenance(const Workload& w, const Sim::Config& cfg, std::uint64_t seed) {
  Sim s(cfg, make_particles(w, cfg.box, seed));
  const auto& m = s.manifest();
  const auto& c = s.config();
  std::vector<std::pair<std::string, std::string>> kv = {
      {"workload", w.name},
      {"seed", std::to_string(seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"compiler", m.compiler},
      {"git", m.git},
      {"simd_max", m.simd},
      {"simd_active", particles::simd::backend_name(particles::simd::active())},
      {"threads", std::to_string(w.threads)},
      {"processes", std::to_string(w.groups)},
  };
  for (const auto& [k, v] : m.config) kv.emplace_back(k, v);
  if constexpr (requires { c.sched; }) kv.emplace_back("sched", to_string(c.sched));
  if constexpr (requires { c.pooled_data_plane; })
    kv.emplace_back("data_plane", c.pooled_data_plane ? "pooled" : "legacy");
  if constexpr (requires { c.exec; })
    kv.emplace_back("exec", w.groups > 1 ? vmpi::exec_mode_name(c.exec) : "single-process");
  if constexpr (requires { c.tune; }) kv.emplace_back("tune", sim::tune_mode_name(c.tune));
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i)
    out += (i ? ", " : "") + json_str(kv[i].first) + ": " + json_str(kv[i].second);
  std::printf("provenance %s}\n", out.c_str());
}

// --- main -------------------------------------------------------------------------

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--run-dir DIR] [--spans-out FILE]\nworkloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) return usage(("bad argument " + k).c_str());
    args[k.substr(2)] = argv[++i];
  }
  for (const auto& [k, v] : args) {
    static const char* kKnown[] = {"workload", "seed", "seconds", "trace", "run-dir", "spans-out"};
    if (std::find_if(std::begin(kKnown), std::end(kKnown), [&](const char* x) { return k == x; }) ==
        std::end(kKnown))
      return usage(("unknown option --" + k).c_str());
  }
  const Workload* w = nullptr;
  for (const auto& x : kWorkloads)
    if (args["workload"] == x.name) w = &x;
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!args.count("seed") || !args.count("seconds")) return usage("--seed and --seconds are required");
  const std::uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args.count("trace") && args["trace"] == "1";
  const std::string run_dir = args.count("run-dir") ? args["run-dir"] : ".bench_run";
  if (seconds <= 0) return usage("--seconds must be positive");

  const Sim::Config cfg = make_config(*w);
  print_provenance(*w, cfg, seed);
  const particles::Block ps = make_particles(*w, cfg.box, seed);
  Result res;
  if (trace) {
    per_layer(*w, cfg, ps, seconds, run_dir, args["spans-out"], res);
  } else {
    end_to_end(*w, cfg, ps, seconds, run_dir, res);
  }
  for (const auto& e : res.errors) std::printf("FAILED: %s\n", e.c_str());
  for (const auto& m : res.metrics) std::printf("%-28s %-24s %s\n", m.name.c_str(), json_num(m.value).c_str(), m.unit.c_str());
  std::printf("failed_frac %s (%d of %d runs)\n",
              json_num(static_cast<double>(res.failed) / std::max(1, res.attempted)).c_str(),
              res.failed, res.attempted);
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    out += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " + json_num(m.value) +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  return res.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
