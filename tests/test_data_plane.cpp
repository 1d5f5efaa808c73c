// The host data-plane acceptance contract (vmpi/buffer_pool.hpp,
// primitives.hpp, core/reassign.hpp):
//
//  1. The host data plane moves particles without changing a bit: final
//     states, per-phase ledger fields and full message traces match the
//     committed goldens (tests/golden/state_*.txt) across engines, host
//     thread counts, a routed transport, and under an active
//     PerturbationModel.
//  2. After warm-up, the primitives' hot path performs zero heap
//     allocations (counted with a global operator new hook).
//  3. The BufferPool actually recycles capacity, and SoaBlock::assign_from
//     preserves destination capacity (the documented guarantee).
//  4. Host-phase wall seconds surface as gauges at --obs-level=metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "machine/presets.hpp"
#include "obs/telemetry.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "tests/parity.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/transport.hpp"

#ifndef CANB_GOLDEN_DIR
#error "CANB_GOLDEN_DIR must point at tests/golden in the source tree"
#endif

// ---------------------------------------------------------------------------
// Allocation counting hook: every global new in this binary bumps a counter.
// The steady-state tests snapshot it around a hot-path region and assert a
// zero delta. Counting (not banning) keeps gtest and setup code unaffected.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs the malloc-backed replacement operator new with the library's
// free and flags a mismatch; the pairing is exactly what the replacement
// defines, so the warning is spurious in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace canb;
using namespace canb::parity;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;
using particles::SoaBlock;

constexpr int kSteps = 3;

// --- golden final states ----------------------------------------------------
//
// Each configuration's final state is pinned to a committed text file,
// tests/golden/state_<name>.txt: the particle state bit for bit, the
// CostLedger-derived report fields as hexfloats and an FNV-1a hash of the
// serialized message trace. Every host arm must reproduce it: host thread
// counts {1, 2, 8}, and the routed ModeledTransport for the CA methods.
// The files come from an independent reference: the serial copy-and-fold
// host path this data plane replaced matched every one of them before it
// was deleted. The configurations reach what the data plane's contracts
// (DESIGN.md §9) are about: c >= 3 teams, where the reduce folds more than
// one row and its serial order decides the low bits; runs whose particles
// cross team boundaries, so re-assign moves and compacts real particles;
// and distinct masses and charges, so a copy that skips either lane
// changes the forces.
//
// The files are regenerated like the trace goldens:
//     CANB_REGEN_GOLDEN=1 ./build/tests/test_data_plane --gtest_filter='DataPlaneBitwise.*'
// Inputs use fixed seeds only; nothing here reads CANB_FAULT_SEED or
// CANB_CLUSTER_SEED.

struct GoldenCase {
  const char* name;  ///< file stem under tests/golden/
  sim::Method method;
  int p;
  int c;
  double cutoff;
  bool fault = false;
  /// Speed scale 1.0 and dt 1e-2 instead of 0.01 and 1e-4: particles
  /// leave their team's region every step, so re-assign routes them.
  bool migrating = false;
  /// Particle count; one that q does not divide gives uneven teams.
  int n = 256;
};

Sim::Config golden_config(const GoldenCase& gc) {
  Sim::Config cfg;
  cfg.method = gc.method;
  cfg.p = gc.p;
  cfg.c = gc.c;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = gc.cutoff;
  cfg.dt = gc.migrating ? 1e-2 : 1e-4;
  if (gc.fault) {
    vmpi::FaultConfig fc;
    fc.seed = 4242;
    fc.straggler_rate = 0.05;
    fc.jitter = 0.1;
    fc.drop_rate = 0.02;
    fc.link_degrade_rate = 0.1;
    cfg.fault = fc;
  }
  return cfg;
}

/// n uniform particles. init_uniform gives every particle mass = charge
/// = 1, so a copy that skipped either lane could leave every bit of the
/// run unchanged; distinct values make the skip show.
particles::Block golden_input(const Sim::Config& cfg, const GoldenCase& gc) {
  auto ps = particles::init_uniform(gc.n, cfg.box, 2013, gc.migrating ? 1.0 : 0.01);
  for (auto& p : ps) {
    p.mass = 1.0f + 0.0625f * static_cast<float>(p.id % 9);
    p.charge = 0.5f + 0.125f * static_cast<float>((p.id * 5) % 7);
  }
  return ps;
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 14695981039346656037ull) noexcept {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex_bits(float v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", std::bit_cast<std::uint32_t>(v));
  return buf;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The canonical text of one run: `#` header lines (ignored by the
/// comparison), the initial-state hash, one line per particle (id, then
/// the bits of px py vx vy fx fy mass charge), the report fields and the
/// trace hash.
std::string golden_text(const GoldenCase& gc, const particles::Block& initial,
                        const RunResult& r) {
  const auto cfg = golden_config(gc);
  std::ostringstream out;
  out << "# Final state of one data-plane golden configuration after " << kSteps << " steps.\n"
      << "# config: " << sim::method_name(gc.method) << " p=" << gc.p << " c=" << gc.c
      << " cutoff=" << gc.cutoff << " fault=" << (gc.fault ? "4242" : "off")
      << " n=" << gc.n << " seed=2013 speed=" << (gc.migrating ? "1.0" : "0.01")
      << " dt=" << cfg.dt
      << " machine=hopper kernel={1e-4, 1e-2} mass/charge by id\n"
      << "# compiler: " << kCompiler << "\n"
      << "# regenerate: CANB_REGEN_GOLDEN=1 ./build/tests/test_data_plane"
         " --gtest_filter='DataPlaneBitwise.*'\n"
      << "# lines: initial-state hash; id px py vx vy fx fy mass charge (float bits);"
         " report fields (hexfloat); FNV-1a of the serialized trace\n";
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& p : initial) h = fnv1a(&p, sizeof p, h);
  out << "initial " << hex64(h) << "\n";
  for (const auto& p : r.state) {
    out << p.id << ' ' << hex_bits(p.px) << ' ' << hex_bits(p.py) << ' ' << hex_bits(p.vx) << ' '
        << hex_bits(p.vy) << ' ' << hex_bits(p.fx) << ' ' << hex_bits(p.fy) << ' '
        << hex_bits(p.mass) << ' ' << hex_bits(p.charge) << "\n";
  }
  const auto& rep = r.report;
  const std::pair<const char*, double> fields[] = {
      {"messages", rep.messages}, {"bytes", rep.bytes},         {"compute", rep.compute},
      {"broadcast", rep.broadcast}, {"skew", rep.skew},         {"shift", rep.shift},
      {"reduce", rep.reduce},     {"reassign", rep.reassign},   {"other", rep.other},
      {"wall", rep.wall},         {"imbalance", rep.imbalance}, {"retries", rep.retries},
      {"timeouts", rep.timeouts},
  };
  for (const auto& [name, v] : fields) out << "report " << name << ' ' << hexfloat(v) << "\n";
  out << "trace " << hex64(fnv1a(r.trace.data(), r.trace.size())) << "\n";
  return out.str();
}

std::vector<std::string> content_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

void expect_matches_golden(const std::string& path, const std::string& actual) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path << " — regenerate with CANB_REGEN_GOLDEN=1";
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto want = content_lines(ss.str());
  const auto got = content_lines(actual);
  ASSERT_FALSE(want.empty()) << "empty golden file " << path;
  ASSERT_FALSE(got.empty());
  // The initial state comes from the particle generator alone (its normal
  // draws go through libm): a mismatch here is the platform, not the data
  // plane, and every later line would differ with it.
  ASSERT_EQ(got.front(), want.front())
      << "initial-state hash differs from " << path
      << ": the particle generator's output changed on this platform";
  int shown = 0;
  int differing = 0;
  const std::size_t n = std::max(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string g = i < got.size() ? got[i] : "<missing>";
    const std::string w = i < want.size() ? want[i] : "<missing>";
    if (g == w) continue;
    ++differing;
    if (shown++ < 5)
      ADD_FAILURE() << path << " line " << i + 1 << ": got '" << g << "', want '" << w << "'";
  }
  EXPECT_EQ(differing, 0) << differing << " content lines differ from " << path
                          << "; if intended, regenerate with CANB_REGEN_GOLDEN=1";
}

/// Point-to-point re-assign messages that carried particles.
int nonempty_reassign_messages(const std::string& trace) {
  int n = 0;
  std::istringstream in(trace);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("p2p ", 0) == 0 && line.find(" phase=reassign ") != std::string::npos &&
        line.find(" bytes=0 ") == std::string::npos)
      ++n;
  }
  return n;
}

struct Arm {
  int threads = 1;
  bool routed = false;  ///< run over a routed vmpi::ModeledTransport
};

void check_golden_case(const GoldenCase& gc) {
  const std::string path = std::string(CANB_GOLDEN_DIR) + "/state_" + gc.name + ".txt";
  const bool regen = std::getenv("CANB_REGEN_GOLDEN") != nullptr;
  std::vector<Arm> arms;
  for (const bool routed : {false, true}) {
    if (routed && !sim::runs_over_transport(gc.method)) continue;
    for (const int threads : {1, 2, 8}) arms.push_back({threads, routed});
  }
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const Arm& arm = arms[a];
    SCOPED_TRACE(::testing::Message() << gc.name << ": " << arm.threads << " threads"
                                      << (arm.routed ? ", routed ModeledTransport" : ""));
    auto cfg = golden_config(gc);
    std::shared_ptr<vmpi::ModeledTransport> transport;
    if (arm.routed) {
      transport = std::make_shared<vmpi::ModeledTransport>(gc.p);
      cfg.transport = transport;
    }
    const auto initial = golden_input(cfg, gc);
    Sim s(cfg, initial);
    if (arm.threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(arm.threads));
    const RunResult r = run_traced(s, kSteps);
    if (transport) {
      EXPECT_GT(transport->stats().frames_sent, 0u) << "the run must use the fabric";
    }
    if (gc.migrating) {
      EXPECT_GT(nonempty_reassign_messages(r.trace), 0) << "no particle crossed a team boundary";
    }
    const std::string text = golden_text(gc, initial, r);
    if (regen && a == 0) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write golden file " << path;
      out << text;
      GTEST_LOG_(INFO) << "regenerated " << path;
    }
    expect_matches_golden(path, text);
  }
}

constexpr double kRc = 0.12;

TEST(DataPlaneBitwise, CaAllPairs) {
  check_golden_case({"ca_all_pairs_p16_c2", sim::Method::CaAllPairs, 16, 2, 0.0});
}

TEST(DataPlaneBitwise, CaCutoff) {
  check_golden_case({"ca_cutoff_p32_c2", sim::Method::CaCutoff, 32, 2, kRc});
}

TEST(DataPlaneBitwise, CaAllPairsUnderFaultInjection) {
  check_golden_case({"ca_all_pairs_p16_c2_fault", sim::Method::CaAllPairs, 16, 2, 0.0, true});
}

TEST(DataPlaneBitwise, CaCutoffUnderFaultInjection) {
  check_golden_case({"ca_cutoff_p32_c2_fault", sim::Method::CaCutoff, 32, 2, kRc, true});
}

TEST(DataPlaneBitwise, SpatialHaloReassign) {
  check_golden_case({"spatial_halo_p16", sim::Method::SpatialHalo, 16, 1, kRc});
}

// c >= 3: the team reduce folds rows 1..c-1 into the leader, so its serial
// fold order decides the low bits of every force.
TEST(DataPlaneBitwise, CaAllPairsFourTeamRows) {
  check_golden_case({"ca_all_pairs_p64_c4", sim::Method::CaAllPairs, 64, 4, 0.0});
}

// c = sqrt(p): the whole shift loop is one round, so every block pair's
// two sweeps fall in the same round (teams of 32 lanes).
TEST(DataPlaneBitwise, CaAllPairsOneRound) {
  check_golden_case({"ca_all_pairs_p64_c8", sim::Method::CaAllPairs, 64, 8, 0.0});
}

// c = sqrt(p) with uneven teams (64, 64, 63, 63): the sweeps' lane tails run.
TEST(DataPlaneBitwise, CaAllPairsOneRoundUnevenTeams) {
  check_golden_case({"ca_all_pairs_p16_c4_n254", sim::Method::CaAllPairs, 16, 4, 0.0, false,
                     false, 254});
}

TEST(DataPlaneBitwise, CaCutoffFourTeamRows) {
  check_golden_case({"ca_cutoff_p64_c4", sim::Method::CaCutoff, 64, 4, kRc});
}

// Migrating runs: re-assign routes real particles and compacts the blocks
// they leave, in every engine that re-assigns.
TEST(DataPlaneBitwise, CaCutoffMigrating) {
  check_golden_case(
      {"ca_cutoff_p32_c2_migrating", sim::Method::CaCutoff, 32, 2, kRc, false, true});
}

TEST(DataPlaneBitwise, SpatialHaloMigrating) {
  check_golden_case(
      {"spatial_halo_p16_migrating", sim::Method::SpatialHalo, 16, 1, kRc, false, true});
}

TEST(DataPlaneBitwise, MidpointMigrating) {
  check_golden_case({"midpoint_p16_migrating", sim::Method::Midpoint, 16, 1, kRc, false, true});
}

// --- BufferPool / SoaBlock capacity units ----------------------------------

SoaBlock filled_block(int n, float x0 = 0.25f) {
  SoaBlock b;
  for (int i = 0; i < n; ++i) {
    particles::Particle p;
    p.px = x0;
    p.py = 0.5f;
    p.id = i;
    p.mass = 1.0f;
    p.charge = 1.0f;
    b.push_back(p);
  }
  return b;
}

TEST(BufferPool, RecyclesCapacity) {
  vmpi::BufferPool<SoaBlock> pool;
  auto b = pool.acquire();
  EXPECT_EQ(pool.fresh_count(), 1u);
  for (int i = 0; i < 64; ++i) b.push_back(particles::Particle{});
  const auto cap = b.px.capacity();
  pool.release(std::move(b));
  auto b2 = pool.acquire();
  EXPECT_EQ(pool.reused_count(), 1u);
  EXPECT_EQ(b2.size(), 0u) << "recycled blocks come back empty";
  EXPECT_GE(b2.px.capacity(), cap) << "recycled blocks keep their lane capacity";
}

TEST(BufferPool, AcquireListReusesShellsAndBlocks) {
  vmpi::BufferPool<SoaBlock> pool;
  auto list = pool.acquire_list(8);
  ASSERT_EQ(list.size(), 8u);
  for (auto& b : list) b.push_back(particles::Particle{});
  pool.release_list(std::move(list));
  const auto fresh_before = pool.fresh_count();
  g_alloc_count.store(0);
  auto list2 = pool.acquire_list(8);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "steady-state acquire_list must not allocate";
  EXPECT_EQ(pool.fresh_count(), fresh_before) << "no fresh blocks on a warm pool";
  ASSERT_EQ(list2.size(), 8u);
  for (const auto& b : list2) EXPECT_EQ(b.size(), 0u);
  pool.release_list(std::move(list2));
}

TEST(SoaBlockAssign, AssignFromPreservesCapacityAndBits) {
  const auto src = filled_block(48);
  SoaBlock dst = filled_block(48, 0.75f);
  g_alloc_count.store(0);
  dst.assign_from(src);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "same-size assign_from must reuse capacity";
  ASSERT_EQ(dst.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.id[i], src.id[i]);
    EXPECT_TRUE(bits_equal(dst.px[i], src.px[i]));
  }
}

// --- zero-allocation steady state over the primitives hot path -------------

TEST(DataPlaneSteadyState, PrimitivesHotPathAllocatesNothing) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const int p = 16;
  const int c = 4;
  const auto g = vmpi::Grid2d::make(p, c);
  const int q = g.cols();
  vmpi::VirtualComm vc(p, machine::hopper());
  vmpi::DataPlane<SoaBlock> plane;  // no worker pool: serial fan-out

  // One resident block per leader: particles pinned to the center of team
  // t's 1D segment, so the re-assignment split finds no movers and the
  // route lists stay empty (the steady-state case for sane timesteps).
  const auto geom = core::CutoffGeometry::make_1d(q, 1);
  const auto box = particles::Box::reflective_2d(1.0);
  Policy policy(Policy::Config{box, {1e-4, 1e-2}, 0.25, 1e-4});
  std::vector<SoaBlock> bufs(static_cast<std::size_t>(p));
  for (int t = 0; t < q; ++t)
    bufs[static_cast<std::size_t>(g.leader(t))] =
        filled_block(32, (static_cast<float>(t) + 0.5f) / static_cast<float>(q));
  std::vector<SoaBlock> staged(static_cast<std::size_t>(p));
  std::vector<SoaBlock> scratch;
  std::vector<int> perm(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) perm[static_cast<std::size_t>(r)] = (r + q) % p;

  auto one_iteration = [&] {
    vmpi::broadcast_teams(vc, g, bufs, &Policy::bytes, plane);
    vmpi::stage_buffers(
        vc, bufs, staged,
        [](int, SoaBlock& dst, const SoaBlock& src) { vmpi::detail::assign_visitor(dst, src); },
        plane);
    vmpi::skew_rows(vc, g, [](int row) { return row; }, staged, &Policy::bytes, plane.ints);
    vmpi::shift_rows(vc, g, 1, staged, &Policy::bytes);
    vmpi::permute_buffers(vc, [&](int r) { return perm[static_cast<std::size_t>(r)]; }, staged,
                          scratch, &Policy::bytes, vmpi::Phase::Shift);
    vmpi::reduce_teams(vc, g, bufs, &Policy::bytes, core::TeamCombine<Policy>{}, plane);
    core::reassign_spatial(vc, g, geom, policy, bufs, vc.model(), plane);
  };

  for (int i = 0; i < 3; ++i) one_iteration();  // warm-up: grow every capacity

  g_alloc_count.store(0);
  for (int i = 0; i < 5; ++i) one_iteration();
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "primitives hot path must be allocation-free after warm-up";
}

// --- host-phase gauges ------------------------------------------------------

TEST(DataPlaneObservability, HostPhaseSecondsSurfaceAsGauges) {
  Sim::Config cfg;
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 16;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.dt = 1e-4;
  cfg.obs = obs::ObsLevel::Metrics;
  Sim s(cfg, particles::init_uniform(128, cfg.box, 2013, 0.01));
  s.run(2);
  s.finalize_telemetry();
  const auto& families = s.telemetry()->metrics().families();
  const auto it = families.find("canb_host_phase_seconds");
  ASSERT_NE(it, families.end()) << "host-phase gauge family missing at metrics level";
  EXPECT_FALSE(it->second.series.empty());
}

}  // namespace
