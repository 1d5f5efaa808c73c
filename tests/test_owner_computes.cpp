// Owner-computes acceptance: with --transport=socket and G > 1 groups each
// OS process runs force sweeps only for its owned ranks, yet the message
// trace, CostLedger-derived report, and the gathered trajectory stay
// bitwise identical to the single-process modeled arm, across both CA
// engines, group counts and host thread counts.
//
// Two families of checks:
//   * Parity matrix (groups {2,4} x threads {1,2} x engines): every
//     process self-checks trace + gathered state + report against the
//     pre-fork modeled baseline.
//   * Work partition: per-group canb_sweep_pairs_computed_total series (the
//     mesh-merged registry on group 0) must sum to the single-process
//     total, with every group contributing a strictly partial share — the
//     proof that the mesh actually divides the sweeps instead of
//     replicating them.
//
// Fork discipline mirrors tests/test_transport_e2e.cpp: baseline before the
// fork (no live threads at fork time — the baseline's ThreadPool dies with
// its Simulation), children compare and _Exit, the transport endpoint is
// destroyed (close barrier) before children are reaped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "machine/presets.hpp"
#include "obs/metrics.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "tests/parity.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"

namespace {

using namespace canb;
using namespace canb::parity;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

constexpr int kSteps = 4;

Sim::Config base_config(sim::Method method) {
  Sim::Config cfg;
  cfg.method = method;
  // The cutoff engine needs a team grid wide enough for its halo window
  // (2*m+1 <= q per axis), so it runs at p=32 like the transport e2e; the
  // all-pairs arm keeps a tighter p=8 mesh to exercise 1-rank groups.
  cfg.p = method == sim::Method::CaCutoff ? 32 : 8;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  if (method == sim::Method::CaCutoff) cfg.cutoff = 0.12;
  cfg.dt = 1e-4;
  return cfg;
}

RunResult run_arm(sim::Method method, int threads, std::shared_ptr<vmpi::Transport> transport) {
  Sim::Config cfg = base_config(method);
  cfg.transport = std::move(transport);
  Sim s(cfg, particles::init_uniform(96, cfg.box, 2013, 0.01));
  if (threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(threads));
  return run_traced(s, kSteps);
}

/// Every group self-checks; forked children compare with the plain-bool
/// runs_equal (no gtest there) and report through their exit status.
void run_parity_case(sim::Method method, int groups, int threads) {
  // Baseline first: forked children inherit it and self-check against it.
  const auto want = run_arm(method, threads, nullptr);
  const std::string dir = vmpi::make_rendezvous_dir();

  vmpi::ProcessGroup pg(groups);
  bool ok = false;
  {
    vmpi::SocketConfig sc;
    sc.ranks = base_config(method).p;
    sc.groups = groups;
    sc.group = pg.group();
    sc.dir = dir;
    auto t = std::make_shared<vmpi::SocketTransport>(sc);
    const auto got = run_arm(method, threads, t);
    ok = runs_equal(got, want);
    // Scope exit drops the endpoint: the close barrier runs here, while
    // every process is still alive.
  }
  if (!pg.primary()) std::_Exit(ok ? 0 : 1);

  EXPECT_TRUE(ok) << "owner-computes arm diverged from the modeled baseline in group 0";
  EXPECT_EQ(pg.wait_children(), 0) << "a child group diverged or crashed";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// The matrix: groups {2, 4} x threads {1, 2} for each method.
TEST(OwnerComputes, AllPairsTwoGroupsClean) { run_parity_case(sim::Method::CaAllPairs, 2, 1); }
TEST(OwnerComputes, AllPairsFourGroupsClean) { run_parity_case(sim::Method::CaAllPairs, 4, 2); }
TEST(OwnerComputes, AllPairsTwoGroupsTwoThreads) {
  run_parity_case(sim::Method::CaAllPairs, 2, 2);
}
TEST(OwnerComputes, AllPairsFourGroupsOneThread) {
  run_parity_case(sim::Method::CaAllPairs, 4, 1);
}
TEST(OwnerComputes, CutoffTwoGroupsClean) { run_parity_case(sim::Method::CaCutoff, 2, 2); }
TEST(OwnerComputes, CutoffFourGroupsClean) { run_parity_case(sim::Method::CaCutoff, 4, 1); }
TEST(OwnerComputes, CutoffTwoGroupsOneThread) { run_parity_case(sim::Method::CaCutoff, 2, 1); }
TEST(OwnerComputes, CutoffFourGroupsTwoThreads) {
  run_parity_case(sim::Method::CaCutoff, 4, 2);
}

std::uint64_t sum_counter(const obs::MetricsRegistry& reg, const std::string& name,
                          std::size_t* n_series = nullptr) {
  std::uint64_t sum = 0;
  const auto it = reg.families().find(name);
  if (it == reg.families().end()) return 0;
  if (n_series != nullptr) *n_series = it->second.series.size();
  for (const auto& [key, series] : it->second.series) {
    sum += std::get<obs::Counter>(series.metric).value();
  }
  return sum;
}

/// Each process must sweep ONLY its owned ranks' pairs: the group-labeled
/// canb_sweep_pairs_computed_total series in the mesh-merged registry sum
/// to the single-process total, and each group's share is strictly partial.
/// The computed series partition only because this mesh keeps both ranks
/// of every paired sweep in one group (partners share a grid row at p=8,
/// c=2); the examined series (canb_sweep_pairs_total) partition always.
TEST(OwnerComputes, SweepPairsPartitionAcrossGroups) {
  // Single-process totals from the modeled arm. Full level so the bulk fast
  // path is off in both arms and every sweep hits the telemetry hook.
  std::uint64_t want_total = 0;
  std::uint64_t want_examined = 0;
  {
    Sim::Config cfg = base_config(sim::Method::CaAllPairs);
    cfg.obs = obs::ObsLevel::Full;
    Sim s(cfg, particles::init_uniform(96, cfg.box, 2013, 0.01));
    s.run(kSteps);
    s.finalize_telemetry();
    want_total = s.telemetry()->sweep_pairs_computed();
    want_examined = s.telemetry()->sweep_pairs_examined();
  }
  ASSERT_GT(want_total, 0u);
  ASSERT_GT(want_examined, want_total);  // pairing evaluates pairs once

  const std::string dir = vmpi::make_rendezvous_dir();
  constexpr int kGroups = 2;
  vmpi::ProcessGroup pg(kGroups);
  bool ok = false;
  bool partition_ok = false;
  {
    vmpi::SocketConfig sc;
    sc.ranks = 8;
    sc.groups = kGroups;
    sc.group = pg.group();
    sc.dir = dir;
    auto t = std::make_shared<vmpi::SocketTransport>(sc);
    Sim::Config cfg = base_config(sim::Method::CaAllPairs);
    cfg.transport = t;
    cfg.obs = obs::ObsLevel::Full;
    Sim s(cfg, particles::init_uniform(96, cfg.box, 2013, 0.01));
    s.run(kSteps);
    s.finalize_telemetry();  // symmetric: final mesh push runs on every group
    const std::uint64_t mine = s.telemetry()->sweep_pairs_computed();
    ok = mine > 0 && mine < want_total;
    if (pg.primary()) {
      std::size_t n_series = 0;
      const auto merged = s.merged_metrics();
      const std::uint64_t sum =
          sum_counter(merged, "canb_sweep_pairs_computed_total", &n_series);
      std::size_t n_examined = 0;
      const std::uint64_t examined = sum_counter(merged, "canb_sweep_pairs_total", &n_examined);
      partition_ok = sum == want_total && n_series == static_cast<std::size_t>(kGroups) &&
                     examined == want_examined &&
                     n_examined == static_cast<std::size_t>(kGroups);
    }
  }
  if (!pg.primary()) std::_Exit(ok ? 0 : 1);

  EXPECT_TRUE(ok) << "group 0 swept zero pairs or the full single-process workload";
  EXPECT_TRUE(partition_ok) << "per-group canb_sweep_pairs_computed_total or "
                               "canb_sweep_pairs_total did not sum to the single-process total";
  EXPECT_EQ(pg.wait_children(), 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
