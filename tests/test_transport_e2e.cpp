// End-to-end multi-process acceptance: a 4-rank-group socket simulation —
// four OS processes, a full Unix-domain-socket mesh, real serialized
// payloads — must produce trajectories, CostLedger-derived report fields,
// and a full message trace bitwise identical to the single-process modeled
// arm. This is the ISSUE's acceptance gate and CI's transport e2e job.
//
// Fork discipline: the modeled baseline is computed BEFORE the fork (so
// every process inherits it and can self-check), the ProcessGroup forks
// before any thread exists, children compare and _Exit (no gtest teardown
// in a forked child), and the parent asserts its own comparison plus that
// every child exited zero. The transport endpoint is destroyed before
// children are reaped — its destructor barriers against the peers.
//
// The failure half of the contract: a group that dies without tearing its
// endpoint down must fail the survivor with a TransportError within a
// bounded time, not leave it waiting forever.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include <unistd.h>

#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "tests/parity.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"

namespace {

using namespace canb;
using namespace canb::parity;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

constexpr int kSteps = 10;

Sim::Config base_config() {
  Sim::Config cfg;
  cfg.method = sim::Method::CaCutoff;
  cfg.p = 32;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = 0.12;
  cfg.dt = 1e-4;
  return cfg;
}

RunResult run_arm(std::shared_ptr<vmpi::Transport> transport) {
  Sim::Config cfg = base_config();
  cfg.transport = std::move(transport);
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  return run_traced(s, kSteps);
}

void run_four_process_case(double drop_rate) {
  // Baseline first: forked children inherit it and self-check against it.
  const auto want = run_arm(nullptr);
  const std::string dir = vmpi::make_rendezvous_dir();

  vmpi::ProcessGroup pg(4);  // forks 3 children; parent is group 0
  bool ok = false;
  {
    vmpi::SocketConfig sc;
    sc.ranks = 32;
    sc.groups = 4;
    sc.group = pg.group();
    sc.dir = dir;
    sc.drop_rate = drop_rate;
    sc.drop_seed = 7;
    auto t = std::make_shared<vmpi::SocketTransport>(sc);
    const auto got = run_arm(t);
    ok = runs_equal(got, want);
    if (pg.primary() && drop_rate > 0.0) {
      // The lossy arm must actually have exercised the reliable channel.
      ok = ok && t->stats().retransmits > 0;
    }
    // Scope exit drops the last reference: flush + close-barrier runs here,
    // while all four processes are still alive.
  }
  if (!pg.primary()) std::_Exit(ok ? 0 : 1);

  EXPECT_TRUE(ok) << "socket arm diverged from the modeled baseline in group 0";
  EXPECT_EQ(pg.wait_children(), 0) << "a child group diverged or crashed";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(TransportE2E, FourProcessSocketMatchesModeledBitwise) { run_four_process_case(0.0); }

TEST(TransportE2E, FourProcessSocketRecoversFromDropInjection) {
  run_four_process_case(/*drop_rate=*/0.1);
}

// Group 1 dies after a few steps without tearing its endpoint down (no
// flush, no close barrier, no orderly shutdown). Group 0's next step needs
// frames group 1 will never send: it must throw a TransportError naming
// the lost group within the deadline, and its own teardown must not hang.
TEST(TransportE2E, DeadPeerFailsTheSurvivorWithinDeadline) {
  constexpr int kStepsBeforeDeath = 3;
  constexpr double kDeadlineSeconds = 10.0;
  const std::string dir = vmpi::make_rendezvous_dir();
  vmpi::ProcessGroup pg(2);
  bool threw = false;
  std::string what;
  double waited = 0.0;
  {
    vmpi::SocketConfig sc;
    sc.ranks = 32;
    sc.groups = 2;
    sc.group = pg.group();
    sc.dir = dir;
    auto t = std::make_shared<vmpi::SocketTransport>(sc);
    Sim::Config cfg = base_config();
    cfg.transport = t;
    Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
    s.run(kStepsBeforeDeath);
    t->barrier();  // both groups are past step k before one of them dies
    if (!pg.primary()) std::_Exit(0);  // dies holding its endpoint open

    // A regression here is a hang: SIGALRM's default action ends the test
    // process well before ctest's own timeout would.
    ::alarm(2 * static_cast<unsigned>(kDeadlineSeconds));
    const auto start = std::chrono::steady_clock::now();
    try {
      s.step();
    } catch (const vmpi::TransportError& e) {
      threw = true;
      what = e.what();
    }
    waited = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ::alarm(0);
  }  // teardown with a gone peer: no flush, no barrier

  EXPECT_TRUE(threw) << "the step after the peer died did not throw TransportError";
  EXPECT_LT(waited, kDeadlineSeconds);
  EXPECT_NE(what.find("group 0 lost peer group 1"), std::string::npos) << what;
  EXPECT_NE(what.find("src "), std::string::npos) << "the message names the flow: " << what;
  EXPECT_EQ(pg.wait_children(), 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
