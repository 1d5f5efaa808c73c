// Cross-backend parity: running a full simulation over a *real* transport
// (routed modeled queues, or a genuine 2-process-group Unix-socket mesh
// driven in-process) must be bitwise identical to the no-transport modeled
// arm — trajectories, every CostLedger-derived report field, and the full
// serialized message trace. The matrix extends tests/test_data_plane.cpp's
// idiom: backends x CA engines x host thread counts.
//
// Why this is a strong test: the primitives charge costs BEFORE bytes move
// (charge-before-move), but receivers ADOPT the wire bytes, so the channel
// is load-bearing for trajectories. A serialization bug, a flow mix-up, a
// lost frame, or a fold-order change in the transport reduce arm all show
// up as a bitwise diff here.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>

#include "machine/presets.hpp"
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

constexpr int kSteps = 3;

// --- one arm of the matrix ---------------------------------------------------

struct Case {
  sim::Method method = sim::Method::CaAllPairs;
  double cutoff = 0.0;
  int p = 16;
};

constexpr Case kAllPairs{sim::Method::CaAllPairs, 0.0, 16};
constexpr Case kCutoff{sim::Method::CaCutoff, 0.12, 32};

RunResult run_arm(const Case& cs, int threads, std::shared_ptr<vmpi::Transport> transport) {
  Sim::Config cfg;
  cfg.method = cs.method;
  cfg.p = cs.p;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = cs.cutoff;
  cfg.dt = 1e-4;
  cfg.transport = std::move(transport);
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  if (threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(threads));
  return run_traced(s, kSteps);
}

// --- the routed modeled backend across host thread counts --------------------

void run_single_endpoint_matrix(const Case& cs) {
  const auto want = run_arm(cs, /*threads=*/1, nullptr);  // the modeled arm
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "routed modeled, " << threads << " threads");
    auto t = std::make_shared<vmpi::ModeledTransport>(cs.p);
    expect_run_equal(run_arm(cs, threads, t), want);
    EXPECT_GT(t->stats().frames_sent, 0u) << "the run must actually use the fabric";
  }
}

TEST(TransportParity, CaAllPairsSingleEndpointBackends) { run_single_endpoint_matrix(kAllPairs); }

TEST(TransportParity, CaCutoffSingleEndpointBackends) { run_single_endpoint_matrix(kCutoff); }

// --- the socket mesh: two process groups, owner-computes, in-process ---------
//
// Each group sweeps only the ranks it owns and adopts wire bytes for them;
// gather() then all-gathers the team blocks, so both groups must finish
// bitwise identical to the modeled arm — group 0's output is
// authoritative, group 1 matching too pins the gather.

void run_socket_matrix(const Case& cs, int threads) {
  const auto want = run_arm(cs, 1, nullptr);
  const std::string dir = vmpi::make_rendezvous_dir();
  RunResult results[2];
  std::uint64_t wire_frames[2] = {0, 0};
  auto group_main = [&](int group) {
    vmpi::SocketConfig sc;
    sc.ranks = cs.p;
    sc.groups = 2;
    sc.group = group;
    sc.dir = dir;
    auto t = std::make_shared<vmpi::SocketTransport>(sc);  // blocks on rendezvous
    results[group] = run_arm(cs, threads, t);
    wire_frames[group] = t->stats().frames_sent;
    // `t` (the last reference) dies here: close barrier against the peer
    // group, which is why both groups run concurrently.
  };
  std::thread other(group_main, 1);
  group_main(0);
  other.join();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    SCOPED_TRACE("socket group 0");
    expect_run_equal(results[0], want);
  }
  {
    SCOPED_TRACE("socket group 1 (gathered)");
    expect_run_equal(results[1], want);
  }
  EXPECT_GT(wire_frames[0], 0u);
  EXPECT_GT(wire_frames[1], 0u);
}

TEST(TransportParity, CaAllPairsSocketMesh) { run_socket_matrix(kAllPairs, /*threads=*/1); }

TEST(TransportParity, CaCutoffSocketMesh) { run_socket_matrix(kCutoff, 1); }

TEST(TransportParity, CaAllPairsSocketMeshThreadedHosts) {
  run_socket_matrix(kAllPairs, /*threads=*/8);
}

// --- transports compose with the modeled fault injection ---------------------
//
// PerturbationModel perturbs modeled *costs*; the transport moves real
// bytes. They must stack without interfering: faulted-modeled and the
// faulted routed transport agree bitwise (including retry/timeout ledger
// fields).

TEST(TransportParity, RoutedModeledUnderFaultInjectionMatchesModeled) {
  auto faulted = [](std::shared_ptr<vmpi::Transport> t) {
    Sim::Config cfg;
    cfg.method = sim::Method::CaAllPairs;
    cfg.p = 16;
    cfg.c = 2;
    cfg.machine = machine::hopper();
    cfg.kernel = {1e-4, 1e-2};
    cfg.dt = 1e-4;
    vmpi::FaultConfig fc;
    fc.seed = 4242;
    fc.straggler_rate = 0.05;
    fc.jitter = 0.1;
    fc.drop_rate = 0.02;
    fc.link_degrade_rate = 0.1;
    cfg.fault = fc;
    cfg.transport = std::move(t);
    Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
    return run_traced(s, kSteps);
  };
  const auto want = faulted(nullptr);
  auto t = std::make_shared<vmpi::ModeledTransport>(16);
  expect_run_equal(faulted(t), want);
  EXPECT_GT(t->stats().frames_sent, 0u) << "the run must actually use the fabric";
}

}  // namespace
