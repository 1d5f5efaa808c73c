// The resident-layout acceptance contract: host execution knobs — the
// engine the resident force sweep runs on (its scalar, SSE2 and AVX2
// backend bodies: test pass and lane pipelines) and the host thread count —
// must change NOTHING observable in the simulation. Trajectories and forces are bitwise
// identical (particles/sweep.hpp keeps every backend op-for-op equal to the
// AoS reference, and the force-lane precision invariant in soa_block.hpp
// makes the folds exact), and the virtual-time ledger agrees field by
// field, because every charge derives from particle counts and
// examined-pair counts, never from how the host stores or sweeps the lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "particles/simd/simd.hpp"
#include "sim/simulation.hpp"
#include "support/parallel.hpp"
#include "tests/parity.hpp"

namespace {

using namespace canb;
using namespace canb::parity;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

constexpr int kSteps = 3;
const int kThreadCounts[] = {1, 2, 8};
namespace simd = particles::simd;

/// Restores the process-wide SIMD dispatch when a matrix finishes, so a
/// failing case cannot leak a pinned backend into later tests.
struct BackendGuard {
  simd::Backend saved = simd::active();
  ~BackendGuard() { simd::set_backend(saved); }
};

Sim make_sim(sim::Method method, double cutoff, int threads) {
  Sim::Config cfg;
  cfg.method = method;
  cfg.p = method == sim::Method::CaCutoff ? 32 : 16;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = cutoff;
  cfg.dt = 1e-4;
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  if (threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(threads));
  return s;
}

void run_matrix(sim::Method method, double cutoff) {
  BackendGuard guard;
  // Baseline: single-threaded scalar backend.
  simd::set_backend(simd::Backend::Scalar);
  auto baseline = make_sim(method, cutoff, 1);
  baseline.run(kSteps);
  const auto want_state = baseline.gather();
  const auto want_report = baseline.report();

  for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
    const auto backend = static_cast<simd::Backend>(b);
    simd::set_backend(backend);
    for (const int threads : kThreadCounts) {
      if (backend == simd::Backend::Scalar && threads == 1) continue;
      SCOPED_TRACE(::testing::Message()
                   << simd::backend_name(backend) << " backend, " << threads << " threads");
      auto s = make_sim(method, cutoff, threads);
      s.run(kSteps);
      expect_state_bitwise_equal(s.gather(), want_state);
      expect_report_field_equal(s.report(), want_report);
    }
  }
}

TEST(LayoutInvariance, CaAllPairsBitwiseAcrossEnginesAndThreads) {
  run_matrix(sim::Method::CaAllPairs, 0.0);
}

TEST(LayoutInvariance, CaCutoffBitwiseAcrossEnginesAndThreads) {
  run_matrix(sim::Method::CaCutoff, 0.12);
}

}  // namespace
