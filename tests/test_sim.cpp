// The Simulation facade and run reports: every method produces the same
// physics, reports decompose cleanly, and the facade validates its inputs.
#include <gtest/gtest.h>

#include <sstream>

#include "machine/presets.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "particles/reference.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace canb;
using particles::Block;
using particles::Box;
using particles::InverseSquareRepulsion;
using Sim = sim::Simulation<InverseSquareRepulsion>;

Sim::Config base_config() {
  Sim::Config cfg;
  cfg.machine = machine::laptop();
  cfg.box = Box::reflective_2d(1.0);
  cfg.kernel = InverseSquareRepulsion{1e-4, 1e-2};
  cfg.dt = 1e-4;
  return cfg;
}

// --- all methods agree with the reference and each other ----------------------

class MethodsAgree : public ::testing::TestWithParam<sim::Method> {};

TEST_P(MethodsAgree, OneStepMatchesReference) {
  auto cfg = base_config();
  cfg.method = GetParam();
  cfg.p = 16;
  cfg.c = cfg.method == sim::Method::CaAllPairs ? 2 : 1;
  if (cfg.method == sim::Method::CaCutoff || cfg.method == sim::Method::SpatialHalo)
    cfg.cutoff = 0.2;  // mx=1 window fits the 4x4 grid

  const auto init = particles::init_uniform(64, cfg.box, 77, 0.01);
  Sim s(cfg, init);
  s.step();
  auto got = s.gather();

  particles::SerialReference<InverseSquareRepulsion> ref(
      init, {cfg.box, cfg.kernel, cfg.dt, cfg.cutoff});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodsAgree,
                         ::testing::Values(sim::Method::CaAllPairs, sim::Method::CaCutoff,
                                           sim::Method::ParticleRing,
                                           sim::Method::ParticleAllGather,
                                           sim::Method::ForceDecomp,
                                           sim::Method::SpatialHalo),
                         [](const auto& pinfo) {
                           std::string n = sim::method_name(pinfo.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Simulation, CutoffIn1dBoxUses1dDecomposition) {
  auto cfg = base_config();
  cfg.method = sim::Method::CaCutoff;
  cfg.box = Box::reflective_1d(1.0);
  cfg.p = 16;
  cfg.c = 2;
  cfg.cutoff = 0.25;
  const auto init = particles::init_uniform(64, cfg.box, 3, 0.01);
  Sim s(cfg, init);
  s.run(3);
  auto got = s.gather();

  particles::SerialReference<InverseSquareRepulsion> ref(
      init, {cfg.box, cfg.kernel, cfg.dt, cfg.cutoff});
  ref.run(3);
  auto want = ref.particles();
  particles::sort_by_id(want);
  EXPECT_LT(particles::max_position_deviation(got, want), 1e-4);
}

// --- reports ---------------------------------------------------------------------

TEST(Report, PhasesSumToTotalAndTotalMatchesClock) {
  auto cfg = base_config();
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 16;
  cfg.c = 2;
  const auto init = particles::init_uniform(64, cfg.box, 5, 0.0);
  Sim s(cfg, init);
  s.run(4);
  const auto rep = s.report();
  EXPECT_EQ(rep.steps, 4);
  EXPECT_EQ(rep.p, 16);
  EXPECT_EQ(rep.c, 2);
  EXPECT_GT(rep.compute, 0.0);
  EXPECT_GT(rep.total(), rep.compute);
  // Wall is the true critical path; the per-phase maxima sum to at least it.
  EXPECT_NEAR(rep.wall * 4, s.comm().max_clock(), 1e-12);
  EXPECT_GE(rep.total() + 1e-15, rep.wall);
  // Phase maxima can come from different ranks (leaders bound compute,
  // row>0 ranks bound the skew), but the overshoot stays modest.
  EXPECT_LT(rep.total(), rep.wall * 1.5);
}

TEST(Report, PrintAndCsvContainLabel) {
  auto cfg = base_config();
  cfg.p = 4;
  const auto init = particles::init_uniform(16, cfg.box, 5, 0.0);
  Sim s(cfg, init);
  s.step();
  std::vector<sim::RunReport> reps{s.report("my-run")};
  std::ostringstream os;
  sim::print_reports(os, reps);
  EXPECT_NE(os.str().find("my-run"), std::string::npos);
  EXPECT_NE(os.str().find("total"), std::string::npos);
}

// --- validation --------------------------------------------------------------------

TEST(Simulation, RejectsCutoffMethodWithoutCutoff) {
  auto cfg = base_config();
  cfg.method = sim::Method::CaCutoff;
  cfg.p = 4;
  const auto init = particles::init_uniform(16, cfg.box, 5);
  EXPECT_THROW(Sim(cfg, init), PreconditionError);
}

TEST(Simulation, NearSquareFactors) {
  EXPECT_EQ(sim::near_square_factors(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(sim::near_square_factors(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(sim::near_square_factors(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(sim::near_square_factors(1), (std::pair<int, int>{1, 1}));
}

// --- physics sanity through the facade -----------------------------------------------

TEST(Simulation, RepulsionSpreadsParticlesApart) {
  auto cfg = base_config();
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 8;
  cfg.c = 2;
  cfg.kernel = InverseSquareRepulsion{1e-3, 1e-2};
  cfg.dt = 1e-3;
  // Clustered start: repulsion must grow the mean pairwise distance.
  const auto init = particles::init_clusters(32, cfg.box, 1, 0.02, 9);
  auto mean_r = [](const Block& ps) {
    double acc = 0;
    int cnt = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      for (std::size_t j = i + 1; j < ps.size(); ++j) {
        const double dx = static_cast<double>(ps[i].px) - ps[j].px;
        const double dy = static_cast<double>(ps[i].py) - ps[j].py;
        acc += std::sqrt(dx * dx + dy * dy);
        ++cnt;
      }
    }
    return acc / cnt;
  };
  const double before = mean_r(init);
  Sim s(cfg, init);
  s.run(50);
  const double after = mean_r(s.gather());
  EXPECT_GT(after, before * 1.05);
}

TEST(Simulation, AParticleFlungFarOutStillSteps) {
  // One particle far outside the box, or light enough that one step flings
  // it there, once spun the reflective fold ~|x|/l times, forever past
  // ~2^53 l. The check is that run() returns.
  auto cfg = base_config();
  cfg.method = sim::Method::CaCutoff;
  cfg.p = 16;
  cfg.cutoff = 0.2;
  for (const bool light : {false, true}) {
    auto init = particles::init_uniform(64, cfg.box, 5);
    if (light) {
      init[0].mass = 1e-30f;
    } else {
      init[0].px = 1e30f;
    }
    Sim s(cfg, init);
    s.run(2);
    EXPECT_EQ(s.steps_taken(), 2);
  }
}

TEST(Simulation, StepCountTracks) {
  auto cfg = base_config();
  cfg.p = 4;
  const auto init = particles::init_uniform(16, cfg.box, 5);
  Sim s(cfg, init);
  EXPECT_EQ(s.steps_taken(), 0);
  s.run(3);
  EXPECT_EQ(s.steps_taken(), 3);
}

}  // namespace
