// CA all-pairs engine (Algorithm 1): physics correctness against the serial
// reference, schedule coverage, degeneracy to the baselines, and exactness
// of the phantom bulk fast path.
#include <gtest/gtest.h>

#include "core/ca_all_pairs.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "decomp/particle_decomposition.hpp"
#include "machine/presets.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "particles/reference.hpp"
#include "support/stats.hpp"

namespace {

using namespace canb;
using particles::Block;
using particles::Box;
using particles::InverseSquareRepulsion;
using Policy = core::RealPolicy<InverseSquareRepulsion>;
using Engine = core::CaAllPairs<Policy>;

Engine make_engine(const Block& all, int p, int c, double dt = 1e-4) {
  const Box box = Box::reflective_2d(1.0);
  Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.0, dt});
  return Engine({p, c, machine::laptop()}, std::move(policy),
                decomp::split_even(all, p / c));
}

Block gather(const Engine& e) {
  auto all = decomp::concat(e.team_results());
  particles::sort_by_id(all);
  return all;
}

// --- force correctness across (n, p, c) ----------------------------------

struct Param {
  int n;
  int p;
  int c;
};

class CaForces : public ::testing::TestWithParam<Param> {};

TEST_P(CaForces, MatchesSerialReferenceForcesAfterOneStep) {
  const auto [n, p, c] = GetParam();
  const Box box = Box::reflective_2d(1.0);
  const InverseSquareRepulsion kernel{1e-4, 1e-2};
  const auto init = particles::init_uniform(n, box, /*seed=*/42, /*speed=*/0.01);

  auto engine = make_engine(init, p, c);
  engine.step();
  const Block got = gather(engine);

  particles::SerialReference<InverseSquareRepulsion> ref(init, {box, kernel, 1e-4});
  ref.step();
  Block want = ref.particles();
  particles::sort_by_id(want);

  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 2e-4);
  EXPECT_LT(particles::max_position_deviation(got, want), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaForces,
    ::testing::Values(Param{32, 4, 1}, Param{32, 4, 2}, Param{48, 8, 2}, Param{64, 16, 1},
                      Param{64, 16, 2}, Param{64, 16, 4}, Param{60, 9, 3}, Param{100, 25, 5},
                      Param{33, 16, 4}, Param{128, 36, 6}, Param{70, 12, 2}, Param{8, 1, 1},
                      Param{5, 4, 2}, Param{96, 32, 4}, Param{150, 49, 7}, Param{64, 64, 8},
                      Param{90, 18, 3}, Param{41, 25, 5},
                      // p/c^2 = 3 is odd: offsets 4 and 5 pair in the
                      // middle round, from different rows.
                      Param{54, 27, 3}),
    [](const auto& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_p" + std::to_string(pinfo.param.p) + "_c" +
             std::to_string(pinfo.param.c);
    });

TEST(CaAllPairs, MultiStepTrajectoryTracksReference) {
  const int n = 40;
  const Box box = Box::reflective_2d(1.0);
  const InverseSquareRepulsion kernel{1e-4, 1e-2};
  const auto init = particles::init_uniform(n, box, 7, 0.02);

  auto engine = make_engine(init, 8, 2, 5e-4);
  engine.run(10);
  const Block got = gather(engine);

  particles::SerialReference<InverseSquareRepulsion> ref(init, {box, kernel, 5e-4});
  ref.run(10);
  Block want = ref.particles();
  particles::sort_by_id(want);
  EXPECT_LT(particles::max_position_deviation(got, want), 1e-4);
}

// --- replication validity -------------------------------------------------

TEST(CaAllPairs, RejectsInvalidReplicationFactors) {
  EXPECT_TRUE(vmpi::valid_all_pairs_replication(16, 4));
  EXPECT_TRUE(vmpi::valid_all_pairs_replication(16, 2));
  EXPECT_TRUE(vmpi::valid_all_pairs_replication(16, 1));
  EXPECT_FALSE(vmpi::valid_all_pairs_replication(16, 8));    // 8^2 > 16
  EXPECT_FALSE(vmpi::valid_all_pairs_replication(16, 3));  // 3 does not divide 16
  EXPECT_TRUE(vmpi::valid_all_pairs_replication(12, 2));   // q=6, c|q holds
  EXPECT_FALSE(vmpi::valid_all_pairs_replication(12, 3));  // q=4, 3 does not divide 4
  EXPECT_TRUE(vmpi::valid_all_pairs_replication(6144, 32));  // the paper's Fig 2a extreme
  const auto all = particles::init_uniform(16, Box::reflective_2d(1.0), 1);
  EXPECT_THROW(make_engine(all, 16, 8), PreconditionError);
}

// --- degeneracy: c = 1 equals the systolic ring ---------------------------

TEST(CaAllPairs, DegeneratesToParticleRingAtCEquals1) {
  const int n = 64;
  const int p = 8;
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(n, box, 3, 0.0);

  auto ca = make_engine(init, p, 1);
  ca.step();

  Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
  decomp::ParticleDecompositionRing<Policy> ring({p, machine::laptop()}, std::move(policy),
                                                 decomp::split_even(init, p));
  ring.step();

  const auto& la = ca.comm().ledger();
  const auto& lb = ring.comm().ledger();
  EXPECT_EQ(la.critical_messages(), lb.critical_messages());
  EXPECT_EQ(la.critical_bytes(), lb.critical_bytes());
  EXPECT_DOUBLE_EQ(ca.comm().max_clock(), ring.comm().max_clock());
}

// --- phantom bulk fast path is exact ---------------------------------------

TEST(CaAllPairs, PhantomBulkPathMatchesPerStepPath) {
  const int p = 64;
  const int c = 4;
  const std::uint64_t per_team = 8;
  const auto mk = [&](bool bulk) {
    core::PhantomPolicy policy({0.05, bulk});
    std::vector<core::PhantomBlock> blocks(static_cast<std::size_t>(p / c), {per_team});
    return core::CaAllPairs<core::PhantomPolicy>({p, c, machine::hopper()}, policy,
                                                 std::move(blocks));
  };
  auto bulk = mk(true);
  auto slow = mk(false);
  bulk.run(3);
  slow.run(3);
  EXPECT_NEAR(bulk.comm().max_clock(), slow.comm().max_clock(), 1e-12);
  EXPECT_EQ(bulk.comm().ledger().critical_messages(), slow.comm().ledger().critical_messages());
  EXPECT_EQ(bulk.comm().ledger().critical_bytes(), slow.comm().ledger().critical_bytes());
  EXPECT_EQ(bulk.comm().ledger().aggregate_messages(), slow.comm().ledger().aggregate_messages());
  for (int ph = 0; ph < vmpi::kPhaseCount; ++ph) {
    const auto phase = static_cast<vmpi::Phase>(ph);
    EXPECT_NEAR(bulk.comm().ledger().aggregate(phase).seconds,
                slow.comm().ledger().aggregate(phase).seconds, 1e-9)
        << phase_name(phase);
  }
}

// --- phantom matches real ledgers (schedule/payload split) -----------------

TEST(CaAllPairs, PhantomLedgerMatchesRealLedger) {
  const int n = 64;
  const int p = 16;
  const int c = 2;
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(n, box, 11, 0.0);

  auto real_engine = make_engine(init, p, c);
  real_engine.step();

  core::PhantomPolicy policy({0.05, false});
  std::vector<core::PhantomBlock> blocks;
  for (const auto& b : decomp::split_even(init, p / c)) blocks.push_back({b.size()});
  core::CaAllPairs<core::PhantomPolicy> phantom({p, c, machine::laptop()}, policy,
                                                std::move(blocks));
  phantom.step();

  const auto& lr = real_engine.comm().ledger();
  const auto& lp = phantom.comm().ledger();
  EXPECT_EQ(lr.critical_messages(), lp.critical_messages());
  EXPECT_EQ(lr.critical_bytes(), lp.critical_bytes());
  EXPECT_NEAR(real_engine.comm().max_clock(), phantom.comm().max_clock(), 1e-12);
}

// --- schedule coverage: every pair of teams meets exactly once --------------

TEST(CaAllPairs, EveryTeamPairMeetsExactlyOnce) {
  // Give each team a single particle with unit charge; after one step each
  // particle must have examined exactly n-1 partners. We detect coverage by
  // interaction counts in the ledger's compute seconds (gamma per pair).
  const int p = 36;
  const int c = 3;
  const int q = p / c;
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(q, box, 5, 0.0);  // one particle per team

  auto engine = make_engine(init, p, c);
  engine.step();
  // Total examined pairs across all ranks must be exactly n*(n-1) with
  // n == q (every ordered pair once).
  const double gamma = machine::laptop().gamma;
  const auto compute =
      engine.comm().ledger().aggregate(vmpi::Phase::Compute).seconds;
  const double integrate_flops =
      machine::laptop().gamma_flop * core::kIntegrateFlopsPerParticle * q;
  const double pairs = (compute - integrate_flops) / gamma;
  EXPECT_NEAR(pairs, static_cast<double>(q) * (q - 1), 1e-6);
}

// --- communication scaling: W ~ 1/c, S ~ 1/c^2 -----------------------------

TEST(CaAllPairs, CriticalPathBytesScaleInverselyWithC) {
  const int p = 64;
  const int n = 256;
  const auto init = particles::init_uniform(n, Box::reflective_2d(1.0), 9, 0.0);
  std::vector<double> cs;
  std::vector<double> shift_bytes;
  for (int c : {1, 2, 4}) {  // c=8 has p/c^2 = 1: zero shift rounds
    auto engine = make_engine(init, p, c);
    engine.step();
    const auto breakdown = engine.comm().ledger().critical_breakdown();
    const auto shift = breakdown[static_cast<std::size_t>(vmpi::Phase::Shift)];
    cs.push_back(c);
    shift_bytes.push_back(static_cast<double>(shift.bytes));
  }
  // Shift traffic: (p/c^2 - 1) messages of c*n/p particles — ~ n/c with a
  // finite-size correction, so the log-log slope sits a bit below -1.
  for (std::size_t i = 0; i + 1 < cs.size(); ++i)
    EXPECT_GT(shift_bytes[i], shift_bytes[i + 1]);
  const double slope = loglog_slope(cs, shift_bytes);
  EXPECT_NEAR(slope, -1.1, 0.35);
}

// --- phantom equality holds across machine models --------------------------------

class MachinePhantom : public ::testing::TestWithParam<int> {};

TEST_P(MachinePhantom, PhantomMatchesRealOnEveryPreset) {
  const machine::MachineModel machines[] = {machine::laptop(), machine::hopper(),
                                            machine::intrepid(),
                                            machine::intrepid(false, false)};
  const auto& m = machines[GetParam()];
  const int p = 16;
  const int c = 2;
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(64, box, 3, 0.0);

  Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
  Engine real_engine({p, c, m}, std::move(policy), decomp::split_even(init, p / c));
  real_engine.step();

  std::vector<core::PhantomBlock> blocks;
  for (const auto& b : decomp::split_even(init, p / c)) blocks.push_back({b.size()});
  core::PhantomPolicy ppolicy({0.0, true});
  core::CaAllPairs<core::PhantomPolicy> phantom({p, c, m}, ppolicy, std::move(blocks));
  phantom.step();
  EXPECT_NEAR(real_engine.comm().max_clock(), phantom.comm().max_clock(), 1e-12);
  EXPECT_EQ(real_engine.comm().ledger().critical_bytes(),
            phantom.comm().ledger().critical_bytes());
}

INSTANTIATE_TEST_SUITE_P(Machines, MachinePhantom, ::testing::Range(0, 4),
                         ::testing::PrintToStringParamName());

}  // namespace
