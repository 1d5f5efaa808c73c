// Fault-injection tests: the PerturbationModel's determinism and retry
// semantics, and the engines' behaviour under a degraded virtual machine.
//
//  F1  drop/retry plans are deterministic for a fixed seed and (statistically)
//      distinct across seeds; retries are bounded by max_attempts - 1; k
//      forced drops charge the closed-form timeout/backoff sum
//  F2  under random drop rates every message is still delivered: particle
//      sets are conserved and the clock == sum-of-phases invariant holds
//  F3  a fixed --fault-seed gives identical perturbed ledgers, clocks, and
//      trajectories across host thread counts {1, 2, 8}
//  F4  faults perturb costs only: trajectories are bitwise identical to the
//      fault-free run, and perturbed clocks never run faster
//  F5  the phantom bulk fast path falls back to per-step execution when a
//      model is attached (bulk-on and bulk-off ledgers agree exactly)
//  F6  VirtualComm::reset() replays the same perturbation sequence
//
// The fault seed honors CANB_FAULT_SEED (the CI property matrix runs the
// suite under several fixed seeds); default 2013.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "vmpi/fault.hpp"

namespace {

using namespace canb;
using particles::Box;
using particles::InverseSquareRepulsion;
using Policy = core::RealPolicy<InverseSquareRepulsion>;

std::uint64_t fault_seed() {
  if (const char* env = std::getenv("CANB_FAULT_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 2013;
}

vmpi::FaultConfig full_fault_config(std::uint64_t seed) {
  vmpi::FaultConfig cfg;
  cfg.seed = seed;
  cfg.jitter = 0.05;
  cfg.straggler_rate = 0.1;
  cfg.straggler_factor = 4.0;
  cfg.link_degrade_rate = 0.1;
  cfg.link_degrade_factor = 4.0;
  cfg.drop_rate = 0.05;
  return cfg;
}

void expect_ledgers_identical(const vmpi::VirtualComm& a, const vmpi::VirtualComm& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.clock(r), b.clock(r)) << "rank " << r;
    EXPECT_EQ(a.ledger().messages(r), b.ledger().messages(r)) << "rank " << r;
    EXPECT_EQ(a.ledger().bytes(r), b.ledger().bytes(r)) << "rank " << r;
    EXPECT_EQ(a.ledger().retries(r), b.ledger().retries(r)) << "rank " << r;
    EXPECT_EQ(a.ledger().timeouts(r), b.ledger().timeouts(r)) << "rank " << r;
    for (int ph = 0; ph < vmpi::kPhaseCount; ++ph) {
      EXPECT_EQ(a.ledger().seconds(r, static_cast<vmpi::Phase>(ph)),
                b.ledger().seconds(r, static_cast<vmpi::Phase>(ph)))
          << "rank " << r << " phase " << ph;
    }
  }
}

particles::Block gathered(const std::vector<particles::SoaBlock>& team_blocks) {
  auto all = decomp::concat(team_blocks);
  particles::sort_by_id(all);
  return all;
}

// --- F1: plan determinism ---------------------------------------------------

TEST(Faults, DeliveryPlansAreSeedDeterministicAndBounded) {
  vmpi::FaultConfig cfg;
  cfg.seed = fault_seed();
  cfg.drop_rate = 0.4;
  cfg.max_attempts = 6;
  vmpi::PerturbationModel a(cfg, 8);
  vmpi::PerturbationModel b(cfg, 8);
  std::uint64_t total_retries = 0;
  for (int i = 0; i < 500; ++i) {
    const int dst = i % 8;
    const auto da = a.plan_delivery(dst, 1e-6);
    const auto db = b.plan_delivery(dst, 1e-6);
    EXPECT_EQ(da.retries, db.retries);
    EXPECT_EQ(da.timeouts, db.timeouts);
    EXPECT_EQ(da.extra_seconds, db.extra_seconds);
    EXPECT_LE(da.retries, static_cast<std::uint64_t>(cfg.max_attempts - 1));
    total_retries += da.retries;
  }
  // At a 40% drop rate ~500 * 0.4 retries must show up somewhere.
  EXPECT_GT(total_retries, 50u);

  // A different seed draws a different sequence (equality has probability
  // ~0 over 500 plans at this drop rate).
  vmpi::FaultConfig other = cfg;
  other.seed = cfg.seed + 1;
  vmpi::PerturbationModel c(other, 8);
  bool any_difference = false;
  vmpi::PerturbationModel a2(cfg, 8);
  for (int i = 0; i < 500 && !any_difference; ++i) {
    any_difference = c.plan_delivery(i % 8, 1e-6).retries != a2.plan_delivery(i % 8, 1e-6).retries;
  }
  EXPECT_TRUE(any_difference);
}

// For k dropped attempts on a message of clean cost a, with timeout_factor
// f and backoff b, plan_delivery charges
//     retries = timeouts = k,
//     extra_seconds = sum_{i<k} (f*a*b^i + a).
// A drop rate this close to 1 drops every attempt the model allows (the
// config rejects exactly 1), so max_attempts = k+1 forces exactly k drops.
TEST(Faults, ForcedDropsChargeClosedFormBackoff) {
  constexpr double kAttemptCost = 0.012;
  for (const int k : {1, 3, 7}) {
    SCOPED_TRACE(::testing::Message() << k << " drops");
    vmpi::FaultConfig cfg;
    cfg.seed = fault_seed();
    cfg.drop_rate = 1.0 - 1e-12;
    cfg.max_attempts = k + 1;  // defaults: timeout_factor 3, backoff 2
    ASSERT_EQ(cfg.timeout_factor, 3.0);
    ASSERT_EQ(cfg.backoff, 2.0);
    vmpi::PerturbationModel model(cfg, /*p=*/2);
    const auto d = model.plan_delivery(/*dst=*/1, kAttemptCost);
    EXPECT_EQ(d.retries, static_cast<std::uint64_t>(k));
    EXPECT_EQ(d.timeouts, static_cast<std::uint64_t>(k));
    double want = 0.0;
    for (int i = 0; i < k; ++i) want += 3.0 * kAttemptCost * std::pow(2.0, i) + kAttemptCost;
    EXPECT_NEAR(d.extra_seconds, want, 1e-12);
  }
}

TEST(Faults, ZeroRateFactorsAreExactlyNeutral) {
  vmpi::FaultConfig cfg;
  cfg.seed = fault_seed();
  vmpi::PerturbationModel model(cfg, 4);
  EXPECT_FALSE(model.active());
  for (int r = 0; r < 4; ++r) EXPECT_EQ(model.compute_factor(r), 1.0);
  EXPECT_EQ(model.link_factor(0, 1), 1.0);
  const auto d = model.plan_delivery(2, 1e-6);
  EXPECT_EQ(d.retries, 0u);
  EXPECT_EQ(d.timeouts, 0u);
  EXPECT_EQ(d.extra_seconds, 0.0);
}

// --- F2: eventual delivery / conservation under random drop rates -----------

TEST(Faults, RandomDropRatesConserveParticlesAndClockInvariant) {
  Xoshiro256 meta(fault_seed());
  const Box box = Box::reflective_1d(1.0);
  for (int trial = 0; trial < 8; ++trial) {
    const int q = 8;
    const int c = 2;
    const int n = 40 + static_cast<int>(meta.uniform_int(40));
    vmpi::FaultConfig fcfg;
    fcfg.seed = fault_seed() + static_cast<std::uint64_t>(trial);
    fcfg.drop_rate = 0.05 + 0.85 * meta.uniform();  // up to 90%: retries pile up
    vmpi::PerturbationModel model(fcfg, q * c);

    const auto init = particles::init_uniform(n, box, 900 + trial, 2.0);
    const int m = core::window_radius_teams(0.25, 1.0, q);
    Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.25, 2e-3});
    core::CaCutoff<Policy> engine(
        {q * c, c, machine::laptop(), core::CutoffGeometry::make_1d(q, m), false},
        std::move(policy), decomp::split_spatial_1d(init, box, q));
    engine.comm().set_fault(&model);
    engine.run(3);

    // Every particle still exists exactly once: drops delay, never destroy.
    const auto all = gathered(engine.team_results());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n)) << "drop_rate=" << fcfg.drop_rate;
    for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)].id, i);

    // The ledger invariant survives retries: clock == sum of phase seconds.
    for (int r = 0; r < engine.comm().size(); ++r) {
      EXPECT_NEAR(engine.comm().clock(r), engine.comm().ledger().total_seconds(r), 1e-12);
    }
    if (fcfg.drop_rate > 0.3) {
      EXPECT_GT(engine.comm().ledger().aggregate_retries(), 0u)
          << "drop_rate=" << fcfg.drop_rate;
    }
  }
}

// --- F3 + F4: thread-count invariance; faults perturb costs only ------------

TEST(Faults, PerturbedRunIdenticalAcrossHostThreadCounts) {
  const Box box = Box::reflective_2d(1.0);
  const int p = 12;
  const int c = 2;
  const int n = 72;
  const auto init = particles::init_uniform(n, box, 321, 0.02);
  const auto fcfg = full_fault_config(fault_seed());

  auto run = [&](int threads, vmpi::PerturbationModel* model) {
    Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
    auto engine = std::make_unique<core::CaAllPairs<Policy>>(
        core::CaAllPairs<Policy>::Config{p, c, machine::laptop()}, std::move(policy),
        decomp::split_even(init, p / c));
    if (model) engine->comm().set_fault(model);
    if (threads > 1) engine->set_host_pool(std::make_shared<ThreadPool>(threads));
    engine->run(3);
    return engine;
  };

  vmpi::PerturbationModel m1(fcfg, p), m2(fcfg, p), m8(fcfg, p);
  const auto e1 = run(1, &m1);
  const auto e2 = run(2, &m2);
  const auto e8 = run(8, &m8);
  expect_ledgers_identical(e1->comm(), e2->comm());
  expect_ledgers_identical(e1->comm(), e8->comm());
  EXPECT_GT(e1->comm().ledger().aggregate_retries(), 0u);

  // F4: physics is untouched — the perturbed trajectory matches the clean
  // one bitwise, and perturbed clocks never beat the ideal schedule.
  const auto clean = run(1, nullptr);
  const auto clean_all = gathered(clean->team_results());
  const auto fault_all = gathered(e1->team_results());
  ASSERT_EQ(clean_all.size(), fault_all.size());
  for (std::size_t i = 0; i < clean_all.size(); ++i) {
    EXPECT_EQ(clean_all[i].px, fault_all[i].px);
    EXPECT_EQ(clean_all[i].py, fault_all[i].py);
    EXPECT_EQ(clean_all[i].vx, fault_all[i].vx);
    EXPECT_EQ(clean_all[i].vy, fault_all[i].vy);
  }
  for (int r = 0; r < p; ++r) EXPECT_GE(e1->comm().clock(r), clean->comm().clock(r));
}

TEST(Faults, CutoffPerturbedRunIdenticalAcrossHostThreadCounts) {
  const Box box = Box::reflective_1d(1.0);
  const int q = 8;
  const int c = 2;
  const int n = 64;
  const auto init = particles::init_uniform(n, box, 654, 2.0);
  const int m = core::window_radius_teams(0.25, 1.0, q);
  const auto fcfg = full_fault_config(fault_seed() + 7);

  auto run = [&](int threads, vmpi::PerturbationModel* model) {
    Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.25, 2e-3});
    auto engine = std::make_unique<core::CaCutoff<Policy>>(
        core::CaCutoff<Policy>::Config{q * c, c, machine::laptop(),
                                       core::CutoffGeometry::make_1d(q, m), false},
        std::move(policy), decomp::split_spatial_1d(init, box, q));
    if (model) engine->comm().set_fault(model);
    if (threads > 1) engine->set_host_pool(std::make_shared<ThreadPool>(threads));
    engine->run(3);
    return engine;
  };

  vmpi::PerturbationModel m1(fcfg, q * c), m2(fcfg, q * c), m8(fcfg, q * c);
  const auto e1 = run(1, &m1);
  const auto e2 = run(2, &m2);
  const auto e8 = run(8, &m8);
  expect_ledgers_identical(e1->comm(), e2->comm());
  expect_ledgers_identical(e1->comm(), e8->comm());
}

// --- F5: the bulk fast path defers to per-step execution under faults -------

TEST(Faults, PhantomBulkPathFallsBackUnderActiveModel) {
  const int p = 16;
  const int c = 2;
  const auto fcfg = full_fault_config(fault_seed() + 11);

  auto run = [&](bool bulk, vmpi::PerturbationModel* model) {
    core::PhantomPolicy policy({0.0, bulk});
    core::CaAllPairs<core::PhantomPolicy> engine(
        {p, c, machine::laptop()}, policy,
        std::vector<core::PhantomBlock>(static_cast<std::size_t>(p / c), {5}));
    if (model) engine.comm().set_fault(model);
    engine.run(2);
    return engine.comm().max_clock();
  };

  // With an active model, bulk-on must take the same per-step path (and so
  // consume the same rank streams) as bulk-off: clocks agree exactly.
  vmpi::PerturbationModel ma(fcfg, p), mb(fcfg, p);
  EXPECT_EQ(run(true, &ma), run(false, &mb));

  // An attached but all-zero model keeps the bulk path: bitwise equal to the
  // model-free bulk run, and near the per-step schedule to the same tolerance
  // the fault-free bulk path guarantees (k additions vs one multiply).
  vmpi::FaultConfig zero;
  zero.seed = fault_seed();
  vmpi::PerturbationModel za(zero, p), zb(zero, p);
  EXPECT_EQ(run(true, &za), run(true, nullptr));
  EXPECT_NEAR(run(true, &za), run(false, &zb), 1e-12);
}

// --- F6: reset replays the same faults --------------------------------------

TEST(Faults, CommResetReplaysIdenticalPerturbations) {
  const int p = 12;
  const auto fcfg = full_fault_config(fault_seed() + 3);
  vmpi::PerturbationModel model(fcfg, p);
  core::PhantomPolicy policy({0.0, false});
  core::CaAllPairs<core::PhantomPolicy> engine(
      {p, 2, machine::laptop()}, policy,
      std::vector<core::PhantomBlock>(static_cast<std::size_t>(p / 2), {4}));
  engine.comm().set_fault(&model);
  engine.step();
  const double first = engine.comm().max_clock();
  const auto first_retries = engine.comm().ledger().aggregate_retries();
  engine.comm().reset();
  engine.step();
  EXPECT_EQ(engine.comm().max_clock(), first);
  EXPECT_EQ(engine.comm().ledger().aggregate_retries(), first_retries);
}

}  // namespace
