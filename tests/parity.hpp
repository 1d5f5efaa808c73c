// Bitwise comparison helpers shared by the parity suites (data plane,
// layout invariance, transport parity, owner-computes, transport e2e): a
// run's serialized message trace, gathered final state, and CostLedger-
// derived report fields, compared bit for bit.
//
// Two forms of the same comparisons: gtest assertions for in-process arms,
// and plain bools for forked children, which cannot report through gtest
// and instead exit non-zero.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "particles/particle.hpp"
#include "sim/report.hpp"
#include "vmpi/trace.hpp"

namespace canb::parity {

/// Everything a parity arm observes after its steps.
struct RunResult {
  std::string trace;       ///< serialized full message trace
  particles::Block state;  ///< gathered final state, sorted by id
  sim::RunReport report;
};

/// Runs `steps` with a trace recorder attached; returns the serialized
/// trace plus the gathered state and report.
template <class Sim>
RunResult run_traced(Sim& s, int steps) {
  vmpi::TraceRecorder rec;
  s.comm().set_trace(&rec);
  s.run(steps);
  return {vmpi::serialize_trace(rec), s.gather(), s.report()};
}

/// Bitwise float equality: distinguishes +0.0 from -0.0 and would catch a
/// NaN produced on one path only — stricter than operator==.
inline ::testing::AssertionResult bits_equal(float a, float b) {
  if (std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex
         << std::bit_cast<std::uint32_t>(a) << " vs 0x" << std::bit_cast<std::uint32_t>(b)
         << ")";
}

inline void expect_state_bitwise_equal(const particles::Block& got,
                                       const particles::Block& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id);
    EXPECT_TRUE(bits_equal(got[i].fx, want[i].fx)) << "fx of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].fy, want[i].fy)) << "fy of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].px, want[i].px)) << "px of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].py, want[i].py)) << "py of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].vx, want[i].vx)) << "vx of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].vy, want[i].vy)) << "vy of particle " << got[i].id;
  }
}

inline void expect_report_field_equal(const sim::RunReport& got, const sim::RunReport& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.compute, want.compute);
  EXPECT_EQ(got.broadcast, want.broadcast);
  EXPECT_EQ(got.skew, want.skew);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.reduce, want.reduce);
  EXPECT_EQ(got.reassign, want.reassign);
  EXPECT_EQ(got.wall, want.wall);
  EXPECT_EQ(got.imbalance, want.imbalance);
}

inline void expect_run_equal(const RunResult& got, const RunResult& want) {
  expect_state_bitwise_equal(got.state, want.state);
  expect_report_field_equal(got.report, want.report);
  EXPECT_EQ(got.trace, want.trace) << "full message trace diverged";
}

// --- plain-bool forms, for forked children ----------------------------------

inline bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

inline bool runs_equal(const RunResult& got, const RunResult& want) {
  if (got.trace != want.trace) return false;
  if (got.state.size() != want.state.size()) return false;
  for (std::size_t i = 0; i < got.state.size(); ++i) {
    const auto& g = got.state[i];
    const auto& w = want.state[i];
    if (g.id != w.id || !same_bits(g.px, w.px) || !same_bits(g.py, w.py) ||
        !same_bits(g.vx, w.vx) || !same_bits(g.vy, w.vy) || !same_bits(g.fx, w.fx) ||
        !same_bits(g.fy, w.fy))
      return false;
  }
  const auto& gr = got.report;
  const auto& wr = want.report;
  return gr.messages == wr.messages && gr.bytes == wr.bytes && gr.compute == wr.compute &&
         gr.broadcast == wr.broadcast && gr.skew == wr.skew && gr.shift == wr.shift &&
         gr.reduce == wr.reduce && gr.reassign == wr.reassign && gr.wall == wr.wall &&
         gr.imbalance == wr.imbalance;
}

}  // namespace canb::parity
