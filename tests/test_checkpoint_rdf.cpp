// Checkpoint/restart round trips and the radial distribution function.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "sim/checkpoint.hpp"
#include "support/assert.hpp"

namespace {

using namespace canb;
using particles::Block;
using particles::Box;

// --- checkpoint -----------------------------------------------------------------

TEST(Checkpoint, RoundTripsBitwise) {
  const std::string path = "/tmp/canb_test_cp.canb";
  const auto ps = particles::init_uniform(33, Box::reflective_2d(1.0), 17, 0.5);
  sim::save_checkpoint(path, {42, 0.042, ps});
  const auto cp = sim::load_checkpoint(path);
  EXPECT_EQ(cp.step, 42);
  EXPECT_DOUBLE_EQ(cp.time, 0.042);
  ASSERT_EQ(cp.particles.size(), ps.size());
  EXPECT_EQ(std::memcmp(cp.particles.data(), ps.data(), ps.size() * sizeof(particles::Particle)),
            0);
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyBlockIsValid) {
  const std::string path = "/tmp/canb_test_cp_empty.canb";
  sim::save_checkpoint(path, {0, 0.0, {}});
  const auto cp = sim::load_checkpoint(path);
  EXPECT_TRUE(cp.particles.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW(sim::load_checkpoint("/tmp/canb_does_not_exist.canb"), PreconditionError);
}

// Saves a 10-particle checkpoint, lets `corrupt` edit its bytes, and
// expects the load to throw PreconditionError whose text contains `want`.
void expect_rejected(const std::function<void(std::string&)>& corrupt,
                     const std::string& want = "") {
  const std::string path = std::string("/tmp/canb_test_cp_") +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  sim::save_checkpoint(path, {5, 0.5, particles::init_uniform(10, Box::reflective_2d(1.0), 3)});
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), 40 + 10 * particles::kParticleBytes);  // v2 header, then records
  corrupt(bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  try {
    sim::load_checkpoint(path);
    ADD_FAILURE() << "a corrupt checkpoint loaded";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  expect_rejected([](std::string& b) { b = "this is not a checkpoint file at all, padded..."; },
                  "not a CANB checkpoint");
}

TEST(Checkpoint, RejectsTruncatedPayload) {
  expect_rejected([](std::string& b) { b.resize(b.size() - 20); }, "truncated");
}

TEST(Checkpoint, RejectsAFlippedPayloadOrHeaderByte) {
  // A byte in particle 3, the last payload byte, and one of the step field.
  for (const std::size_t at : {40 + 3 * particles::kParticleBytes + 5,
                               40 + 10 * particles::kParticleBytes - 1, std::size_t{8}})
    expect_rejected([at](std::string& b) { b[at] = static_cast<char>(b[at] ^ 1); }, "checksum");
}

TEST(Checkpoint, RejectsACountLargerThanTheFileBeforeAllocating) {
  // 2^58 records made resize throw std::length_error; 11 would read past
  // the end of the file.
  for (const std::uint64_t count : {std::uint64_t{1} << 58, std::uint64_t{11}})
    expect_rejected([count](std::string& b) { std::memcpy(b.data() + 24, &count, 8); }, "count");
}

TEST(Checkpoint, RejectsTrailingBytes) {
  // One stray byte, and a whole extra record the count does not cover.
  for (const std::size_t extra : {std::size_t{1}, particles::kParticleBytes})
    expect_rejected([extra](std::string& b) { b.append(extra, '\0'); }, "trailing bytes");
}

TEST(Checkpoint, EveryTruncationIsRejected) {
  for (std::size_t len = 0; len < 40 + 10 * particles::kParticleBytes; ++len) {
    SCOPED_TRACE(::testing::Message() << "truncated to " << len << " bytes");
    expect_rejected([len](std::string& b) { b.resize(len); });
  }
}

TEST(Checkpoint, EveryFlippedBitIsRejected) {
  for (std::size_t bit = 0; bit < 8 * (40 + 10 * particles::kParticleBytes); ++bit) {
    SCOPED_TRACE(::testing::Message() << "bit " << bit % 8 << " of byte " << bit / 8);
    expect_rejected([bit](std::string& b) {
      b[bit / 8] = static_cast<char>(b[bit / 8] ^ (1 << (bit % 8)));
    });
  }
}

TEST(Checkpoint, RejectsVersion1Files) {
  // Version 1: the same header without the checksum field.
  expect_rejected(
      [](std::string& b) {
        b.erase(32, 8);
        b[4] = 1;
      },
      "unsupported checkpoint version 1");
}

// --- radial distribution ----------------------------------------------------------

TEST(Rdf, IdealGasIsFlatNearOne) {
  const Box box = Box::periodic_2d(1.0);
  const auto ps = particles::init_uniform(2000, box, 3);
  const auto g = particles::radial_distribution(std::span<const particles::Particle>(ps), box,
                                                0.3, 6);
  ASSERT_EQ(g.size(), 6u);
  for (std::size_t b = 1; b < g.size(); ++b) {  // skip the noisy first shell
    EXPECT_NEAR(g[b], 1.0, 0.15) << b;
  }
}

TEST(Rdf, ClusteredGasPeaksAtShortRange) {
  const Box box = Box::periodic_2d(1.0);
  const auto ps = particles::init_clusters(1000, box, 5, 0.01, 7);
  const auto g = particles::radial_distribution(std::span<const particles::Particle>(ps), box,
                                                0.3, 6);
  EXPECT_GT(g[0], 5.0);               // strong contact peak
  EXPECT_GT(g[0], g[5] * 3.0);        // decaying outward
}

TEST(Rdf, HandlesDegenerateInput) {
  const Box box = Box::periodic_2d(1.0);
  Block one(1);
  const auto g = particles::radial_distribution(std::span<const particles::Particle>(one), box,
                                                0.3, 4);
  for (double v : g) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_THROW(particles::radial_distribution(std::span<const particles::Particle>(one), box,
                                              -1.0, 4),
               PreconditionError);
}

}  // namespace
