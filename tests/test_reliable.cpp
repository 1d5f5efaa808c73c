// Reliable-channel unit tests (vmpi/reliable.hpp): the protocol engine is
// passive (no threads, no clock, no sockets), so these tests drive it with
// a manual clock and a seeded lossy link that drops, reorders, and
// duplicates frames — and assert:
//
//   1. eventual in-order exactly-once delivery through any loss pattern;
//   2. sequence/ack correctness: cumulative acks release exactly the
//      contiguously received prefix, duplicates are discarded but re-acked;
//   3. retransmit backoff: each expiry multiplies the timeout by `backoff`
//      and a frame unacked after max_attempts transmissions aborts;
//   4. accounting parity with the modeled arm: k forced drops cost exactly
//      the retries / timeouts / backoff-wait that
//      PerturbationModel::plan_delivery charges for k modeled drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/reliable.hpp"

namespace {

using namespace canb;
using vmpi::Frame;
using vmpi::FrameKind;
using vmpi::ReliableConfig;
using vmpi::ReliableReceiver;
using vmpi::ReliableSender;

Frame data_frame(std::uint64_t tag, const std::string& text) {
  Frame f;
  f.kind = FrameKind::Data;
  f.src = 1;
  f.dst = 2;
  f.tag = tag;
  f.payload.resize(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) f.payload[i] = static_cast<std::byte>(text[i]);
  return f;
}

std::string text_of(const Frame& f) {
  std::string s(f.payload.size(), '\0');
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<char>(f.payload[i]);
  return s;
}

// ---------------------------------------------------------------------------
// Framing.

TEST(ReliableFraming, EncodeDecodeRoundTrip) {
  Frame f = data_frame(77, "payload bytes");
  f.seq = 123456789;
  wire::Bytes enc;
  vmpi::encode_frame(f, enc);
  // Length prefix counts everything after itself.
  ASSERT_GE(enc.size(), sizeof(std::uint64_t) + vmpi::kFrameHeaderBytes);
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, enc.data(), sizeof body_len);
  EXPECT_EQ(body_len, enc.size() - sizeof body_len);
  const Frame back = vmpi::decode_frame_body(
      std::span<const std::byte>(enc).subspan(sizeof body_len));
  EXPECT_EQ(back.kind, f.kind);
  EXPECT_EQ(back.src, f.src);
  EXPECT_EQ(back.dst, f.dst);
  EXPECT_EQ(back.tag, f.tag);
  EXPECT_EQ(back.seq, f.seq);
  EXPECT_EQ(text_of(back), "payload bytes");
}

// ---------------------------------------------------------------------------
// Receiver sequencing.

TEST(ReliableReceiver, InOrderDeliversAndAcksCumulatively) {
  ReliableReceiver rx;
  std::vector<std::string> delivered;
  auto sink = [&](Frame&& f) { delivered.push_back(text_of(f)); };
  for (int i = 0; i < 3; ++i) {
    Frame f = data_frame(1, std::string("m").append(std::to_string(i)));
    f.seq = static_cast<std::uint64_t>(i);
    EXPECT_EQ(rx.on_data(std::move(f), sink), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(delivered, (std::vector<std::string>{"m0", "m1", "m2"}));
  EXPECT_EQ(rx.stats().duplicates_dropped, 0u);
  EXPECT_EQ(rx.stats().reordered_held, 0u);
}

TEST(ReliableReceiver, OutOfOrderIsStashedThenDrained) {
  ReliableReceiver rx;
  std::vector<std::string> delivered;
  auto sink = [&](Frame&& f) { delivered.push_back(text_of(f)); };
  Frame f2 = data_frame(1, "m2");
  f2.seq = 2;
  Frame f1 = data_frame(1, "m1");
  f1.seq = 1;
  Frame f0 = data_frame(1, "m0");
  f0.seq = 0;
  EXPECT_EQ(rx.on_data(std::move(f2), sink), 0u) << "gap: nothing contiguous yet";
  EXPECT_EQ(rx.on_data(std::move(f1), sink), 0u);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx.on_data(std::move(f0), sink), 3u) << "gap filled: the whole run drains";
  EXPECT_EQ(delivered, (std::vector<std::string>{"m0", "m1", "m2"}));
  EXPECT_EQ(rx.stats().reordered_held, 2u);
}

TEST(ReliableReceiver, DuplicatesAreDiscardedButReacked) {
  ReliableReceiver rx;
  int deliveries = 0;
  auto sink = [&](Frame&&) { ++deliveries; };
  Frame f = data_frame(1, "once");
  f.seq = 0;
  EXPECT_EQ(rx.on_data(std::move(f), sink), 1u);
  Frame dup = data_frame(1, "once");
  dup.seq = 0;
  EXPECT_EQ(rx.on_data(std::move(dup), sink), 1u) << "duplicate still answers with the cum ack";
  EXPECT_EQ(deliveries, 1) << "exactly-once delivery";
  EXPECT_EQ(rx.stats().duplicates_dropped, 1u);
  // A duplicate of a stashed (not yet delivered) frame is also dropped.
  Frame s1 = data_frame(1, "held");
  s1.seq = 2;
  rx.on_data(std::move(s1), sink);
  Frame s2 = data_frame(1, "held");
  s2.seq = 2;
  rx.on_data(std::move(s2), sink);
  EXPECT_EQ(rx.stats().duplicates_dropped, 2u);
}

// ---------------------------------------------------------------------------
// Sender retransmission.

TEST(ReliableSender, AckReleasesPrefixAndPollRetransmitsWithBackoff) {
  ReliableConfig cfg;
  cfg.rto = 1.0;
  cfg.backoff = 2.0;
  cfg.max_attempts = 10;
  ReliableSender tx(cfg);
  std::vector<std::uint64_t> emitted;
  auto wire_sink = [&](const Frame& f) { emitted.push_back(f.seq); };
  tx.send(data_frame(1, "a"), /*now=*/0.0, wire_sink);
  tx.send(data_frame(1, "b"), 0.0, wire_sink);
  tx.send(data_frame(1, "c"), 0.0, wire_sink);
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_FALSE(tx.idle());

  tx.on_ack(2);  // cumulative: releases seq 0 and 1, not 2
  emitted.clear();
  EXPECT_EQ(tx.poll(/*now=*/1.0, wire_sink), 1.0 + 2.0) << "expired rto doubles";
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{2})) << "only the unacked frame retransmits";
  EXPECT_EQ(tx.poll(/*now=*/2.9, wire_sink), 3.0) << "not expired: deadline reported, no emit";
  EXPECT_EQ(emitted.size(), 1u);
  EXPECT_EQ(tx.poll(/*now=*/3.0, wire_sink), 3.0 + 4.0) << "second expiry doubles again";
  EXPECT_EQ(tx.stats().retransmits, 2u);
  EXPECT_EQ(tx.stats().timeouts, 2u);
  EXPECT_DOUBLE_EQ(tx.stats().backoff_wait, 1.0 + 2.0);

  tx.on_ack(3);
  EXPECT_TRUE(tx.idle());
  EXPECT_EQ(tx.poll(100.0, wire_sink), std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// Lossy-link torture: seeded drop + reorder + duplicate between a real
// sender/receiver pair, driven by a manual clock until everything lands.

struct LossyLink {
  Xoshiro256 rng;
  double drop = 0;
  double dup = 0;
  double reorder = 0;
  std::deque<Frame> in_flight;

  explicit LossyLink(std::uint64_t seed, double drop_p, double dup_p, double reorder_p)
      : rng(seed), drop(drop_p), dup(dup_p), reorder(reorder_p) {}

  void push(const Frame& f) {
    if (rng.uniform() < drop) return;
    in_flight.push_back(f);
    if (rng.uniform() < dup) in_flight.push_back(f);
    if (in_flight.size() >= 2 && rng.uniform() < reorder)
      std::swap(in_flight[in_flight.size() - 1], in_flight[in_flight.size() - 2]);
  }

  bool pop(Frame& out) {
    if (in_flight.empty()) return false;
    out = std::move(in_flight.front());
    in_flight.pop_front();
    return true;
  }
};

TEST(ReliableChannel, EventualInOrderExactlyOnceThroughLossyLink) {
  constexpr int kMessages = 120;
  for (const std::uint64_t seed : {1u, 7u, 2013u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ReliableConfig cfg;
    cfg.rto = 0.5;
    cfg.backoff = 2.0;
    cfg.max_attempts = 64;  // torture loss rates need headroom
    ReliableSender tx(cfg);
    ReliableReceiver rx;
    LossyLink data_link(seed, /*drop=*/0.3, /*dup=*/0.15, /*reorder=*/0.25);
    LossyLink ack_link(seed ^ 0xabcdef, 0.3, 0.15, 0.25);

    std::vector<std::string> delivered;
    auto deliver = [&](Frame&& f) { delivered.push_back(text_of(f)); };
    auto to_wire = [&](const Frame& f) { data_link.push(f); };

    double now = 0.0;
    for (int i = 0; i < kMessages; ++i)
      tx.send(data_frame(9, "msg" + std::to_string(i)), now, to_wire);

    // Event loop: drain the data link into the receiver, return acks over
    // the (equally lossy) ack link, advance time, pump retransmits.
    int rounds = 0;
    while (!tx.idle() || !data_link.in_flight.empty() || !ack_link.in_flight.empty()) {
      ASSERT_LT(++rounds, 20000) << "channel failed to converge";
      Frame f;
      while (data_link.pop(f)) {
        Frame ack;
        ack.kind = FrameKind::Ack;
        ack.seq = rx.on_data(std::move(f), deliver);
        ack_link.push(ack);
      }
      while (ack_link.pop(f)) tx.on_ack(f.seq);
      now += 0.1;
      tx.poll(now, to_wire);
    }

    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kMessages))
        << "exactly-once: no loss, no duplication";
    for (int i = 0; i < kMessages; ++i)
      EXPECT_EQ(delivered[static_cast<std::size_t>(i)], "msg" + std::to_string(i));
    EXPECT_EQ(rx.next_expected(), static_cast<std::uint64_t>(kMessages));
    EXPECT_GT(tx.stats().retransmits, 0u) << "the loss rates must have exercised recovery";
    EXPECT_GT(rx.stats().duplicates_dropped, 0u);
  }
}

// ---------------------------------------------------------------------------
// Accounting parity with the modeled arm. PerturbationModel::plan_delivery
// charges, for k dropped attempts on a message of clean cost a with
// timeout_factor f and backoff b:
//     retries = timeouts = k,
//     extra_seconds = sum_{i<k} (f*a*b^i + a).
// The reliable channel with rto = f*a and the same backoff, suffering k
// real drops, must book the same retries/timeouts and a backoff_wait equal
// to extra_seconds minus the k modeled retransmission costs.

TEST(ReliableChannel, BackoffAccountingMatchesPerturbationModel) {
  constexpr double kAttemptCost = 0.012;
  for (const int k : {1, 3, 7}) {
    SCOPED_TRACE(::testing::Message() << k << " drops");
    // Modeled arm: a drop rate this close to 1 drops every attempt the
    // model allows (the config rejects exactly 1.0; the seeded stream is
    // deterministic and the ASSERT below pins the count), so
    // max_attempts = k+1 yields exactly k drops.
    vmpi::FaultConfig fc;
    fc.drop_rate = 1.0 - 1e-12;
    fc.max_attempts = k + 1;  // defaults: timeout_factor 3, backoff 2
    vmpi::PerturbationModel model(fc, /*p=*/2);
    const auto d = model.plan_delivery(/*dst=*/1, kAttemptCost);
    ASSERT_EQ(d.retries, static_cast<std::uint64_t>(k));
    ASSERT_EQ(d.timeouts, static_cast<std::uint64_t>(k));

    // Real arm: same schedule, k real drops (emit discards the first k
    // transmissions), polled exactly at each deadline.
    ReliableConfig rc;
    rc.rto = fc.timeout_factor * kAttemptCost;
    rc.backoff = fc.backoff;
    rc.max_attempts = k + 1;
    ReliableSender tx(rc);
    ReliableReceiver rx;
    int wire_deliveries = 0;
    int transmissions = 0;
    std::uint64_t ack = 0;
    auto emit = [&](const Frame& f) {
      if (transmissions++ < k) return;  // injected drop
      Frame copy = f;
      ack = rx.on_data(std::move(copy), [&](Frame&&) { ++wire_deliveries; });
    };
    double now = 0.0;
    tx.send(data_frame(1, "parity"), now, emit);
    for (int i = 0; i < k; ++i) {
      now = tx.poll(now, emit);  // jump straight to the pending deadline
      tx.poll(now, emit);        // expire it
    }
    tx.on_ack(ack);
    EXPECT_TRUE(tx.idle());
    EXPECT_EQ(wire_deliveries, 1);

    EXPECT_EQ(tx.stats().retransmits, d.retries);
    EXPECT_EQ(tx.stats().timeouts, d.timeouts);
    // extra_seconds = backoff waits + k retransmission costs.
    EXPECT_NEAR(tx.stats().backoff_wait,
                d.extra_seconds - static_cast<double>(k) * kAttemptCost, 1e-12);
  }
}

}  // namespace
