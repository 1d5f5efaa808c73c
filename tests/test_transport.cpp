// Cross-backend transport conformance suite (vmpi/transport.hpp,
// vmpi/socket_transport.hpp): every backend must satisfy the same
// contract the primitives rely on —
//
//   1. per-(src, dst, tag) flows deliver in send order (FIFO);
//   2. distinct flows never mix, whatever the interleaving;
//   3. zero-length payloads are legal frames and arrive as such;
//   4. large frames (megabytes) survive intact;
//   5. SoaBlock payloads round-trip bitwise through wire encode/decode;
//   6. a corrupt length prefix fails the endpoint with a TransportError
//      before anything is allocated for it;
//   7. with a transport attached, the vmpi primitives produce buffers
//      bitwise identical to the unattached in-process reference.
//
// The socket backend is exercised in-process as a 2-group mesh: both
// endpoints are constructed concurrently (the constructor blocks on
// rendezvous) and frames genuinely cross Unix-domain sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/policy.hpp"
#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "particles/soa_block.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"
#include "support/wire.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"
#include "vmpi/virtual_comm.hpp"

namespace {

using namespace canb;
using particles::SoaBlock;
using vmpi::ModeledTransport;
using vmpi::SocketConfig;
using vmpi::SocketTransport;
using vmpi::Transport;

/// Deterministic payload: n bytes derived from (seed, index).
wire::Bytes pattern(std::size_t n, std::uint64_t seed) {
  wire::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>((seed * 1315423911u + i * 2654435761u) & 0xff);
  return b;
}

// ---------------------------------------------------------------------------
// Single-endpoint conformance (the modeled backend owns every rank).

void check_fifo_per_flow(Transport& t) {
  for (int i = 0; i < 16; ++i) t.send(0, 1, /*tag=*/7, pattern(32, static_cast<std::uint64_t>(i)));
  wire::Bytes got;
  for (int i = 0; i < 16; ++i) {
    t.recv(0, 1, 7, got);
    EXPECT_EQ(got, pattern(32, static_cast<std::uint64_t>(i))) << "frame " << i << " out of order";
  }
}

void check_flows_dont_mix(Transport& t) {
  // Interleave three flows — two tags on one pair, a third from another
  // source — then drain them in a different order.
  for (int i = 0; i < 8; ++i) {
    t.send(0, 1, 1, pattern(16, 100u + static_cast<std::uint64_t>(i)));
    t.send(0, 1, 2, pattern(16, 200u + static_cast<std::uint64_t>(i)));
    t.send(2, 1, 1, pattern(16, 300u + static_cast<std::uint64_t>(i)));
  }
  wire::Bytes got;
  for (int i = 0; i < 8; ++i) {
    t.recv(2, 1, 1, got);
    EXPECT_EQ(got, pattern(16, 300u + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    t.recv(0, 1, 2, got);
    EXPECT_EQ(got, pattern(16, 200u + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    t.recv(0, 1, 1, got);
    EXPECT_EQ(got, pattern(16, 100u + static_cast<std::uint64_t>(i)));
  }
}

void check_zero_length(Transport& t) {
  t.send(0, 1, 3, {});
  t.send(0, 1, 3, pattern(8, 9));
  t.send(0, 1, 3, {});
  wire::Bytes got = pattern(64, 1);  // arrives non-empty: recv must clear it
  t.recv(0, 1, 3, got);
  EXPECT_TRUE(got.empty());
  t.recv(0, 1, 3, got);
  EXPECT_EQ(got, pattern(8, 9));
  t.recv(0, 1, 3, got);
  EXPECT_TRUE(got.empty());
}

void check_large_frame(Transport& t, std::size_t n) {
  const auto want = pattern(n, 77);
  t.send(0, 1, 4, want);
  wire::Bytes got;
  t.recv(0, 1, 4, got);
  EXPECT_EQ(got, want);
}

void run_single_endpoint_suite(Transport& t) {
  ASSERT_GE(t.ranks(), 3);
  for (int r = 0; r < t.ranks(); ++r) EXPECT_TRUE(t.local(r));
  check_fifo_per_flow(t);
  check_flows_dont_mix(t);
  check_zero_length(t);
  check_large_frame(t, std::size_t{4} << 20);
  t.barrier();  // no-op, but must be callable
  const auto s = t.stats();
  EXPECT_EQ(s.frames_sent, s.frames_received) << "single endpoint: everything loops back";
  EXPECT_EQ(s.bytes_sent, s.bytes_received);
}

TEST(TransportConformance, Modeled) {
  ModeledTransport t(4);
  EXPECT_EQ(t.kind(), vmpi::TransportKind::Modeled);
  run_single_endpoint_suite(t);
}

// ---------------------------------------------------------------------------
// Socket backend: a real 2-process-group mesh, driven from two threads in
// this process (each endpoint believes it is its own process; rank
// locality, framing, reliable channel, and the UDS mesh are all real).

struct SocketPair {
  std::string dir;
  std::shared_ptr<SocketTransport> a;  // group 0: ranks 0, 1
  std::shared_ptr<SocketTransport> b;  // group 1: ranks 2, 3

  explicit SocketPair(double drop_rate = 0.0, int ranks = 4) {
    dir = vmpi::make_rendezvous_dir();
    SocketConfig cfg;
    cfg.ranks = ranks;
    cfg.groups = 2;
    cfg.dir = dir;
    cfg.drop_rate = drop_rate;
    // Constructors block on rendezvous; bring both up concurrently.
    std::thread tb([&] {
      SocketConfig cb = cfg;
      cb.group = 1;
      b = std::make_shared<SocketTransport>(cb);
    });
    a = std::make_shared<SocketTransport>(cfg);
    tb.join();
  }
  ~SocketPair() {
    // Endpoint teardown barriers against the peer: destroy concurrently.
    std::thread tb([this] { b.reset(); });
    a.reset();
    tb.join();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

TEST(TransportConformance, SocketMeshCrossAndLocal) {
  SocketPair mesh;
  EXPECT_TRUE(mesh.a->local(0) && mesh.a->local(1));
  EXPECT_FALSE(mesh.a->local(2) || mesh.a->local(3));
  EXPECT_TRUE(mesh.b->local(2) && mesh.b->local(3));

  // Cross-wire FIFO, zero-length, and a large frame on one flow.
  for (int i = 0; i < 16; ++i)
    mesh.a->send(0, 2, 5, pattern(48, static_cast<std::uint64_t>(i)));
  mesh.a->send(1, 3, 6, {});
  mesh.a->send(1, 3, 6, pattern(std::size_t{2} << 20, 42));
  // Local short-circuit inside group 1 while wire frames are in flight.
  mesh.b->send(2, 3, 8, pattern(16, 4));

  wire::Bytes got;
  for (int i = 0; i < 16; ++i) {
    mesh.b->recv(0, 2, 5, got);
    EXPECT_EQ(got, pattern(48, static_cast<std::uint64_t>(i))) << "wire frame " << i;
  }
  mesh.b->recv(1, 3, 6, got);
  EXPECT_TRUE(got.empty());
  mesh.b->recv(1, 3, 6, got);
  EXPECT_EQ(got, pattern(std::size_t{2} << 20, 42));
  mesh.b->recv(2, 3, 8, got);
  EXPECT_EQ(got, pattern(16, 4));

  // Reverse direction, then a barrier from both sides.
  mesh.b->send(3, 0, 9, pattern(32, 11));
  std::thread tb([&] { mesh.b->barrier(); });
  mesh.a->barrier();
  tb.join();
  mesh.a->recv(3, 0, 9, got);
  EXPECT_EQ(got, pattern(32, 11));
}

TEST(TransportConformance, SocketLossyLinkStillDeliversInOrder) {
  SocketPair mesh(/*drop_rate=*/0.3);
  for (int i = 0; i < 32; ++i)
    mesh.a->send(0, 2, 1, pattern(64, static_cast<std::uint64_t>(i)));
  wire::Bytes got;
  for (int i = 0; i < 32; ++i) {
    mesh.b->recv(0, 2, 1, got);
    EXPECT_EQ(got, pattern(64, static_cast<std::uint64_t>(i))) << "frame " << i;
  }
  // The drop injection must actually have engaged the reliable layer.
  EXPECT_GT(mesh.a->stats().retransmits, 0u);
}

// A drop rate of 1 discards every sequenced frame, retransmits included, so
// a mesh built with it would wait forever: the constructor rejects it (and
// any rate outside [0, 1)) before any socket work. A single-group mesh
// opens no socket, so without the check these would construct fine.
TEST(TransportConformance, SocketRejectsDropRateOutsideUnitInterval) {
  for (const double rate : {1.0, 1.5, -0.5, std::nan("")}) {
    SocketConfig cfg;
    cfg.ranks = 2;
    cfg.drop_rate = rate;
    EXPECT_THROW(SocketTransport{cfg}, PreconditionError) << "drop_rate " << rate;
  }
  for (const double rate : {0.0, 0.5}) {
    SocketConfig cfg;
    cfg.ranks = 2;
    cfg.drop_rate = rate;
    EXPECT_NO_THROW(SocketTransport{cfg}) << "drop_rate " << rate;
  }
}

// Remote payloads are received into buffers taken from the destination's
// pool and recv() returns one buffer per frame it hands out, so a long run
// of wire traffic cannot grow the pool past the most frames ever queued at
// once (before, every remote frame left one more buffer behind).
TEST(TransportConformance, SocketPoolStaysBoundedOverManyRemoteRounds) {
  SocketPair mesh;
  constexpr int kRounds = 200;
  constexpr int kBurst = 3;  // the most frames ever queued for rank 2
  wire::Bytes got;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBurst; ++i)
      mesh.a->send(0, 2, 7, pattern(96, static_cast<std::uint64_t>(round * kBurst + i)));
    for (int i = 0; i < kBurst; ++i) {
      mesh.b->recv(0, 2, 7, got);
      ASSERT_EQ(got, pattern(96, static_cast<std::uint64_t>(round * kBurst + i)));
    }
  }
  EXPECT_LE(mesh.b->pooled_buffers(2), static_cast<std::size_t>(kBurst));
  // The local short-circuit keeps the same balance.
  for (int round = 0; round < kRounds; ++round) {
    mesh.b->send(3, 2, 8, pattern(16, 1));
    mesh.b->recv(3, 2, 8, got);
  }
  EXPECT_LE(mesh.b->pooled_buffers(2), static_cast<std::size_t>(kBurst));
}

// A length prefix of 2^62 would make a reader allocate exabytes. The
// endpoint checks the prefix against kMaxFrameBodyBytes first: a raw
// client that dials the listener and sends it as its hello length fails
// the rendezvous with a TransportError, not a bad_alloc.
TEST(TransportConformance, SocketRejectsOversizedFrameLength) {
  const std::string dir = vmpi::make_rendezvous_dir();
  SocketConfig cfg;
  cfg.ranks = 2;
  cfg.groups = 2;
  cfg.dir = dir;
  std::exception_ptr error;
  std::thread endpoint([&] {
    try {
      SocketTransport t(cfg);  // group 0: listens, waits for group 1's hello
    } catch (...) {
      error = std::current_exception();
    }
  });
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = dir + "/g0.sock";
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::copy(path.begin(), path.end(), addr.sun_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  bool connected = false;
  for (int attempt = 0; attempt < 2000 && !connected; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (!connected) ::usleep(5'000);
  }
  const std::uint64_t huge = std::uint64_t{1} << 62;
  const bool wrote =
      connected && ::write(fd, &huge, sizeof huge) == static_cast<ssize_t>(sizeof huge);
  endpoint.join();
  ::close(fd);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(connected && wrote);
  ASSERT_TRUE(error != nullptr) << "the endpoint accepted a 2^62-byte hello";
  try {
    std::rethrow_exception(error);
  } catch (const vmpi::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("frame length"), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected TransportError, got: " << e.what();
  }
}

// A transport carries only the CA methods: they alone have the residency
// gates that owner-computes needs.
TEST(TransportConformance, SimulationRejectsTransportForNonCaMethods) {
  using Sim = sim::Simulation<particles::InverseSquareRepulsion>;
  for (const auto method : {sim::Method::ParticleRing, sim::Method::ParticleAllGather,
                            sim::Method::ForceDecomp}) {
    Sim::Config cfg;
    cfg.method = method;
    cfg.p = 4;
    cfg.machine = machine::hopper();
    EXPECT_NO_THROW(Sim(cfg, particles::init_uniform(16, cfg.box, 1, 0.01)))
        << sim::method_name(method) << " runs without a transport";
    cfg.transport = std::make_shared<ModeledTransport>(4);
    EXPECT_THROW(Sim(cfg, particles::init_uniform(16, cfg.box, 1, 0.01)), PreconditionError)
        << sim::method_name(method);
  }
  Sim::Config cfg;
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 4;
  cfg.machine = machine::hopper();
  cfg.transport = std::make_shared<ModeledTransport>(4);
  Sim s(cfg, particles::init_uniform(16, cfg.box, 1, 0.01));
  EXPECT_EQ(s.exec_mode(), vmpi::ExecMode::Lockstep) << "one endpoint: every rank local";
}

// ---------------------------------------------------------------------------
// SoaBlock wire round trip: the payload integrity half of the contract.

TEST(WireFormat, SoaBlockRoundTripsBitwise) {
  const auto src = particles::init_uniform(97, particles::Box::reflective_2d(1.0), 99, 0.05);
  SoaBlock blk;
  for (const auto& p : src) blk.push_back(p);
  wire::Bytes bytes;
  wire::to_bytes(blk, bytes);
  SoaBlock back;
  back.push_back(particles::Particle{});  // non-empty: decode must replace
  wire::from_bytes(back, bytes);
  ASSERT_EQ(back.size(), blk.size());
  for (std::size_t i = 0; i < blk.size(); ++i) {
    EXPECT_EQ(back.id[i], blk.id[i]);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.px[i]), std::bit_cast<std::uint32_t>(blk.px[i]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.py[i]), std::bit_cast<std::uint32_t>(blk.py[i]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.vx[i]), std::bit_cast<std::uint32_t>(blk.vx[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.fx[i]), std::bit_cast<std::uint64_t>(blk.fx[i]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.mass[i]),
              std::bit_cast<std::uint32_t>(blk.mass[i]));
  }
}

TEST(WireFormat, EmptyBlockAndScalarFallback) {
  SoaBlock empty;
  wire::Bytes bytes;
  wire::to_bytes(empty, bytes);
  SoaBlock back;
  back.push_back(particles::Particle{});
  wire::from_bytes(back, bytes);
  EXPECT_EQ(back.size(), 0u);

  // Trivially-copyable fallback (the ints plane payload).
  const int v = 42;
  wire::to_bytes(v, bytes);
  int w = 0;
  wire::from_bytes(w, bytes);
  EXPECT_EQ(w, v);
}

// ---------------------------------------------------------------------------
// Primitive-level conformance: with a single-endpoint transport attached,
// broadcast / skew / shift / permute / reduce must leave buffers bitwise
// identical to the unattached in-process reference.

using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;

std::vector<SoaBlock> run_primitive_round(Transport* t) {
  const int p = 8;
  const int c = 2;
  const auto g = vmpi::Grid2d::make(p, c);
  const int q = g.cols();
  vmpi::VirtualComm vc(p, machine::hopper());
  if (t != nullptr) vc.set_transport(t);

  std::vector<SoaBlock> bufs(static_cast<std::size_t>(p));
  const auto box = particles::Box::reflective_2d(1.0);
  for (int col = 0; col < q; ++col) {
    const auto blk = particles::init_uniform(24, box, 500u + static_cast<std::uint64_t>(col), 0.05);
    for (const auto& part : blk) bufs[static_cast<std::size_t>(g.leader(col))].push_back(part);
  }

  vmpi::broadcast_teams(vc, g, bufs, &Policy::bytes, vmpi::Phase::Broadcast);
  vmpi::skew_rows(vc, g, [](int row) { return row; }, bufs, &Policy::bytes, vmpi::Phase::Skew);
  vmpi::shift_rows(vc, g, 1, bufs, &Policy::bytes);
  std::vector<SoaBlock> scratch;
  vmpi::permute_buffers(vc, [p](int r) { return (r + 3) % p; }, bufs, scratch, &Policy::bytes,
                        vmpi::Phase::Shift);
  vmpi::reduce_teams(vc, g, bufs, &Policy::bytes, core::TeamCombine<Policy>{},
                     vmpi::Phase::Reduce);
  return bufs;
}

void expect_blocks_bitwise_equal(const std::vector<SoaBlock>& got,
                                 const std::vector<SoaBlock>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < got[r].size(); ++i) {
      EXPECT_EQ(got[r].id[i], want[r].id[i]) << "rank " << r;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r].px[i]),
                std::bit_cast<std::uint32_t>(want[r].px[i]))
          << "rank " << r << " slot " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r].fx[i]),
                std::bit_cast<std::uint64_t>(want[r].fx[i]))
          << "rank " << r << " slot " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r].fy[i]),
                std::bit_cast<std::uint64_t>(want[r].fy[i]))
          << "rank " << r << " slot " << i;
    }
  }
}

TEST(TransportPrimitives, ModeledRoutingMatchesReference) {
  const auto want = run_primitive_round(nullptr);
  ModeledTransport t(8);
  const auto got = run_primitive_round(&t);
  expect_blocks_bitwise_equal(got, want);
  EXPECT_GT(t.stats().frames_sent, 0u) << "primitives must actually route through the transport";
}

// ---------------------------------------------------------------------------
// Naming.

TEST(TransportFactory, NamesRoundTripAndModeledYieldsNull) {
  using vmpi::TransportKind;
  for (const auto k : {TransportKind::Modeled, TransportKind::Socket})
    EXPECT_EQ(vmpi::parse_transport_kind(vmpi::transport_kind_name(k)), k);
  EXPECT_FALSE(vmpi::parse_transport_kind("carrier-pigeon").has_value());
  EXPECT_FALSE(vmpi::parse_transport_kind("shmem").has_value());
}

}  // namespace
