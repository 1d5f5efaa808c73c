// Cross-backend transport conformance suite (vmpi/transport.hpp,
// vmpi/socket_transport.hpp): every backend must satisfy the same
// contract the primitives rely on —
//
//   1. per-(src, dst, tag) flows deliver in send order (FIFO);
//   2. distinct flows never mix, whatever the interleaving;
//   3. zero-length payloads are legal frames and arrive as such;
//   4. large frames (megabytes) survive intact;
//   5. SoaBlock payloads and socket frames round-trip bitwise through wire
//      encode/decode, and a truncated frame throws wire::DecodeError;
//   6. a corrupt length prefix fails the endpoint with a TransportError
//      before anything is allocated for it, and so does a frame the peer
//      may not send; a frame with a flipped byte is delivered or fails
//      the peer, never aborts or hangs;
//   7. with a transport attached, the vmpi primitives produce buffers
//      bitwise identical to the unattached in-process reference.
//
// The socket backend is exercised in-process as a 2-group mesh: both
// endpoints are constructed concurrently (the constructor blocks on
// rendezvous) and frames genuinely cross Unix-domain sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <span>
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
#include "support/rng.hpp"
#include "support/wire.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/socket_transport.hpp"
#include "vmpi/transport.hpp"
#include "vmpi/virtual_comm.hpp"

namespace {

using namespace canb;
using particles::SoaBlock;
using vmpi::Frame;
using vmpi::FrameKind;
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
// locality, framing, and the UDS mesh are all real).

struct SocketPair {
  std::string dir;
  std::shared_ptr<SocketTransport> a;  // group 0: ranks 0, 1
  std::shared_ptr<SocketTransport> b;  // group 1: ranks 2, 3

  SocketPair() {
    dir = vmpi::make_rendezvous_dir();
    SocketConfig cfg;
    cfg.ranks = 4;
    cfg.groups = 2;
    cfg.dir = dir;
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

/// Connects to a listening endpoint's socket, retrying while it comes up;
/// -1 when it never does.
int dial(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::copy(path.begin(), path.end(), addr.sun_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return fd;
    ::usleep(5'000);
  }
  ::close(fd);
  return -1;
}

bool write_bytes(int fd, const wire::Bytes& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
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
  const int fd = dial(dir + "/g0.sock");
  const bool connected = fd >= 0;
  const std::uint64_t huge = std::uint64_t{1} << 62;
  const bool wrote =
      connected && ::write(fd, &huge, sizeof huge) == static_cast<ssize_t>(sizeof huge);
  endpoint.join();
  if (connected) ::close(fd);
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

// A real group-0 endpoint of a 2-rank, 2-group mesh whose group 1 is the
// test itself: a raw client that dials, sends its hello and its half of
// the epoch-0 barrier, then writes whatever bytes the test chooses.
struct RawGroupOne {
  std::string dir = vmpi::make_rendezvous_dir();
  std::unique_ptr<SocketTransport> group0;  // owns rank 0
  int fd = -1;                              // group 1's end; group 1 owns rank 1

  RawGroupOne() = default;
  RawGroupOne(const RawGroupOne&) = delete;
  RawGroupOne& operator=(const RawGroupOne&) = delete;
  ~RawGroupOne() {
    // Closing first ends group 1 for the endpoint, so its teardown skips
    // the close barrier.
    close();
    group0.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// A hang in a raw-peer test ends the process (SIGALRM's default action)
/// instead of waiting for the ctest timeout.
struct HangGuard {
  explicit HangGuard(unsigned seconds) { ::alarm(seconds); }
  ~HangGuard() { ::alarm(0); }
  HangGuard(const HangGuard&) = delete;
  HangGuard& operator=(const HangGuard&) = delete;
};

/// Brings up the mesh; false when the rendezvous failed.
bool connect_raw_group_one(RawGroupOne& mesh) {
  SocketConfig cfg;
  cfg.ranks = 2;
  cfg.groups = 2;
  cfg.dir = mesh.dir;
  std::exception_ptr error;
  std::thread endpoint([&] {
    try {
      mesh.group0 = std::make_unique<SocketTransport>(cfg);
    } catch (...) {
      error = std::current_exception();
    }
  });
  mesh.fd = dial(mesh.dir + "/g0.sock");
  wire::Bytes hello;
  wire::Bytes barrier;
  vmpi::encode_frame({FrameKind::Hello, 1, 0, 0, {}}, hello);
  vmpi::encode_frame({FrameKind::Barrier, 1, 0, /*epoch=*/0, {}}, barrier);
  const bool wrote = mesh.fd >= 0 && write_bytes(mesh.fd, hello) && write_bytes(mesh.fd, barrier);
  if (!wrote) mesh.close();  // unblocks the endpoint's rendezvous
  endpoint.join();
  return wrote && error == nullptr && mesh.group0 != nullptr;
}

// A peer may send data only from a rank it owns to a rank this endpoint
// owns, and barriers only as itself. Any other frame fails the peer like
// an EOF before anything is taken from a pool: a dst past the rank count
// would index past the mailboxes, a dst the peer owns would land in a
// mailbox nobody reads. The raw client keeps its end open, so only the
// check can end the wait.
TEST(TransportConformance, SocketFailsThePeerOnABadFrame) {
  const auto payload = pattern(8, 1);
  const struct {
    const char* what;
    Frame frame;
  } trials[] = {
      {"a data frame for rank 1000", {FrameKind::Data, 1, 1000, 7, payload}},
      {"a data frame for rank 1, which group 1 owns", {FrameKind::Data, 1, 1, 7, payload}},
      {"a frame of kind 9", {static_cast<FrameKind>(9), 1, 0, 7, payload}},
      {"a hello mid-run", {FrameKind::Hello, 1, 0, 0, {}}},
  };
  const HangGuard guard(60);
  for (const auto& trial : trials) {
    SCOPED_TRACE(trial.what);
    RawGroupOne mesh;
    ASSERT_TRUE(connect_raw_group_one(mesh));
    wire::Bytes bytes;
    vmpi::encode_frame(trial.frame, bytes);
    ASSERT_TRUE(write_bytes(mesh.fd, bytes));
    wire::Bytes got;
    try {
      mesh.group0->recv(1, 0, 7, got);
      ADD_FAILURE() << "recv returned a frame";
    } catch (const vmpi::TransportError& e) {
      EXPECT_NE(std::string(e.what()).find("lost peer group 1 (bad frame"), std::string::npos)
          << e.what();
    }
  }
}

// A data frame with one byte flipped, at each position in turn, then the
// end of the stream: group 0's recv either returns the frame (the flip hit
// the payload, or shortened the length prefix) or throws TransportError
// (the flip hit the header, lengthened the frame past the stream, or broke
// the length cap). It never aborts or hangs.
TEST(TransportConformance, SocketFlippedFrameDeliversOrFailsThePeer) {
  const auto payload = pattern(16, 3);
  wire::Bytes frame;
  vmpi::encode_frame({FrameKind::Data, 1, 0, 7, payload}, frame);
  const std::size_t payload_at = sizeof(std::uint64_t) + vmpi::kFrameHeaderBytes;
  SplitMix64 rng(2013);
  int delivered = 0;
  int thrown = 0;
  const HangGuard guard(120);
  for (std::size_t at = 0; at < frame.size(); ++at) {
    SCOPED_TRACE(::testing::Message() << "byte " << at << " flipped");
    RawGroupOne mesh;
    ASSERT_TRUE(connect_raw_group_one(mesh));
    wire::Bytes bad = frame;
    bad[at] ^= static_cast<std::byte>(1u + rng.next() % 255u);
    ASSERT_TRUE(write_bytes(mesh.fd, bad));
    mesh.close();
    wire::Bytes got;
    try {
      mesh.group0->recv(1, 0, 7, got);
      ++delivered;
      ASSERT_LE(got.size(), payload.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (payload_at + i != at) {
          EXPECT_EQ(got[i], payload[i]) << "payload byte " << i;
        }
      }
    } catch (const vmpi::TransportError&) {
      ++thrown;
    }
  }
  EXPECT_GT(delivered, 0) << "flips in the payload must still deliver";
  EXPECT_GT(thrown, 0) << "flips in the header must fail the peer";
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

// A frame is another process's bytes: every malformed one must decode or
// throw wire::DecodeError, never abort or allocate what a corrupt count
// asks for (the ASan/UBSan CI leg runs these too).

wire::Bytes block_frame() {
  const auto src = particles::init_uniform(13, particles::Box::reflective_2d(1.0), 7, 0.05);
  SoaBlock blk;
  for (const auto& p : src) blk.push_back(p);
  wire::Bytes bytes;
  wire::to_bytes(blk, bytes);
  return bytes;
}

TEST(WireFormat, EveryTruncatedSoaBlockThrows) {
  const auto bytes = block_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SoaBlock back;
    EXPECT_THROW(wire::from_bytes(back, std::span<const std::byte>(bytes).first(len)),
                 wire::DecodeError)
        << "prefix of " << len << " of " << bytes.size() << " bytes";
  }
  wire::Bytes longer = bytes;
  longer.push_back(std::byte{0});
  SoaBlock back;
  EXPECT_THROW(wire::from_bytes(back, longer), wire::DecodeError) << "a trailing byte";
}

TEST(WireFormat, FlippedSoaBlockBytesDecodeOrThrow) {
  const auto bytes = block_frame();
  SplitMix64 rng(2013);
  int thrown = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    wire::Bytes bad = bytes;
    const int flips = 1 + static_cast<int>(rng.next() % 3);
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.next() % bad.size());
      bad[at] ^= static_cast<std::byte>(1u + rng.next() % 255u);
    }
    SoaBlock back;
    try {
      wire::from_bytes(back, bad);
    } catch (const wire::DecodeError&) {
      ++thrown;
    }
  }
  EXPECT_GT(thrown, 0) << "flips that hit a count or a length must be rejected";
}

TEST(SocketFraming, EncodeDecodeRoundTrip) {
  const auto payload = pattern(13, 5);
  wire::Bytes enc;
  vmpi::encode_frame({FrameKind::Data, 1, 2, 77, payload}, enc);
  // The length prefix counts everything after itself.
  ASSERT_EQ(enc.size(), sizeof(std::uint64_t) + vmpi::kFrameHeaderBytes + payload.size());
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, enc.data(), sizeof body_len);
  EXPECT_EQ(body_len, enc.size() - sizeof body_len);
  const Frame back =
      vmpi::decode_frame_body(std::span<const std::byte>(enc).subspan(sizeof body_len));
  EXPECT_EQ(back.kind, FrameKind::Data);
  EXPECT_EQ(back.src, 1u);
  EXPECT_EQ(back.dst, 2u);
  EXPECT_EQ(back.tag, 77u);
  EXPECT_TRUE(std::ranges::equal(back.payload, payload));
}

// A data frame carries a wire-encoded block. Cut its body anywhere: the
// header decode throws, or the block decode of what is left does.
TEST(SocketFraming, EveryTruncatedDataFrameThrows) {
  const auto block = block_frame();
  wire::Bytes enc;
  vmpi::encode_frame({FrameKind::Data, 1, 2, 77, block}, enc);
  const auto body = std::span<const std::byte>(enc).subspan(sizeof(std::uint64_t));
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(
        {
          const Frame f = vmpi::decode_frame_body(body.first(len));
          SoaBlock back;
          wire::from_bytes(back, f.payload);
        },
        wire::DecodeError)
        << "prefix of " << len << " of " << body.size() << " body bytes";
  }
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

  vmpi::DataPlane<SoaBlock> plane;
  vmpi::broadcast_teams(vc, g, bufs, &Policy::bytes, plane);
  vmpi::skew_rows(vc, g, [](int row) { return row; }, bufs, &Policy::bytes, plane.ints);
  vmpi::shift_rows(vc, g, 1, bufs, &Policy::bytes);
  std::vector<SoaBlock> scratch;
  vmpi::permute_buffers(vc, [p](int r) { return (r + 3) % p; }, bufs, scratch, &Policy::bytes,
                        vmpi::Phase::Shift);
  vmpi::reduce_teams(vc, g, bufs, &Policy::bytes, core::TeamCombine<Policy>{}, plane);
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
