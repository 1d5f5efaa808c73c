#include "vmpi/socket_transport.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/assert.hpp"

namespace canb::vmpi {

namespace {

/// Writes the whole buffer; MSG_NOSIGNAL turns a dead peer into an error
/// return instead of SIGPIPE (teardown races are tolerated, see flush).
bool write_all(int fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly n bytes; false on EOF or error.
bool read_exact(int fd, std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // orderly EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CANB_REQUIRE(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

std::string group_path(const std::string& dir, int g) {
  return dir + "/g" + std::to_string(g) + ".sock";
}

constexpr double kSetupTimeoutSeconds = 30.0;
constexpr double kFlushTimeoutSeconds = 30.0;

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures

struct SocketTransport::Mailbox {
  using FlowKey = std::pair<std::uint64_t, std::uint64_t>;  // (src rank, tag)
  std::mutex mu;
  std::condition_variable cv;
  std::map<FlowKey, std::deque<wire::Bytes>> flows;
  BufferPool<wire::Bytes> pool;
};

struct SocketTransport::Peer {
  int group = -1;
  int fd = -1;
  std::thread reader;
  // io_mu guards the fd write side, the sender's retransmit state, the
  // egress scratch buffer, and the drop RNG. The receiver is touched only
  // by the reader thread and needs no lock.
  std::mutex io_mu;
  ReliableSender sender;
  ReliableReceiver receiver;
  Xoshiro256 drop_rng;
  wire::Bytes egress_scratch;
  bool write_failed = false;

  Peer(const ReliableConfig& rc, std::uint64_t drop_seed)
      : sender(rc), drop_rng(drop_seed) {}
};

// ---------------------------------------------------------------------------
// Construction: bind, dial lower groups, accept higher groups, barrier.

SocketTransport::SocketTransport(const SocketConfig& cfg)
    : cfg_(cfg), epoch_start_(std::chrono::steady_clock::now()) {
  // At a rate of 1 every sequenced frame is dropped, retransmits included,
  // so nothing is ever delivered and both sides wait forever.
  CANB_REQUIRE(cfg_.drop_rate >= 0.0 && cfg_.drop_rate < 1.0,
               "socket transport drop rate must be in [0, 1) (1 would never deliver)");
  CANB_REQUIRE(cfg_.ranks >= 1, "socket transport needs at least one rank");
  CANB_REQUIRE(cfg_.groups >= 1 && cfg_.groups <= cfg_.ranks,
               "socket transport needs 1 <= groups <= ranks");
  CANB_REQUIRE(0 <= cfg_.group && cfg_.group < cfg_.groups,
               "socket transport group index out of range");
  CANB_REQUIRE(cfg_.groups == 1 || !cfg_.dir.empty(),
               "multi-group socket transport needs a rendezvous dir");

  boxes_.reserve(static_cast<std::size_t>(cfg_.ranks));
  for (int r = 0; r < cfg_.ranks; ++r) boxes_.push_back(std::make_unique<Mailbox>());
  peers_.resize(static_cast<std::size_t>(cfg_.groups));

  if (cfg_.groups == 1) return;  // degenerate single-process mesh

  // 1. Listen on our own rendezvous path.
  listen_path_ = group_path(cfg_.dir, cfg_.group);
  ::unlink(listen_path_.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CANB_REQUIRE(lfd >= 0, "socket() failed");
  sockaddr_un addr = make_addr(listen_path_);
  CANB_REQUIRE(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
               "bind failed on " + listen_path_);
  CANB_REQUIRE(::listen(lfd, cfg_.groups) == 0, "listen failed on " + listen_path_);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kSetupTimeoutSeconds);

  auto new_peer = [&](int g) {
    // Distinct deterministic drop stream per directed connection.
    const std::uint64_t seed =
        cfg_.drop_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                             cfg_.group * cfg_.groups + g + 1);
    return std::make_unique<Peer>(cfg_.reliable, seed);
  };

  // 2. Dial every lower group, retrying until its listener appears.
  for (int g = 0; g < cfg_.group; ++g) {
    int fd = -1;
    const std::string path = group_path(cfg_.dir, g);
    for (;;) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      CANB_REQUIRE(fd >= 0, "socket() failed");
      sockaddr_un peer_addr = make_addr(path);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&peer_addr), sizeof peer_addr) == 0) break;
      ::close(fd);
      CANB_REQUIRE(std::chrono::steady_clock::now() < deadline,
                   "rendezvous timed out dialing " + path);
      ::usleep(5'000);
    }
    Frame hello;
    hello.kind = FrameKind::Hello;
    hello.src = static_cast<std::uint32_t>(cfg_.group);
    wire::Bytes enc;
    encode_frame(hello, enc);
    CANB_REQUIRE(write_all(fd, enc.data(), enc.size()), "hello write failed to " + path);
    auto p = new_peer(g);
    p->group = g;
    p->fd = fd;
    peers_[static_cast<std::size_t>(g)] = std::move(p);
  }

  // 3. Accept every higher group; the Hello frame says who called.
  for (int i = 0; i < cfg_.groups - 1 - cfg_.group; ++i) {
    pollfd pfd{lfd, POLLIN, 0};
    for (;;) {
      const int pr = ::poll(&pfd, 1, 100);
      if (pr > 0) break;
      CANB_REQUIRE(std::chrono::steady_clock::now() < deadline,
                   "rendezvous timed out accepting on " + listen_path_);
    }
    const int fd = ::accept(lfd, nullptr, nullptr);
    CANB_REQUIRE(fd >= 0, "accept failed on " + listen_path_);
    std::uint64_t body_len = 0;
    CANB_REQUIRE(read_exact(fd, reinterpret_cast<std::byte*>(&body_len), sizeof body_len),
                 "hello length read failed");
    wire::Bytes body(body_len);
    CANB_REQUIRE(read_exact(fd, body.data(), body.size()), "hello body read failed");
    const Frame hello = decode_frame_body(body);
    CANB_REQUIRE(hello.kind == FrameKind::Hello, "expected hello frame");
    const int g = static_cast<int>(hello.src);
    CANB_REQUIRE(g > cfg_.group && g < cfg_.groups && peers_[static_cast<std::size_t>(g)] == nullptr,
                 "unexpected hello from group " + std::to_string(g));
    auto p = new_peer(g);
    p->group = g;
    p->fd = fd;
    peers_[static_cast<std::size_t>(g)] = std::move(p);
  }
  ::close(lfd);
  ::unlink(listen_path_.c_str());  // everyone dials exactly once, during setup

  // 4. Drain each connection on its own thread, then prove the mesh.
  for (auto& p : peers_) {
    if (p) p->reader = std::thread([this, pp = p.get()] { reader_loop(*pp); });
  }
  barrier();
}

SocketTransport::~SocketTransport() {
  if (cfg_.groups > 1) {
    flush_peers();  // wait until every sequenced frame we sent is acked
    barrier();      // nobody closes before everyone has flushed
    flush_peers();  // the barrier release itself is droppable: hold the fd
                    // open until its (re)transmission is acked, or the peer
                    // would retransmit into a closed socket
    closing_.store(true, std::memory_order_relaxed);
    for (auto& p : peers_) {
      if (p && p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
    }
    for (auto& p : peers_) {
      if (p && p->reader.joinable()) p->reader.join();
      if (p && p->fd >= 0) ::close(p->fd);
    }
  }
}

int SocketTransport::group_of(int rank) const noexcept {
  // Balanced block partition: the first `rem` groups own base+1 ranks.
  const int base = cfg_.ranks / cfg_.groups;
  const int rem = cfg_.ranks % cfg_.groups;
  const int cut = (base + 1) * rem;  // ranks below this live in the wide groups
  if (rank < cut) return rank / (base + 1);
  return rem + (rank - cut) / base;
}

double SocketTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_start_).count();
}

// ---------------------------------------------------------------------------
// Data path

void SocketTransport::post_local(int src, int dst, std::uint64_t tag, wire::Bytes frame) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
  const std::size_t n = frame.size();
  {
    std::lock_guard<std::mutex> lk(box.mu);
    box.flows[{static_cast<std::uint64_t>(src), tag}].push_back(std::move(frame));
  }
  box.cv.notify_all();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.frames_received += 1;
    stats_.bytes_received += n;
  }
}

void SocketTransport::egress_locked(Peer& p, const Frame& f) {
  const bool sequenced = f.kind == FrameKind::Data || f.kind == FrameKind::Barrier;
  if (sequenced && cfg_.drop_rate > 0 && p.drop_rng.uniform() < cfg_.drop_rate) {
    return;  // injected loss; the reliable layer will retransmit
  }
  encode_frame(f, p.egress_scratch);
  if (!write_all(p.fd, p.egress_scratch.data(), p.egress_scratch.size())) {
    p.write_failed = true;
    // A dead peer is fatal only for frames the protocol still needs to
    // deliver. Two writes race benignly with the peer's teardown:
    //  * Acks — a peer that closed its end has flushed (everything it
    //    sent is acked) and needs no further acks; a late duplicate of
    //    ours reaches it mid-close and its re-ack finds a shut socket.
    //  * Barrier (re)writes — a peer can only close after passing the
    //    destructor barrier, which required delivering every sequenced
    //    frame we sent it, this one included. Only its ack was lost to
    //    the shutdown race, so the retransmit had nothing left to
    //    deliver (its write_failed mark lets flush_peers() return).
    // Data frames keep the hard assert: a peer never legitimately closes
    // while our data is unacked — the destructor flushes before closing.
    CANB_ASSERT_MSG(f.kind != FrameKind::Data || closing_.load(std::memory_order_relaxed),
                    "socket transport write failed mid-run");
  }
}

void SocketTransport::send(int src, int dst, std::uint64_t tag,
                           std::span<const std::byte> payload) {
  CANB_ASSERT(0 <= src && src < cfg_.ranks && 0 <= dst && dst < cfg_.ranks);
  CANB_ASSERT_MSG(local(src), "socket transport send from non-local rank");
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.frames_sent += 1;
    stats_.bytes_sent += payload.size();
  }
  if (local(dst)) {
    wire::Bytes frame;
    {
      Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
      std::lock_guard<std::mutex> lk(box.mu);
      frame = box.pool.acquire();
    }
    frame.assign(payload.begin(), payload.end());
    post_local(src, dst, tag, std::move(frame));
    return;
  }
  Peer* p = peers_[static_cast<std::size_t>(group_of(dst))].get();
  CANB_ASSERT(p != nullptr);
  Frame f;
  f.kind = FrameKind::Data;
  f.src = static_cast<std::uint32_t>(src);
  f.dst = static_cast<std::uint32_t>(dst);
  f.tag = tag;
  f.payload.assign(payload.begin(), payload.end());
  std::lock_guard<std::mutex> lk(p->io_mu);
  p->sender.send(std::move(f), now(), [&](const Frame& out) { egress_locked(*p, out); });
}

void SocketTransport::pump_peer(Peer& p) {
  const double t = now();
  std::lock_guard<std::mutex> lk(p.io_mu);
  const std::uint64_t before = p.sender.stats().retransmits;
  p.sender.poll(t, [&](const Frame& out) { egress_locked(p, out); });
  const std::uint64_t later = p.sender.stats().retransmits;
  if (later != before) {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.retransmits += later - before;
  }
}

void SocketTransport::pump() {
  for (auto& p : peers_) {
    if (p) pump_peer(*p);
  }
}

void SocketTransport::recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) {
  CANB_ASSERT(0 <= src && src < cfg_.ranks && 0 <= dst && dst < cfg_.ranks);
  CANB_ASSERT_MSG(local(dst), "socket transport recv for non-local rank");
  Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
  const Mailbox::FlowKey key{static_cast<std::uint64_t>(src), tag};
  const auto poll_interval = std::chrono::duration<double>(cfg_.recv_poll_seconds);
  std::unique_lock<std::mutex> lk(box.mu);
  for (;;) {
    auto it = box.flows.find(key);
    if (it != box.flows.end() && !it->second.empty()) {
      wire::Bytes frame = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) box.flows.erase(it);
      out.swap(frame);
      box.pool.release(std::move(frame));
      return;
    }
    if (box.cv.wait_for(lk, poll_interval) == std::cv_status::timeout) {
      lk.unlock();
      pump();  // our own dropped frames gate the peer's progress; re-send them
      lk.lock();
    }
  }
}

// ---------------------------------------------------------------------------
// Reader threads: the fd is drained continuously, so sends never deadlock.

void SocketTransport::reader_loop(Peer& p) {
  wire::Bytes body;
  for (;;) {
    // Wait for inbound bytes, but keep this connection's retransmit wheel
    // turning while the fd is idle: our own dropped frames may be the only
    // thing gating the peer, and the application thread is not obliged to
    // call recv()/barrier() (which also pump) in the meantime.
    pollfd pfd{p.fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/2);
    if (pr == 0) {
      pump_peer(p);
      continue;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return;
    }
    std::uint64_t body_len = 0;
    if (!read_exact(p.fd, reinterpret_cast<std::byte*>(&body_len), sizeof body_len)) return;
    body.resize(body_len);
    if (!read_exact(p.fd, body.data(), body.size())) return;
    Frame f = decode_frame_header(body);
    if (f.kind == FrameKind::Data && f.dst < static_cast<std::uint32_t>(cfg_.ranks) &&
        local(static_cast<int>(f.dst))) {
      // Remote payloads land in a buffer taken from the destination's pool,
      // as local sends do: recv() returns one buffer to that pool per frame
      // it hands out, so takes and returns stay balanced and the pool never
      // holds more buffers than frames were ever queued at once.
      Mailbox& box = *boxes_[static_cast<std::size_t>(f.dst)];
      std::lock_guard<std::mutex> lk(box.mu);
      f.payload = box.pool.acquire();
    }
    const auto payload = frame_payload(body);
    f.payload.assign(payload.begin(), payload.end());
    switch (f.kind) {
      case FrameKind::Ack: {
        std::lock_guard<std::mutex> lk(p.io_mu);
        p.sender.on_ack(f.seq);
        break;
      }
      case FrameKind::Data:
      case FrameKind::Barrier: {
        const std::uint64_t before_dups = p.receiver.stats().duplicates_dropped;
        const std::uint64_t ack = p.receiver.on_data(std::move(f), [&](Frame&& d) {
          if (d.kind == FrameKind::Barrier) {
            note_barrier(d.src, d.tag);  // the barrier epoch rides in the tag field
          } else {
            post_local(static_cast<int>(d.src), static_cast<int>(d.dst), d.tag,
                       std::move(d.payload));
          }
        });
        {
          std::lock_guard<std::mutex> sl(stats_mu_);
          stats_.acks_sent += 1;
          stats_.duplicates_dropped += p.receiver.stats().duplicates_dropped - before_dups;
        }
        Frame ackf;
        ackf.kind = FrameKind::Ack;
        ackf.src = static_cast<std::uint32_t>(cfg_.group);
        ackf.seq = ack;
        std::lock_guard<std::mutex> lk(p.io_mu);
        egress_locked(p, ackf);
        break;
      }
      case FrameKind::Hello:
        break;  // only legal during rendezvous; ignore
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier and teardown

void SocketTransport::note_barrier(std::uint32_t from_group, std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(barrier_mu_);
    barrier_arrivals_[{from_group, epoch}] += 1;
  }
  barrier_cv_.notify_all();
}

void SocketTransport::wait_barrier(std::uint32_t from_group, std::uint64_t epoch) {
  std::unique_lock<std::mutex> lk(barrier_mu_);
  const auto key = std::make_pair(from_group, epoch);
  for (;;) {
    auto it = barrier_arrivals_.find(key);
    if (it != barrier_arrivals_.end() && it->second > 0) {
      it->second -= 1;
      if (it->second == 0) barrier_arrivals_.erase(it);
      return;
    }
    if (barrier_cv_.wait_for(lk, std::chrono::duration<double>(cfg_.recv_poll_seconds)) ==
        std::cv_status::timeout) {
      lk.unlock();
      pump();
      lk.lock();
    }
  }
}

void SocketTransport::barrier() {
  if (cfg_.groups == 1) return;
  const std::uint64_t epoch = barrier_epoch_++;
  auto send_barrier = [&](int to_group) {
    Peer* p = peers_[static_cast<std::size_t>(to_group)].get();
    CANB_ASSERT(p != nullptr);
    Frame f;
    f.kind = FrameKind::Barrier;
    f.src = static_cast<std::uint32_t>(cfg_.group);
    f.dst = static_cast<std::uint32_t>(to_group);
    f.tag = epoch;  // the epoch rides in the tag field
    std::lock_guard<std::mutex> lk(p->io_mu);
    p->sender.send(std::move(f), now(), [&](const Frame& out) { egress_locked(*p, out); });
  };
  if (cfg_.group == 0) {
    for (int g = 1; g < cfg_.groups; ++g) wait_barrier(static_cast<std::uint32_t>(g), epoch);
    for (int g = 1; g < cfg_.groups; ++g) send_barrier(g);
  } else {
    send_barrier(0);
    wait_barrier(0, epoch);
  }
}

void SocketTransport::flush_peers() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kFlushTimeoutSeconds);
  for (;;) {
    bool idle = true;
    for (auto& p : peers_) {
      if (!p) continue;
      std::lock_guard<std::mutex> lk(p->io_mu);
      if (!p->sender.idle() && !p->write_failed) idle = false;
    }
    if (idle) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "canb: socket transport flush timed out with unacked frames\n");
      return;
    }
    pump();
    ::usleep(1'000);
  }
}

TransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

std::size_t SocketTransport::pooled_buffers(int rank) const {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lk(box.mu);
  return box.pool.size();
}

// ---------------------------------------------------------------------------
// Launch helpers

std::string make_rendezvous_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base && *base ? base : "/tmp") + "/canb-uds-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  CANB_REQUIRE(::mkdtemp(buf.data()) != nullptr, "mkdtemp failed for " + tmpl);
  return std::string(buf.data());
}

ProcessGroup::ProcessGroup(int groups) {
  CANB_REQUIRE(groups >= 1, "ProcessGroup needs at least one group");
  for (int g = 1; g < groups; ++g) {
    const pid_t pid = ::fork();
    CANB_REQUIRE(pid >= 0, "fork failed");
    if (pid == 0) {
      group_ = g;
      pids_.clear();  // children do not own their siblings
      return;
    }
    pids_.push_back(pid);
  }
}

ProcessGroup::~ProcessGroup() {
  if (!waited_) wait_children();
}

int ProcessGroup::wait_children() {
  waited_ = true;
  int first_failure = 0;
  for (const pid_t pid : pids_) {
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid, &status, 0);
      if (r >= 0 || errno != EINTR) break;
    }
    // Propagate the first failing child's status with the shell convention:
    // its exit code verbatim, or 128+signal for a signal death. A crashed
    // non-zero group must fail the whole run, not vanish silently.
    int code = 0;
    if (WIFEXITED(status)) {
      code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      code = 128 + WTERMSIG(status);
    } else {
      code = 1;  // stopped/unknown: still a failure
    }
    if (code != 0 && first_failure == 0) first_failure = code;
  }
  pids_.clear();
  return first_failure;
}

}  // namespace canb::vmpi
