#include "vmpi/socket_transport.hpp"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/assert.hpp"
#include "vmpi/buffer_pool.hpp"

namespace canb::vmpi {

// ---------------------------------------------------------------------------
// Frame codec

void encode_frame(const Frame& f, wire::Bytes& out) {
  wire::Writer w(out);
  w.scalar<std::uint64_t>(kFrameHeaderBytes + f.payload.size());
  w.scalar<std::uint8_t>(static_cast<std::uint8_t>(f.kind));
  w.scalar<std::uint32_t>(f.src);
  w.scalar<std::uint32_t>(f.dst);
  w.scalar<std::uint64_t>(f.tag);
  w.raw(f.payload.data(), f.payload.size());
}

Frame decode_frame_body(std::span<const std::byte> body) {
  if (body.size() < kFrameHeaderBytes) throw wire::DecodeError("frame body shorter than header");
  wire::Reader r(body.first(kFrameHeaderBytes));
  Frame f;
  f.kind = static_cast<FrameKind>(r.scalar<std::uint8_t>());
  f.src = r.scalar<std::uint32_t>();
  f.dst = r.scalar<std::uint32_t>();
  f.tag = r.scalar<std::uint64_t>();
  f.payload = body.subspan(kFrameHeaderBytes);
  return f;
}

namespace {

/// Writes the whole buffer; MSG_NOSIGNAL turns a dead peer into an error
/// return instead of SIGPIPE.
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

std::string flow_name(int src, int dst, std::uint64_t tag) {
  return "(src " + std::to_string(src) + ", dst " + std::to_string(dst) + ", tag " +
         std::to_string(tag) + ")";
}

constexpr double kSetupTimeoutSeconds = 30.0;

/// Reads one frame's length prefix and header from `fd`, checking the
/// length before anything is allocated for the body. Returns why the
/// stream cannot go on, or an empty string with `f` (its payload still
/// unread) and `payload_bytes` filled in.
std::string read_frame_header(int fd, Frame& f, std::uint64_t& payload_bytes) {
  std::uint64_t body_len = 0;
  if (!read_exact(fd, reinterpret_cast<std::byte*>(&body_len), sizeof body_len))
    return "connection closed";
  if (body_len < kFrameHeaderBytes || body_len > kMaxFrameBodyBytes)
    return "frame length " + std::to_string(body_len) + " outside [" +
           std::to_string(kFrameHeaderBytes) + ", " + std::to_string(kMaxFrameBodyBytes) + "]";
  std::array<std::byte, kFrameHeaderBytes> header{};
  if (!read_exact(fd, header.data(), header.size())) return "connection closed mid-frame";
  f = decode_frame_body(header);
  f.payload = {};  // still on the wire; `header` dies with this call
  payload_bytes = body_len - kFrameHeaderBytes;
  return {};
}

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
  // io_mu guards the fd's write side, the egress buffer, and `why`.
  std::mutex io_mu;
  wire::Bytes egress;
  /// False once the connection has ended (set once, under io_mu, after
  /// every frame the reader received has been posted); `why` says how.
  std::atomic<bool> alive{true};
  std::string why;
};

// ---------------------------------------------------------------------------
// Construction: bind, dial lower groups, accept higher groups, barrier.

SocketTransport::SocketTransport(const SocketConfig& cfg) : cfg_(cfg) {
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

  int lfd = -1;
  try {
    rendezvous(lfd);
  } catch (...) {
    // No destructor runs for a half-built endpoint: release what exists.
    if (lfd >= 0) {
      ::close(lfd);
      ::unlink(listen_path_.c_str());
    }
    close_peers();
    throw;
  }
}

void SocketTransport::rendezvous(int& lfd) {
  // 1. Listen on our own rendezvous path.
  listen_path_ = group_path(cfg_.dir, cfg_.group);
  ::unlink(listen_path_.c_str());
  lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CANB_REQUIRE(lfd >= 0, "socket() failed");
  sockaddr_un addr = make_addr(listen_path_);
  CANB_REQUIRE(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
               "bind failed on " + listen_path_);
  CANB_REQUIRE(::listen(lfd, cfg_.groups) == 0, "listen failed on " + listen_path_);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kSetupTimeoutSeconds);

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
      if (std::chrono::steady_clock::now() >= deadline)
        throw TransportError("socket transport: group " + std::to_string(cfg_.group) +
                             " rendezvous timed out dialing " + path);
      ::usleep(5'000);
    }
    Frame hello;
    hello.kind = FrameKind::Hello;
    hello.src = static_cast<std::uint32_t>(cfg_.group);
    wire::Bytes enc;
    encode_frame(hello, enc);
    CANB_REQUIRE(write_all(fd, enc.data(), enc.size()), "hello write failed to " + path);
    auto p = std::make_unique<Peer>();
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
      if (std::chrono::steady_clock::now() >= deadline)
        throw TransportError("socket transport: group " + std::to_string(cfg_.group) +
                             " rendezvous timed out accepting on " + listen_path_);
    }
    const int fd = ::accept(lfd, nullptr, nullptr);
    CANB_REQUIRE(fd >= 0, "accept failed on " + listen_path_);
    Frame hello;
    std::uint64_t payload_bytes = 0;
    std::string bad = read_frame_header(fd, hello, payload_bytes);
    const int g = static_cast<int>(hello.src);
    if (bad.empty() && (hello.kind != FrameKind::Hello || payload_bytes != 0 ||
                        g <= cfg_.group || g >= cfg_.groups ||
                        peers_[static_cast<std::size_t>(g)] != nullptr))
      bad = "unexpected frame (kind " + std::to_string(static_cast<int>(hello.kind)) +
            ", src " + std::to_string(hello.src) + ")";
    if (!bad.empty()) {
      ::close(fd);
      throw TransportError("socket transport: group " + std::to_string(cfg_.group) +
                           " rendezvous on " + listen_path_ + ": hello " + bad);
    }
    auto p = std::make_unique<Peer>();
    p->group = g;
    p->fd = fd;
    peers_[static_cast<std::size_t>(g)] = std::move(p);
  }
  ::close(lfd);
  lfd = -1;
  ::unlink(listen_path_.c_str());  // everyone dials exactly once, during setup

  // 4. Drain each connection on its own thread, then prove the mesh.
  for (auto& p : peers_) {
    if (p) p->reader = std::thread([this, pp = p.get()] { reader_loop(*pp); });
  }
  barrier();
}

SocketTransport::~SocketTransport() {
  if (cfg_.groups == 1) return;
  closing_.store(true, std::memory_order_relaxed);
  // An orderly close meets every peer at a barrier, so no endpoint closes
  // while a peer still runs. With a peer gone, or an exception unwinding
  // this endpoint, close at once, so the peers see the connection end and
  // fail instead of waiting at a barrier this endpoint never reaches.
  if (std::uncaught_exceptions() == 0 && peers_alive()) {
    try {
      barrier();
    } catch (const TransportError& e) {
      // A peer died during the close barrier: report it and close; the
      // parent learns the peer's fate from its exit status.
      std::fprintf(stderr, "canb: %s\n", e.what());
    }
  }
  close_peers();
}

void SocketTransport::close_peers() noexcept {
  // shutdown() wakes each reader blocked in read() with an EOF.
  for (auto& p : peers_) {
    if (p && p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  for (auto& p : peers_) {
    if (p && p->reader.joinable()) p->reader.join();
    if (p && p->fd >= 0) ::close(p->fd);
    if (p) p->fd = -1;
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

bool SocketTransport::write_frame(Peer& p, const Frame& f) {
  std::unique_lock<std::mutex> lk(p.io_mu);
  if (!p.alive.load(std::memory_order_relaxed)) return false;  // nobody to write to
  encode_frame(f, p.egress);
  if (write_all(p.fd, p.egress.data(), p.egress.size())) return true;
  // The peer closed its end: mid-run it died; during our teardown it is
  // its orderly close, and lose_peer records that instead.
  const std::string why = std::string("write failed: ") + std::strerror(errno);
  lk.unlock();
  lose_peer(p, why);
  return false;
}

void SocketTransport::lose_peer(Peer& p, std::string why) {
  {
    std::lock_guard<std::mutex> lk(p.io_mu);
    if (!p.alive.load(std::memory_order_relaxed)) return;
    p.why = closing_.load(std::memory_order_relaxed) ? "closed" : std::move(why);
    p.alive.store(false, std::memory_order_release);
  }
  // Waiters check the peer and block under their mutex, so notifying under
  // it too means no waiter can miss this wakeup between the two.
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lk(box->mu);
    box->cv.notify_all();
  }
  std::lock_guard<std::mutex> lk(barrier_mu_);
  barrier_cv_.notify_all();
}

void SocketTransport::throw_lost(Peer& p, const std::string& flow) {
  std::string why;
  {
    std::lock_guard<std::mutex> lk(p.io_mu);
    why = p.why;
  }
  throw TransportError("socket transport: group " + std::to_string(cfg_.group) +
                       " lost peer group " + std::to_string(p.group) + " (" + why + ") " +
                       flow);
}

bool SocketTransport::peers_alive() const {
  for (const auto& p : peers_) {
    if (p && !p->alive.load(std::memory_order_acquire)) return false;
  }
  return true;
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
  Peer& p = *peers_[static_cast<std::size_t>(group_of(dst))];
  const Frame f{FrameKind::Data, static_cast<std::uint32_t>(src),
                static_cast<std::uint32_t>(dst), tag, payload};
  if (!write_frame(p, f)) throw_lost(p, "sending flow " + flow_name(src, dst, tag));
}

void SocketTransport::recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) {
  CANB_ASSERT(0 <= src && src < cfg_.ranks && 0 <= dst && dst < cfg_.ranks);
  CANB_ASSERT_MSG(local(dst), "socket transport recv for non-local rank");
  Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
  const Mailbox::FlowKey key{static_cast<std::uint64_t>(src), tag};
  Peer* from = local(src) ? nullptr : peers_[static_cast<std::size_t>(group_of(src))].get();
  std::unique_lock<std::mutex> lk(box.mu);
  for (;;) {
    // Read the peer state before the queue: the reader posts every frame
    // it received before marking the peer gone, so a gone peer with an
    // empty queue will never deliver this flow.
    const bool gone = from != nullptr && !from->alive.load(std::memory_order_acquire);
    auto it = box.flows.find(key);
    if (it != box.flows.end() && !it->second.empty()) {
      wire::Bytes frame = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) box.flows.erase(it);
      out.swap(frame);
      box.pool.release(std::move(frame));
      return;
    }
    if (gone) {
      lk.unlock();
      throw_lost(*from, "receiving flow " + flow_name(src, dst, tag));
    }
    box.cv.wait(lk);
  }
}

// ---------------------------------------------------------------------------
// Reader threads: the fd is drained continuously, so sends never deadlock.

std::string SocketTransport::check_frame(const Peer& p, const Frame& f,
                                         std::uint64_t payload_bytes) const {
  const auto ranks = static_cast<std::uint32_t>(cfg_.ranks);
  switch (f.kind) {
    case FrameKind::Data:
      if (f.src >= ranks || group_of(static_cast<int>(f.src)) != p.group)
        return "src is not a rank of group " + std::to_string(p.group);
      if (f.dst >= ranks || !local(static_cast<int>(f.dst)))
        return "dst is not a rank of group " + std::to_string(cfg_.group);
      return {};
    case FrameKind::Barrier:
      if (f.src != static_cast<std::uint32_t>(p.group)) return "barrier from another group";
      if (payload_bytes != 0) return "barrier with a payload";
      return {};
    default:
      return "not a data or barrier frame";  // an unknown kind, or a hello mid-run
  }
}

void SocketTransport::reader_loop(Peer& p) {
  for (;;) {
    Frame f;
    std::uint64_t payload_bytes = 0;
    if (std::string why = read_frame_header(p.fd, f, payload_bytes); !why.empty())
      return lose_peer(p, std::move(why));
    // Checked before anything is taken from a pool: a frame this peer may
    // not send fails the peer like an EOF.
    if (const std::string bad = check_frame(p, f, payload_bytes); !bad.empty())
      return lose_peer(p, "bad frame (kind " + std::to_string(static_cast<int>(f.kind)) +
                              ", src " + std::to_string(f.src) + ", dst " +
                              std::to_string(f.dst) + ", tag " + std::to_string(f.tag) +
                              "): " + bad);
    if (f.kind == FrameKind::Barrier) {
      note_barrier(f.src, f.tag);  // the barrier epoch rides in the tag field
      continue;
    }
    // The payload lands in a buffer taken from the destination's pool, as
    // local sends do: recv() returns one buffer to that pool per frame it
    // hands out, so takes and returns stay balanced and the pool never
    // holds more buffers than frames were ever queued at once.
    Mailbox& box = *boxes_[f.dst];
    wire::Bytes payload;
    {
      std::lock_guard<std::mutex> lk(box.mu);
      payload = box.pool.acquire();
    }
    payload.resize(payload_bytes);
    if (!read_exact(p.fd, payload.data(), payload.size()))
      return lose_peer(p, "connection closed mid-frame");
    post_local(static_cast<int>(f.src), static_cast<int>(f.dst), f.tag, std::move(payload));
  }
}

// ---------------------------------------------------------------------------
// Barrier

void SocketTransport::note_barrier(std::uint32_t from_group, std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(barrier_mu_);
    barrier_arrivals_[{from_group, epoch}] += 1;
  }
  barrier_cv_.notify_all();
}

void SocketTransport::wait_barrier(std::uint32_t from_group, std::uint64_t epoch) {
  Peer& from = *peers_[from_group];
  std::unique_lock<std::mutex> lk(barrier_mu_);
  const auto key = std::make_pair(from_group, epoch);
  for (;;) {
    const bool gone = !from.alive.load(std::memory_order_acquire);  // before the arrivals
    auto it = barrier_arrivals_.find(key);
    if (it != barrier_arrivals_.end() && it->second > 0) {
      it->second -= 1;
      if (it->second == 0) barrier_arrivals_.erase(it);
      return;
    }
    if (gone) {
      lk.unlock();
      throw_lost(from, "waiting for barrier epoch " + std::to_string(epoch) + " from group " +
                           std::to_string(from_group));
    }
    barrier_cv_.wait(lk);
  }
}

void SocketTransport::barrier() {
  if (cfg_.groups == 1) return;
  const std::uint64_t epoch = barrier_epoch_++;
  auto send_barrier = [&](int to_group) {
    Peer& p = *peers_[static_cast<std::size_t>(to_group)];
    const Frame f{FrameKind::Barrier, static_cast<std::uint32_t>(cfg_.group),
                  static_cast<std::uint32_t>(to_group), epoch, {}};
    if (!write_frame(p, f))
      throw_lost(p, "sending barrier epoch " + std::to_string(epoch) + " to group " +
                        std::to_string(to_group));
  };
  if (cfg_.group == 0) {
    for (int g = 1; g < cfg_.groups; ++g) wait_barrier(static_cast<std::uint32_t>(g), epoch);
    for (int g = 1; g < cfg_.groups; ++g) send_barrier(g);
  } else {
    send_barrier(0);
    wait_barrier(0, epoch);
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
