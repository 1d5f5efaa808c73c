// Multi-process socket transport: one OS process per rank group, a full
// mesh of Unix-domain stream sockets, length-prefixed frames, and the
// reliable-channel layer from reliable.hpp on every connection.
//
// Rendezvous protocol (docs/TRANSPORT.md):
//   1. every group binds + listens on <dir>/g<group>.sock;
//   2. group b dials every lower group a < b (retrying while the listener
//      is not up yet) and introduces itself with a Hello frame;
//   3. group a accepts groups-1-a connections and learns each peer from
//      its Hello;
//   4. a two-phase barrier through group 0 confirms the mesh.
//
// Each peer connection gets a dedicated reader thread that drains the fd
// continuously — so a send can never deadlock against a peer that is also
// sending — feeding a ReliableReceiver whose in-order deliveries land in
// per-destination-rank mailboxes (one mutex and condition variable each).
// Acks ride the same fd in the reverse direction. Retransmits are driven by
// the orchestration thread: recv() pumps every sender's timeout wheel while
// it waits, so a dropped frame is re-sent even when the application is
// blocked.
//
// Ranks are block-partitioned across groups. Rank locality decides
// routing: local->local sends short-circuit through the mailbox; frames
// with a remote destination cross the wire. The primitives run
// owner-computes on a multi-group mesh: a process sends only from the
// ranks it owns and adopts the wire bytes for them; local(dst)==false
// means some *other* process installs those bytes.
//
// Failure: when a connection ends (EOF, a read or write error, or a frame
// whose length prefix exceeds kMaxFrameBodyBytes), the reader records the
// peer as gone. recv(), barrier() and send() then throw TransportError for
// any flow that needs that peer, instead of waiting forever. An EOF after
// this endpoint began its own teardown is a peer's orderly close. Teardown
// skips the flush and close barrier when a peer is gone or an exception is
// unwinding, so surviving peers see the connection close and fail in turn.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "support/rng.hpp"
#include "vmpi/reliable.hpp"
#include "vmpi/transport.hpp"

namespace canb::vmpi {

struct SocketConfig {
  int ranks = 0;
  int groups = 1;
  int group = 0;
  std::string dir;  ///< rendezvous directory holding the g<k>.sock paths
  ReliableConfig reliable;
  /// Deliberate egress drop injection for sequenced frames (tests): each
  /// Data/Barrier write is discarded with this probability, forcing the
  /// reliable layer to recover via retransmit.
  double drop_rate = 0;
  std::uint64_t drop_seed = 1;
  /// How long recv() waits on the mailbox before pumping retransmit
  /// timers. Only matters when frames can be lost.
  double recv_poll_seconds = 0.002;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const SocketConfig& cfg);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  TransportKind kind() const noexcept override { return TransportKind::Socket; }
  int ranks() const noexcept override { return cfg_.ranks; }
  bool local(int rank) const noexcept override { return group_of(rank) == cfg_.group; }

  void send(int src, int dst, std::uint64_t tag, std::span<const std::byte> payload) override;
  void recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) override;

  /// Two-phase rendezvous through group 0: everyone reports in, group 0
  /// releases everyone. Barrier frames are sequenced like data, so a
  /// completed barrier proves in-order receipt of everything before it.
  /// Throws TransportError when the group it waits on is gone.
  void barrier() override;

  TransportStats stats() const override;

  /// Idle payload buffers held for local rank `rank`'s mailbox (recycled
  /// by recv(), taken by every frame posted to it).
  std::size_t pooled_buffers(int rank) const;

  /// Balanced block partition of ranks over groups.
  int group_of(int rank) const noexcept;
  int group() const noexcept override { return cfg_.group; }
  int groups() const noexcept override { return cfg_.groups; }
  int owner_group(int rank) const noexcept override { return group_of(rank); }

 private:
  struct Mailbox;
  struct Peer;

  void rendezvous(int& listen_fd);
  double now() const;
  void post_local(int src, int dst, std::uint64_t tag, wire::Bytes frame);
  void egress_locked(Peer& p, const Frame& f);  // requires p.io_mu held
  bool send_sequenced(Peer& p, Frame f);         // false when the peer is gone
  void lose_peer_locked(Peer& p, std::string why);  // requires p.io_mu held
  void lose_peer(Peer& p, std::string why);
  [[noreturn]] void throw_lost(Peer& p, const std::string& flow);
  bool peers_alive() const;
  void pump_peer(Peer& p);
  void pump();
  void flush_peers();
  void close_peers() noexcept;
  void reader_loop(Peer& p);
  void note_barrier(std::uint32_t from_group, std::uint64_t epoch);
  void wait_barrier(std::uint32_t from_group, std::uint64_t epoch);

  SocketConfig cfg_;
  std::chrono::steady_clock::time_point epoch_start_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;  // indexed by local rank slot
  std::vector<std::unique_ptr<Peer>> peers_;     // indexed by peer group id (self slot unused)
  std::string listen_path_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> barrier_arrivals_;
  std::uint64_t barrier_epoch_ = 0;

  mutable std::mutex stats_mu_;
  TransportStats stats_;
  /// Set when teardown begins: a peer EOF from then on is an orderly close.
  std::atomic<bool> closing_{false};
};

/// Creates a fresh private rendezvous directory (mkdtemp under $TMPDIR or
/// /tmp — Unix-socket paths are length-limited, so keep it short). The
/// caller owns cleanup.
std::string make_rendezvous_dir();

/// Fork-based launcher for the socket arm: forks groups-1 children and
/// tells each process which group it is. Fork happens in the constructor,
/// so call it before spawning any threads. The parent is always group 0.
class ProcessGroup {
 public:
  explicit ProcessGroup(int groups);
  ~ProcessGroup();

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int group() const noexcept { return group_; }
  bool primary() const noexcept { return group_ == 0; }

  /// Parent: reaps every child and returns the FIRST failing child's exit
  /// status (its exit code verbatim, or 128+signal when it died to a
  /// signal; 0 when all children exited cleanly) so callers can fail the
  /// run with the child's status instead of silently exiting 0.
  /// Children: returns 0 immediately.
  int wait_children();

 private:
  std::vector<pid_t> pids_;
  int group_ = 0;
  bool waited_ = false;
};

}  // namespace canb::vmpi
