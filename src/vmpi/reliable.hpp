// Reliable-channel layer for the socket transport: sequence numbers,
// cumulative acks, duplicate discard, and retransmit with exponential
// backoff.
//
// The protocol engine is deliberately *passive*: it owns no threads, no
// sockets, and no clock. Callers feed it frames and timestamps and it
// emits frames back through callbacks. That makes it deterministic under
// test — tests/test_reliable.cpp drives it with a manual clock and a
// seeded lossy link (drop / reorder / duplicate) and asserts eventual
// in-order delivery — and lets the socket layer bolt it onto real fds
// with its own locking.
//
// Retry semantics deliberately mirror vmpi::PerturbationModel (fault.hpp),
// the modeled arm's account of the same machinery: the initial retransmit
// timeout plays timeout_factor x attempt_cost, each expiry multiplies the
// timeout by `backoff`, and a frame still unacked after `max_attempts`
// transmissions is a fatal channel failure (the model's cap on retries).
// tests/test_reliable.cpp pins the accounting parity: k forced drops cost
// exactly the retries/timeouts/backoff-wait that
// PerturbationModel::plan_delivery charges for k modeled drops.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>

#include "support/wire.hpp"

namespace canb::vmpi {

enum class FrameKind : std::uint8_t {
  Data = 1,     ///< application payload, sequenced + retransmittable
  Ack = 2,      ///< cumulative ack; seq = count of contiguously received frames
  Hello = 3,    ///< connection rendezvous; src = sender's group id
  Barrier = 4,  ///< group-level rendezvous token
};

/// One framed message. For Data frames src/dst/tag identify the vmpi flow;
/// for control frames src/dst carry group ids. `seq` is per-connection for
/// Data, a cumulative count for Ack.
struct Frame {
  FrameKind kind = FrameKind::Data;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
  wire::Bytes payload;
};

/// Wire image: [u64 body_len][u8 kind][u32 src][u32 dst][u64 tag][u64 seq]
/// [payload]. body_len counts everything after the length word, so a byte
/// stream is self-delimiting (length-prefixed framing).
void encode_frame(const Frame& f, wire::Bytes& out);
Frame decode_frame_body(std::span<const std::byte> body);
/// The header fields of a frame body; the payload is left empty, for a
/// caller that copies frame_payload(body) into a buffer of its choosing.
Frame decode_frame_header(std::span<const std::byte> body);
std::span<const std::byte> frame_payload(std::span<const std::byte> body);

/// Number of bytes in the fixed header *after* the u64 length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4 + 8 + 8;

/// Largest frame body a reader accepts, checked before it allocates: a
/// length prefix outside [kFrameHeaderBytes, kMaxFrameBodyBytes] is a
/// corrupt or hostile stream, not a frame. 1 GiB is far above anything the
/// library sends (a team block of 10^6 particles serializes to ~50 MB).
inline constexpr std::uint64_t kMaxFrameBodyBytes = std::uint64_t{1} << 30;

struct ReliableConfig {
  double rto = 0.05;      ///< initial retransmit timeout, seconds
  double backoff = 2.0;   ///< timeout multiplier per expiry (PerturbationModel::backoff)
  int max_attempts = 10;  ///< total transmissions before the channel is declared dead
};

struct ReliableSenderStats {
  std::uint64_t data_sent = 0;     ///< first transmissions
  std::uint64_t retransmits = 0;   ///< expiry-driven re-sends
  std::uint64_t timeouts = 0;      ///< expirations observed (== retransmits)
  double backoff_wait = 0;         ///< total seconds spent waiting on expired timeouts
};

/// Sender half of one directed connection. Stamps sequence numbers,
/// retains unacked frames, retransmits on expiry.
class ReliableSender {
 public:
  using Emit = std::function<void(const Frame&)>;

  explicit ReliableSender(ReliableConfig cfg) : cfg_(cfg) {}

  /// Stamps the next sequence number, emits the frame, and retains it for
  /// retransmission until acked. Returns the assigned seq.
  std::uint64_t send(Frame frame, double now, const Emit& emit);

  /// Processes a cumulative ack: all frames with seq < acked are released.
  void on_ack(std::uint64_t acked);

  /// Retransmits every frame whose timeout expired at `now`, doubling (by
  /// `backoff`) its timeout. Aborts if a frame exhausts max_attempts.
  /// Returns the earliest pending deadline, or +inf when idle.
  double poll(double now, const Emit& emit);

  bool idle() const noexcept { return pending_.empty(); }
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  const ReliableSenderStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    Frame frame;
    double deadline = 0;
    double rto = 0;
    int attempts = 1;
  };

  ReliableConfig cfg_;
  std::uint64_t next_seq_ = 0;
  std::deque<Pending> pending_;
  ReliableSenderStats stats_;
};

struct ReliableReceiverStats {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t reordered_held = 0;  ///< frames stashed out-of-order
  std::uint64_t acks_sent = 0;
};

/// Receiver half of one directed connection: delivers in sequence order
/// exactly once, discards duplicates, stashes out-of-order arrivals, and
/// answers every Data frame with a cumulative ack.
class ReliableReceiver {
 public:
  using Deliver = std::function<void(Frame&&)>;

  /// Feeds one Data frame. In-order frames (and any contiguous stashed
  /// successors) are handed to `deliver`. Returns the cumulative ack value
  /// to put on the wire (the count of contiguously delivered frames).
  std::uint64_t on_data(Frame&& f, const Deliver& deliver);

  std::uint64_t next_expected() const noexcept { return next_expected_; }
  const ReliableReceiverStats& stats() const noexcept { return stats_; }

 private:
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Frame> stashed_;
  ReliableReceiverStats stats_;
};

}  // namespace canb::vmpi
