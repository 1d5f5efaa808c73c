// Pluggable byte transports beneath the vmpi primitives.
//
// The primitives charge the virtual clock from particle *counts* before any
// payload moves (the charge-before-move invariant), so swapping the data
// move from in-process assignment to serialize -> wire -> deserialize
// cannot perturb ledgers, clocks, or traces. It does make the channel
// load-bearing for *trajectories*: the receiver adopts the wire bytes, so a
// transport bug corrupts particle state and fails the cross-backend parity
// suite instead of hiding behind a modeled copy.
//
// Contract (pinned by tests/test_transport.cpp):
//   - send(src, dst, tag, payload): posts one framed message. Per
//     (src, dst, tag) flow, messages are delivered in send order (FIFO).
//     Zero-length payloads are legal frames.
//   - recv(src, dst, tag, out): blocks until the next frame of that flow
//     arrives, then fills `out` (capacity-preserving where possible).
//     `dst` must be local to this endpoint.
//   - local(rank): whether `rank`'s payloads materialize in this process.
//     The modeled backend owns every rank; the socket backend partitions
//     ranks into process groups.
//   - barrier(): rendezvous across endpoints; no-op for the modeled backend.
//   - send/recv/barrier throw TransportError once the endpoint they need
//     is gone, instead of waiting forever.
//
// Backends:
//   - ModeledTransport: serial in-process FIFO queues, no locks. The
//     reference implementation of the contract; also useful to exercise
//     serialization without concurrency in the mix.
//   - SocketTransport (socket_transport.hpp): one OS process per rank
//     group, length-prefixed frames over Unix-domain stream sockets.
//     Callers build it from a SocketConfig.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "support/wire.hpp"

namespace canb::vmpi {

enum class TransportKind { Modeled, Socket };

const char* transport_kind_name(TransportKind k) noexcept;
std::optional<TransportKind> parse_transport_kind(std::string_view name) noexcept;

/// The execution mode in effect: a label, not a choice.
///   - Lockstep: one endpoint, every rank local (no transport, the modeled
///     one, or a one-group socket mesh); this process computes all p
///     virtual ranks.
///   - OwnerComputes: every run whose transport spans more than one
///     process group. Each process runs force sweeps / reassign splits /
///     data-plane copies only for ranks its group owns; everything else is
///     obtained by recv-adoption. The virtual cost plane stays fully
///     replicated, so clocks/ledgers/traces remain bitwise identical to the
///     modeled arm while host wall-clock drops ~G×.
enum class ExecMode { Lockstep, OwnerComputes };

const char* exec_mode_name(ExecMode m) noexcept;

/// A transport that can no longer deliver: a peer endpoint died or closed
/// mid-run, or sent a frame the protocol rejects. The message names this
/// endpoint's group, the peer group, and the flow that was waiting.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tags at or above this value are reserved for out-of-band control flows
/// that ride the transport without touching the virtual cost model —
/// today the telemetry snapshot push (obs/snapshot.hpp), tomorrow session
/// control. VirtualComm::next_transport_tag() allocates data-flow tags by
/// counting up from 1 and can never reach this range.
inline constexpr std::uint64_t kReservedTagBase = 0xFFFF'FFFF'0000'0000ull;

/// Reserved-tag sub-spaces. The telemetry snapshot push uses
/// kReservedTagBase + group (obs/snapshot.hpp); the owner-computes machinery
/// carves out two more disjoint blocks:
///   - gather flows: one tag per (team, sender group) so the end-of-run
///     all-gather of team blocks (vmpi/gather.hpp) never aliases a snapshot
///     or data-flow tag;
///   - reassign count exchange: one tag per routing round, used by the
///     owner-computes arm of reassign_spatial to agree on migration counts
///     out of band (charges nothing — the virtual cost was already paid by
///     the replicated permute_step charge loop).
inline constexpr std::uint64_t kGatherTagBase = kReservedTagBase + 0x0010'0000ull;
inline constexpr std::uint64_t kReassignCountTagBase = kReservedTagBase + 0x0020'0000ull;

/// Fabric-side counters, published as canb_transport_* metrics. All zero
/// for the modeled arm (no transport attached): the cost model is the
/// source of truth there, not a fabric.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t retransmits = 0;  ///< always 0 (a stream socket never resends); perfbench reads it
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const noexcept = 0;
  virtual int ranks() const noexcept = 0;
  virtual bool local(int rank) const noexcept { (void)rank; return true; }

  /// How ranks partition into OS endpoints. The modeled backend is one
  /// group owning every rank; the socket backend reports its process-group
  /// geometry so mesh-wide telemetry aggregation (obs/snapshot.hpp) can
  /// address peer endpoints.
  virtual int groups() const noexcept { return 1; }
  virtual int group() const noexcept { return 0; }
  virtual int owner_group(int rank) const noexcept { (void)rank; return 0; }

  virtual void send(int src, int dst, std::uint64_t tag, std::span<const std::byte> payload) = 0;
  virtual void recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) = 0;
  virtual void barrier() {}

  virtual TransportStats stats() const { return {}; }
};

/// Serial single-threaded FIFO transport: the executable statement of the
/// contract. Every rank is local; send enqueues, recv pops.
class ModeledTransport final : public Transport {
 public:
  explicit ModeledTransport(int ranks);

  TransportKind kind() const noexcept override { return TransportKind::Modeled; }
  int ranks() const noexcept override { return ranks_; }

  void send(int src, int dst, std::uint64_t tag, std::span<const std::byte> payload) override;
  void recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) override;
  TransportStats stats() const override { return stats_; }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (src<<32|dst, tag)
  int ranks_;
  std::map<Key, std::deque<wire::Bytes>> queues_;
  TransportStats stats_;
};

}  // namespace canb::vmpi
