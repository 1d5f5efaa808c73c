// Data-moving communication primitives over per-rank buffers.
//
// Buffers live in a std::vector<B> indexed by rank; the same templates run
// with real particle blocks (kernel-ready particles::SoaBlock lanes) and
// phantom blocks (counts only), guaranteeing the cost accounting is
// payload-independent: bytes always derive from particle counts, never from
// the host-resident layout being moved.
//
// Each primitive both charges the VirtualComm and moves the data — in that
// order, always: every virtual-time/message/byte charge is computed from
// particle counts BEFORE a single lane is touched, so nothing about how the
// host executes the movement (pooled buffers, lane-subset copies, worker
// threads) can perturb a ledger, clock, or trace (DESIGN.md, "host data
// plane vs. virtual cost model").
//
// Host execution runs through the caller's DataPlane (buffer_pool.hpp):
// capacity-preserving lane-subset assigns (SoaBlock::assign_replica_from /
// assign_visitor_from), swap-cycled permutation scratch, and disjoint
// destination copies fanned across the plane's host ThreadPool, with no
// heap allocation after warm-up. Copies are copies, and the reduce fold
// keeps the serial row order per element (see reduce_teams below for why a
// true pairwise tree would not), so the result does not depend on the
// thread count; tests/golden/state_*.txt pin the final states bit for bit.
//
// When a CommObserver is attached to the VirtualComm, the primitives also
// report HOST wall seconds per phase through on_host_phase — observation
// only, never fed back.
//
// When a Transport is attached to the VirtualComm (transport.hpp), every
// message additionally crosses the byte fabric: locally-owned sources are
// serialized and sent BEFORE the host move, and locally-owned destinations
// are overwritten with the deserialized wire bytes AFTER it — the receiver
// *adopts* the fabric's bytes, so a transport bug corrupts trajectories
// and fails the parity suite instead of hiding behind the host copy. The
// charge still precedes everything, so ledgers/clocks/traces are bitwise
// unchanged. Payload types without wire support (the baselines'
// engine-private structs) keep the host-only move; they never meet a
// transport, which carries only the CA methods. The transport arms are
// exempt from the zero-allocation contract (serialization buffers).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "vmpi/buffer_pool.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::vmpi {

namespace detail {

/// Capacity-preserving full copy (falls back to operator= for payloads
/// without assign_from, e.g. PhantomBlock).
template <class B>
void assign_full(B& dst, const B& src) {
  if constexpr (requires { dst.assign_from(src); }) {
    dst.assign_from(src);
  } else {
    dst = src;
  }
}

/// Copy of the lanes a broadcast replica needs (kernel inputs + force
/// accumulators); full copy for payloads without the specialization.
template <class B>
void assign_replica(B& dst, const B& src) {
  if constexpr (requires { dst.assign_replica_from(src); }) {
    dst.assign_replica_from(src);
  } else {
    assign_full(dst, src);
  }
}

/// Copy of the lanes a staged visitor block needs (kernel inputs only);
/// full copy for payloads without the specialization.
template <class B>
void assign_visitor(B& dst, const B& src) {
  if constexpr (requires { dst.assign_visitor_from(src); }) {
    dst.assign_visitor_from(src);
  } else {
    assign_full(dst, src);
  }
}

/// Size-only install for a non-resident destination under owner-computes:
/// every charge derives from Policy::bytes/count of the buffer at charge
/// time, so a buffer this process never computes with must still track the
/// correct *length* — the lanes may hold stale zeros. Payloads without
/// resize (PhantomBlock is pure counts) take the full copy, which is just
/// as cheap.
template <class B>
void phantom_assign(B& dst, const B& src) {
  if constexpr (requires { dst.resize(src.size()); }) {
    dst.resize(src.size());
  } else {
    assign_full(dst, src);
  }
}

/// Member swap when the payload has one (SoaBlock's is noexcept and
/// lane-wise); std::swap for plain payloads (ints, PhantomBlock).
template <class B>
void swap_payload(B& a, B& b) {
  if constexpr (requires { a.swap(b); }) {
    a.swap(b);
  } else {
    using std::swap;
    swap(a, b);
  }
}

/// RAII host-phase wall timer: reports to the comm's observer (if any) on
/// destruction. Purely observational — the measured seconds never feed
/// back into any cost.
class HostPhaseTimer {
 public:
  HostPhaseTimer(const VirtualComm& vc, Phase phase) : obs_(vc.observer()), phase_(phase) {
    if (obs_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~HostPhaseTimer() {
    if (obs_ != nullptr) {
      obs_->on_host_phase(
          phase_,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
    }
  }
  HostPhaseTimer(const HostPhaseTimer&) = delete;
  HostPhaseTimer& operator=(const HostPhaseTimer&) = delete;

 private:
  CommObserver* obs_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_{};
};

/// Routes one permutation round through an attached transport. Sends are
/// serialized from the pre-move buffers, the host move runs (it carries
/// the cost-correct sizes of ranks this endpoint does not own), then
/// every locally-owned destination adopts the bytes that crossed the
/// fabric. Falls through to a plain host move when no transport is
/// attached or the payload has no wire support.
template <class B, class SrcFn, class MoveFn>
void permute_with_transport(VirtualComm& vc, SrcFn&& src_of, std::vector<B>& bufs,
                            MoveFn&& move) {
  if constexpr (wire::serializable<B>) {
    if (Transport* t = vc.transport(); t != nullptr) {
      const std::uint64_t tag = vc.next_transport_tag();
      const int p = static_cast<int>(bufs.size());
      wire::Bytes bytes;
      for (int r = 0; r < p; ++r) {
        const int src = src_of(r);
        if (src == r || !t->local(src)) continue;
        wire::to_bytes(bufs[static_cast<std::size_t>(src)], bytes);
        t->send(src, r, tag, bytes);
      }
      move();
      for (int r = 0; r < p; ++r) {
        const int src = src_of(r);
        if (src == r || !t->local(r)) continue;
        t->recv(src, r, tag, bytes);
        wire::from_bytes(bufs[static_cast<std::size_t>(r)], bytes);
      }
      return;
    }
  }
  move();
}

/// Transport arm of broadcast_teams: each locally-owned leader serializes
/// once and sends to every team member; every locally-owned non-leader
/// adopts the wire bytes (a full-copy install), so no host copy runs.
/// Under owner-computes a non-leader another group owns only needs its size
/// kept in step for the cost model: it gets a phantom install.
template <class B, class CopyFn>
void broadcast_with_transport(VirtualComm& vc, const Grid2d& g, std::vector<B>& bufs,
                              CopyFn&& host_copy) {
  if constexpr (wire::serializable<B>) {
    if (Transport* t = vc.transport(); t != nullptr && g.rows() > 1) {
      const std::uint64_t tag = vc.next_transport_tag();
      wire::Bytes bytes;
      for (int col = 0; col < g.cols(); ++col) {
        const int leader = g.leader(col);
        if (!t->local(leader)) continue;
        wire::to_bytes(bufs[static_cast<std::size_t>(leader)], bytes);
        for (int row = 1; row < g.rows(); ++row) t->send(leader, g.rank(row, col), tag, bytes);
      }
      for (int col = 0; col < g.cols(); ++col) {
        const auto& src = bufs[static_cast<std::size_t>(g.leader(col))];
        for (int row = 1; row < g.rows(); ++row) {
          const int dst = g.rank(row, col);
          if (!vc.resident(dst)) phantom_assign(bufs[static_cast<std::size_t>(dst)], src);
        }
      }
      for (int col = 0; col < g.cols(); ++col) {
        const int leader = g.leader(col);
        for (int row = 1; row < g.rows(); ++row) {
          const int dst = g.rank(row, col);
          if (!t->local(dst)) continue;
          t->recv(leader, dst, tag, bytes);
          wire::from_bytes(bufs[static_cast<std::size_t>(dst)], bytes);
        }
      }
      return;
    }
  }
  host_copy();
}

/// Transport arm of reduce_teams. Every locally-owned member ships its
/// buffer to the leader; a locally-owned leader folds the *deserialized*
/// member blocks in strict row order (the same serial order as the host
/// fold — float addition does not associate). A remote leader's slot is
/// left alone: under owner-computes its lanes are stale by contract, and
/// combine never changes sizes. Returns false (caller runs the host fold)
/// when no transport is attached or the payload has no wire support.
template <class B, class Combine>
bool reduce_with_transport(VirtualComm& vc, const Grid2d& g, std::vector<B>& bufs,
                           Combine&& combine) {
  if constexpr (wire::serializable<B>) {
    if (Transport* t = vc.transport(); t != nullptr && g.rows() > 1) {
      const std::uint64_t tag = vc.next_transport_tag();
      wire::Bytes bytes;
      for (int col = 0; col < g.cols(); ++col) {
        const int leader = g.leader(col);
        for (int row = 1; row < g.rows(); ++row) {
          const int m = g.rank(row, col);
          if (!t->local(m)) continue;
          wire::to_bytes(bufs[static_cast<std::size_t>(m)], bytes);
          t->send(m, leader, tag, bytes);
        }
      }
      B incoming{};
      for (int col = 0; col < g.cols(); ++col) {
        const int leader = g.leader(col);
        if (!t->local(leader)) continue;
        auto& acc = bufs[static_cast<std::size_t>(leader)];
        for (int row = 1; row < g.rows(); ++row) {
          const int m = g.rank(row, col);
          t->recv(m, leader, tag, bytes);
          wire::from_bytes(incoming, bytes);
          combine(acc, incoming);
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace detail

/// Generic permutation round: rank r receives the buffer of src_of(r)
/// (which must be a permutation of 0..p-1). Used for the 2D cutoff
/// algorithm's window walks, where displacements wrap per-axis and cannot
/// be expressed as row rotations. `scratch` persists across calls and is
/// cycled by element-wise swap, so every block shell — including the ones
/// parked in scratch between calls — keeps its lane capacity and the round
/// allocates nothing after the first call.
template <class B, class BytesOf, class SrcFn>
void permute_buffers(VirtualComm& vc, SrcFn&& src_of, std::vector<B>& bufs,
                     std::vector<B>& scratch, BytesOf&& bytes_of, Phase phase,
                     bool shift_phase = true) {
  vc.permute_step(
      phase, src_of,
      [&](int src) { return static_cast<double>(bytes_of(bufs[static_cast<std::size_t>(src)])); },
      shift_phase);
  detail::HostPhaseTimer timer(vc, phase);
  if (scratch.size() != bufs.size()) scratch.resize(bufs.size());
  detail::permute_with_transport(vc, src_of, bufs, [&] {
    for (int r = 0; r < static_cast<int>(bufs.size()); ++r)
      detail::swap_payload(scratch[static_cast<std::size_t>(r)],
                           bufs[static_cast<std::size_t>(src_of(r))]);
    bufs.swap(scratch);
  });
}

/// Shifts every row's buffers east by `dist` columns (wrap-around). A rank
/// at (row, col) sends its buffer to (row, col+dist) and receives from
/// (row, col-dist). Zero-cost no-op when dist ≡ 0 (mod cols).
template <class B, class BytesOf>
void shift_rows(VirtualComm& vc, const Grid2d& g, int dist, std::vector<B>& bufs,
                BytesOf&& bytes_of, Phase phase = Phase::Shift) {
  CANB_ASSERT(static_cast<int>(bufs.size()) == g.size());
  const int q = g.cols();
  int d = dist % q;
  if (d < 0) d += q;
  if (d == 0) return;
  const auto src_of = [&g, d](int r) {
    return g.rank(g.row_of(r), g.wrap_col(g.col_of(r), -d));
  };
  vc.permute_step(
      phase, src_of,
      [&](int src) { return static_cast<double>(bytes_of(bufs[static_cast<std::size_t>(src)])); },
      /*shift_phase=*/true);
  detail::HostPhaseTimer timer(vc, phase);
  detail::permute_with_transport(vc, src_of, bufs, [&] {
    for (int row = 0; row < g.rows(); ++row) {
      const auto first = bufs.begin() + static_cast<std::ptrdiff_t>(g.rank(row, 0));
      // Rotate right by d: element at col moves to col+d.
      std::rotate(first, first + (q - d), first + q);
    }
  });
}

/// Row-dependent shift: row k shifts east by dist_of_row(k) columns. Used
/// for the initial skew of Algorithms 1 and 2. The per-row distances go in
/// `d`, a persistent scratch (the DataPlane's ints), so a warm call
/// allocates nothing.
template <class B, class BytesOf, class DistFn>
void skew_rows(VirtualComm& vc, const Grid2d& g, DistFn&& dist_of_row, std::vector<B>& bufs,
               BytesOf&& bytes_of, std::vector<int>& d, Phase phase = Phase::Skew) {
  CANB_ASSERT(static_cast<int>(bufs.size()) == g.size());
  const int q = g.cols();
  d.resize(static_cast<std::size_t>(g.rows()));
  for (int row = 0; row < g.rows(); ++row) {
    int v = dist_of_row(row) % q;
    if (v < 0) v += q;
    d[static_cast<std::size_t>(row)] = v;
  }
  const auto src_of = [&g, &d](int r) {
    const int row = g.row_of(r);
    return g.rank(row, g.wrap_col(g.col_of(r), -d[static_cast<std::size_t>(row)]));
  };
  vc.permute_step(
      phase, src_of,
      [&](int src) { return static_cast<double>(bytes_of(bufs[static_cast<std::size_t>(src)])); },
      /*shift_phase=*/false);
  detail::HostPhaseTimer timer(vc, phase);
  detail::permute_with_transport(vc, src_of, bufs, [&] {
    for (int row = 0; row < g.rows(); ++row) {
      const int dd = d[static_cast<std::size_t>(row)];
      if (dd == 0) continue;
      const auto first = bufs.begin() + static_cast<std::ptrdiff_t>(g.rank(row, 0));
      std::rotate(first, first + (q - dd), first + q);
    }
  });
}

/// Broadcasts each team leader's buffer to the rest of its team (column).
/// The c-1 replica copies per team are capacity-preserving lane-subset
/// assigns, fanned across the plane's host pool — every destination is a
/// distinct block, so parallel order cannot change any bit of the result.
template <class B, class BytesOf>
void broadcast_teams(VirtualComm& vc, const Grid2d& g, std::vector<B>& bufs, BytesOf&& bytes_of,
                     DataPlane<B>& plane, Phase phase = Phase::Broadcast) {
  CANB_ASSERT(static_cast<int>(bufs.size()) == g.size());
  vc.team_broadcast(g, phase, [&](int col) {
    return static_cast<double>(bytes_of(bufs[static_cast<std::size_t>(g.leader(col))]));
  });
  detail::HostPhaseTimer timer(vc, phase);
  detail::broadcast_with_transport(vc, g, bufs, [&] {
    const int replicas = g.rows() - 1;
    if (replicas <= 0) return;
    plane.for_chunks(g.cols() * replicas, [&](int b, int e) {
      for (int t = b; t < e; ++t) {
        const int col = t / replicas;
        const int row = 1 + t % replicas;
        detail::assign_replica(bufs[static_cast<std::size_t>(g.rank(row, col))],
                               bufs[static_cast<std::size_t>(g.leader(col))]);
      }
    });
  });
}

/// Copies every rank's resident buffer into a staging array (the exchange
/// copy both CA engines make right after the broadcast). The copies fan
/// across the plane's host pool; `stage(rank, dst, src)` lets callers stage
/// into wrapper types (CaAllPairs' Carried) and pick a lane-subset assign.
/// Destinations are disjoint per rank, so parallel order cannot change a
/// bit.
template <class B, class Staged, class StageFn>
void stage_buffers(VirtualComm& vc, const std::vector<B>& bufs, std::vector<Staged>& staged,
                   StageFn&& stage, DataPlane<B>& plane) {
  CANB_ASSERT(bufs.size() == staged.size());
  detail::HostPhaseTimer timer(vc, Phase::Skew);
  plane.for_chunks(static_cast<int>(bufs.size()), [&](int b, int e) {
    for (int r = b; r < e; ++r)
      stage(r, staged[static_cast<std::size_t>(r)], bufs[static_cast<std::size_t>(r)]);
  });
}

/// Reduces each team's buffers into the leader's buffer using
/// combine(acc, in). Non-leader buffers are left untouched.
///
/// Host parallelism note: the serial fold order (row 1, then 2, ... into
/// the leader) is part of the bitwise contract — the real-policy combine
/// folds float force lanes, and float addition does not associate, so a
/// genuine pairwise tree would change low bits relative to every
/// pre-existing trajectory and golden baseline. Parallelism therefore comes
/// from the two axes that ARE independent: distinct columns, and (when the
/// combine is range-invocable) disjoint element ranges within a column.
/// Every element still sees rows folded in exactly the serial order.
template <class B, class BytesOf, class Combine>
void reduce_teams(VirtualComm& vc, const Grid2d& g, std::vector<B>& bufs, BytesOf&& bytes_of,
                  Combine&& combine, DataPlane<B>& plane, Phase phase = Phase::Reduce) {
  CANB_ASSERT(static_cast<int>(bufs.size()) == g.size());
  vc.team_reduce(g, phase, [&](int col) {
    return static_cast<double>(bytes_of(bufs[static_cast<std::size_t>(g.leader(col))]));
  });
  detail::HostPhaseTimer timer(vc, phase);
  if (detail::reduce_with_transport(vc, g, bufs, combine)) return;
  const int q = g.cols();
  const int rows = g.rows();
  if (rows <= 1) return;
  constexpr bool kRanged =
      std::is_invocable_v<Combine&, B&, const B&, std::size_t, std::size_t> &&
      requires(const B& b) { b.size(); };
  const int threads = plane.workers != nullptr ? plane.workers->thread_count() : 1;
  if constexpr (kRanged) {
    // Flatten (column, element-chunk) into one index space. Chunk count is
    // a pure scheduling knob: each element's fold lives entirely inside one
    // task, so results are identical for any chunking or thread count.
    const int chunks = std::max(1, (2 * threads) / std::max(1, q));
    plane.for_chunks(q * chunks, [&](int b, int e) {
      for (int t = b; t < e; ++t) {
        const int col = t / chunks;
        const int k = t % chunks;
        auto& acc = bufs[static_cast<std::size_t>(g.leader(col))];
        const std::size_t n = acc.size();
        const std::size_t lo = n * static_cast<std::size_t>(k) / static_cast<std::size_t>(chunks);
        const std::size_t hi =
            n * static_cast<std::size_t>(k + 1) / static_cast<std::size_t>(chunks);
        if (lo >= hi) continue;
        for (int row = 1; row < rows; ++row)
          combine(acc, bufs[static_cast<std::size_t>(g.rank(row, col))], lo, hi);
      }
    });
  } else {
    plane.for_chunks(q, [&](int b, int e) {
      for (int col = b; col < e; ++col) {
        auto& acc = bufs[static_cast<std::size_t>(g.leader(col))];
        for (int row = 1; row < rows; ++row)
          combine(acc, bufs[static_cast<std::size_t>(g.rank(row, col))]);
      }
    });
  }
}

}  // namespace canb::vmpi
