// Spatial re-assignment: after integration, particles that left their
// team's region are routed to the teams that now own them (the
// "Re-assign" series of Figure 6).
//
// Real payloads use dimension-ordered routing: repeated +/-1 neighbor
// exchanges along x, then along y, until every particle is home. Each
// round strictly reduces every misplaced particle's distance, so the loop
// terminates; with sane timesteps one round per axis suffices. Phantom
// payloads charge the modeled migration volume instead (counts are
// steady-state under the uniform-density assumption).
//
// Host execution goes through the caller's DataPlane (vmpi/primitives.hpp):
// the route lists are recycled from its arena and each resident block is
// compacted IN PLACE (copy_within/truncate), so a steady-state round with
// no movers touches no particle data and allocates nothing. Every vc
// charge is issued from particle counts before (or independent of) the
// host movement, and the round structure — including the `any` early-exit
// that gates the exchange permutes — is decided by particle positions
// alone. The migrating goldens of tests/test_data_plane.cpp pin the moved
// and compacted particles bit for bit.
//
// Shared by CaCutoff and the halo-exchange spatial baseline.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::core {

namespace detail {

/// Axis coordinate of the team that owns position (px, py) under the
/// geometry's spatial split of `box` (reads straight off position lanes).
inline int target_axis_coord(double px, double py, int axis, const CutoffGeometry& geom,
                             const particles::Box& box) {
  if (geom.dims() == 1) return decomp::team_of_1d(px, box, geom.qx());
  const int col = decomp::team_of_2d(px, py, box, geom.qx(), geom.qy());
  return axis == 0 ? col % geom.qx() : col / geom.qx();
}

/// Moves per-team lists one team along +/-axis (leaders only); receivers
/// append to their resident block. Ring transport keeps the permutation
/// total; under reflective boundaries boundary teams' outward lists are
/// empty by construction, so the wrapped messages cost nothing. Receiving
/// teams' resident blocks are disjoint, so the appends fan across the
/// plane's host pool.
template <class Policy>
void exchange_lists(vmpi::VirtualComm& vc, const vmpi::Grid2d& grid, const CutoffGeometry& geom,
                    std::vector<typename Policy::Buffer>& lists,
                    std::vector<typename Policy::Buffer>& resident, int axis, int direction,
                    vmpi::DataPlane<typename Policy::Buffer>& plane) {
  const TeamOffset off = axis == 0 ? TeamOffset{-direction, 0, 0} : TeamOffset{0, -direction, 0};
  vc.permute_step(
      vmpi::Phase::Reassign,
      [&](int r) {
        if (grid.row_of(r) != 0) return r;
        return grid.rank(0, geom.wrap_team(grid.col_of(r), off));
      },
      [&](int src) {
        if (grid.row_of(src) != 0) return 0.0;
        return static_cast<double>(
            Policy::bytes(lists[static_cast<std::size_t>(grid.col_of(src))]));
      },
      /*shift_phase=*/false);
  vmpi::detail::HostPhaseTimer timer(vc, vmpi::Phase::Reassign);
  using Buffer = typename Policy::Buffer;
  if constexpr (wire::serializable<Buffer>) {
    // Transport arm: leader-to-leader list shipment. Self-wrapped columns
    // (reflective boundaries) and remote destinations keep the local
    // append; locally-owned destinations adopt the wire bytes.
    if (vmpi::Transport* tp = vc.transport(); tp != nullptr) {
      const std::uint64_t tag = vc.next_transport_tag();
      wire::Bytes bytes;
      for (int t = 0; t < geom.teams(); ++t) {
        const int src_col = geom.wrap_team(t, off);
        if (src_col == t) continue;
        const int src_rank = grid.leader(src_col);
        if (!tp->local(src_rank)) continue;
        wire::to_bytes(lists[static_cast<std::size_t>(src_col)], bytes);
        tp->send(src_rank, grid.leader(t), tag, bytes);
      }
      Buffer incoming{};
      for (int t = 0; t < geom.teams(); ++t) {
        const int src_col = geom.wrap_team(t, off);
        const int dst_rank = grid.leader(t);
        auto& blk = resident[static_cast<std::size_t>(dst_rank)];
        if (src_col != t && tp->local(dst_rank)) {
          tp->recv(grid.leader(src_col), dst_rank, tag, bytes);
          wire::from_bytes(incoming, bytes);
          blk.append(incoming);
        } else {
          blk.append(lists[static_cast<std::size_t>(src_col)]);
        }
      }
      return;
    }
  }
  plane.for_chunks(geom.teams(), [&](int b, int e) {
    for (int t = b; t < e; ++t) {
      const int src_col = geom.wrap_team(t, off);
      resident[static_cast<std::size_t>(grid.leader(t))].append(
          lists[static_cast<std::size_t>(src_col)]);
    }
  });
}

/// Splits every team's resident block into stay / move-up / move-down
/// along `axis`, filling plus/minus (one outgoing list per team). Returns
/// whether any particle moved — the decision is a pure function of
/// particle positions.
///
/// In-place compaction via copy_within/truncate: kept particles shift down
/// over vacated slots (dst <= i always, so reads never see an overwritten
/// slot), and a block with no movers is never touched at all. Teams are
/// independent, so the split fans across the plane's host pool.
template <class Policy>
bool split_teams(const vmpi::VirtualComm& vc, const vmpi::Grid2d& grid,
                 const CutoffGeometry& geom, const particles::Box& box,
                 std::vector<typename Policy::Buffer>& resident, int axis,
                 std::vector<typename Policy::Buffer>& plus,
                 std::vector<typename Policy::Buffer>& minus,
                 vmpi::DataPlane<typename Policy::Buffer>& plane) {
  const int q = geom.teams();
  auto split_one = [&](int t) {
    // Owner-computes: only the owning process reads positions and splits;
    // peers learn the counts from the migration-count exchange afterwards.
    if (!vc.resident(grid.leader(t))) return;
    auto& blk = resident[static_cast<std::size_t>(grid.leader(t))];
    auto& up = plus[static_cast<std::size_t>(t)];
    auto& down = minus[static_cast<std::size_t>(t)];
    const int here = axis == 0 ? t % geom.qx() : t / geom.qx();
    const std::size_t n = blk.size();
    // Lane partition: ownership reads only the position lanes, and the
    // routed particles move lane-exactly via append_from (no wire-format
    // round trip on a host-local split).
    std::size_t dst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int target = target_axis_coord(static_cast<double>(blk.px[i]),
                                           static_cast<double>(blk.py[i]), axis, geom, box);
      if (target > here) {
        up.append_from(blk, i);
      } else if (target < here) {
        down.append_from(blk, i);
      } else {
        if (dst != i) blk.copy_within(dst, i);
        ++dst;
      }
    }
    blk.truncate(dst);
  };
  plane.for_chunks(q, [&](int b, int e) {
    for (int t = b; t < e; ++t) split_one(t);
  });
  for (int t = 0; t < q; ++t) {
    if (Policy::count(plus[static_cast<std::size_t>(t)]) != 0 ||
        Policy::count(minus[static_cast<std::size_t>(t)]) != 0)
      return true;
  }
  return false;
}

/// Owner-computes arm: after the residency-gated split, process groups
/// agree on every team's outgoing (plus, minus) counts so that (a) the
/// round's global `any` decision matches the modeled arm exactly and (b)
/// non-owned phantom lists and resident blocks keep the sizes the cost
/// model charges from. One message per ordered group pair on a reserved
/// out-of-band tag — the exchange itself charges nothing; the virtual cost
/// of the list shipment is paid by exchange_lists' replicated permute_step,
/// exactly as in a single-process run. Returns the global `any`.
template <class Policy>
bool exchange_migration_counts(vmpi::VirtualComm& vc, const vmpi::Grid2d& grid,
                               const CutoffGeometry& geom,
                               std::vector<typename Policy::Buffer>& resident,
                               std::vector<typename Policy::Buffer>& plus,
                               std::vector<typename Policy::Buffer>& minus, bool any_local) {
  vmpi::Transport* tp = vc.transport();
  if (tp == nullptr || tp->groups() <= 1) return any_local;
  const int groups = tp->groups();
  const int me = tp->group();
  const int q = geom.teams();
  const std::uint64_t tag = vc.next_reassign_count_tag();
  // Lowest rank of each group: the endpoint the counts travel between.
  std::vector<int> rep(static_cast<std::size_t>(groups), -1);
  for (int r = 0; r < grid.size(); ++r) {
    const int g = tp->owner_group(r);
    if (rep[static_cast<std::size_t>(g)] < 0) rep[static_cast<std::size_t>(g)] = r;
  }
  // Counts of my owned teams, in ascending team order. Sends go out before
  // any recv is posted; socket reader threads drain continuously, so the
  // all-to-all cannot deadlock.
  wire::Bytes bytes;
  {
    wire::Writer w(bytes);
    for (int t = 0; t < q; ++t) {
      if (tp->owner_group(grid.leader(t)) != me) continue;
      w.scalar<std::uint64_t>(Policy::count(plus[static_cast<std::size_t>(t)]));
      w.scalar<std::uint64_t>(Policy::count(minus[static_cast<std::size_t>(t)]));
    }
  }
  for (int g = 0; g < groups; ++g) {
    if (g == me) continue;
    tp->send(rep[static_cast<std::size_t>(me)], rep[static_cast<std::size_t>(g)], tag, bytes);
  }
  bool any = any_local;
  for (int g = 0; g < groups; ++g) {
    if (g == me) continue;
    tp->recv(rep[static_cast<std::size_t>(g)], rep[static_cast<std::size_t>(me)], tag, bytes);
    wire::Reader rd(bytes);
    for (int t = 0; t < q; ++t) {
      if (tp->owner_group(grid.leader(t)) != g) continue;
      const auto up = rd.scalar<std::uint64_t>();
      const auto down = rd.scalar<std::uint64_t>();
      any = any || up != 0 || down != 0;
      // Mirror the owner's split on the phantom side: the resident block
      // shrinks by the movers, the route lists take their sizes. Lanes stay
      // stale — only the lengths feed Policy::bytes/count.
      auto& blk = resident[static_cast<std::size_t>(grid.leader(t))];
      blk.truncate(blk.size() - static_cast<std::size_t>(up) - static_cast<std::size_t>(down));
      plus[static_cast<std::size_t>(t)].resize(static_cast<std::size_t>(up));
      minus[static_cast<std::size_t>(t)].resize(static_cast<std::size_t>(down));
    }
  }
  return any;
}

template <class Policy>
void route_axis(vmpi::VirtualComm& vc, const vmpi::Grid2d& grid, const CutoffGeometry& geom,
                const particles::Box& box, std::vector<typename Policy::Buffer>& resident,
                int axis, vmpi::DataPlane<typename Policy::Buffer>& plane) {
  const auto q = static_cast<std::size_t>(geom.teams());
  const int limit = (axis == 0 ? geom.qx() : geom.qy()) + 1;
  for (int round = 0; round < limit; ++round) {
    auto plus = plane.pool.acquire_list(q);
    auto minus = plane.pool.acquire_list(q);
    bool any = false;
    {
      vmpi::detail::HostPhaseTimer timer(vc, vmpi::Phase::Reassign);
      any = split_teams<Policy>(vc, grid, geom, box, resident, axis, plus, minus, plane);
    }
    if (vc.owner_computes())
      any = exchange_migration_counts<Policy>(vc, grid, geom, resident, plus, minus, any);
    if (any) {
      exchange_lists<Policy>(vc, grid, geom, plus, resident, axis, /*direction=*/+1, plane);
      exchange_lists<Policy>(vc, grid, geom, minus, resident, axis, /*direction=*/-1, plane);
    }
    plane.pool.release_list(std::move(plus));
    plane.pool.release_list(std::move(minus));
    if (!any) break;
  }
}

}  // namespace detail

/// Routes migrated particles home (real payloads) or charges the modeled
/// migration cost (phantom payloads). Leaders exchange; replicas idle.
/// Real payloads move through `plane` (see file comment).
template <class Policy>
void reassign_spatial(vmpi::VirtualComm& vc, const vmpi::Grid2d& grid,
                      const CutoffGeometry& geom, const Policy& policy,
                      std::vector<typename Policy::Buffer>& resident,
                      const machine::MachineModel& machine,
                      vmpi::DataPlane<typename Policy::Buffer>& plane) {
  if constexpr (Policy::kIsPhantom) {
    const double frac = policy.config().reassign_fraction;
    if (frac <= 0.0) return;  // empty payloads send no messages
    const int faces = 2 * geom.dims();
    for (int t = 0; t < grid.cols(); ++t) {
      const int leader = grid.leader(t);
      const double cnt =
          static_cast<double>(Policy::count(resident[static_cast<std::size_t>(leader)]));
      const double bytes_total = frac * cnt * particles::kParticleBytes;
      const double per_msg = bytes_total / faces;
      double t_total = 0.0;
      for (int f = 0; f < faces; ++f) t_total += machine.p2p_time(per_msg);
      vc.advance(leader, vmpi::Phase::Reassign, t_total, static_cast<std::uint64_t>(faces),
                 static_cast<std::uint64_t>(bytes_total));
    }
  } else {
    // Real-payload routing supports the paper's evaluated dimensionalities
    // (particles carry 2D positions); 3D runs are phantom/schedule-level.
    CANB_REQUIRE(geom.dims() <= 2, "real-payload re-assignment supports 1D and 2D only");
    detail::route_axis<Policy>(vc, grid, geom, policy.box(), resident, /*axis=*/0, plane);
    if (geom.dims() == 2)
      detail::route_axis<Policy>(vc, grid, geom, policy.box(), resident, /*axis=*/1, plane);
  }
}

}  // namespace canb::core
