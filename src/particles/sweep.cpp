#include "particles/sweep.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace canb::particles::detail {

namespace {

// Relative margin on the cell side. A kept pair's |dx| may exceed the
// cutoff by a few ulps (r2 and cut2 are both rounded), and the cell
// coordinates carry a few ulps of rounding each; 1e-6 covers both with
// room to spare, so a kept pair is never more than kReach cells apart.
constexpr double kSideMargin = 1e-6;

// A grid whose 5 x 5 stencils cover more than this share of its cells (on
// average) is not used: sweeping every lane as one target group is then
// cheaper than binning and than padding small per-cell groups. Measured on
// the block pairs of a ca-cutoff step: 0.6-0.7 keeps all of the cull's gain
// with 128-lane blocks and makes 32-lane blocks (2048/128/2) faster than an
// always-on cull.
constexpr double kMaxCandidateFraction = 0.6;

constexpr float kFloatInf = std::numeric_limits<float>::infinity();

/// Running min and max of float lanes, ignoring NaN (four independent
/// accumulators, so the compare chains overlap).
struct Extent {
  float lo[4] = {kFloatInf, kFloatInf, kFloatInf, kFloatInf};
  float hi[4] = {-kFloatInf, -kFloatInf, -kFloatInf, -kFloatInf};
  void add(const float* v, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (std::size_t k = 0; k < 4; ++k) {
        lo[k] = v[i + k] < lo[k] ? v[i + k] : lo[k];
        hi[k] = v[i + k] > hi[k] ? v[i + k] : hi[k];
      }
    }
    for (; i < n; ++i) {
      lo[0] = v[i] < lo[0] ? v[i] : lo[0];
      hi[0] = v[i] > hi[0] ? v[i] : hi[0];
    }
  }
  double min() const noexcept { return std::min({lo[0], lo[1], lo[2], lo[3]}); }
  double max() const noexcept { return std::max({hi[0], hi[1], hi[2], hi[3]}); }
};

/// Writes each lane's cell, or -1 for a lane the grid cannot place: a
/// non-finite coordinate, or one outside a periodic box (the reference
/// wraps a difference only once). Branch-free: a cell coordinate is
/// clamped into [0, n - 1] before the conversion (NaN to 0), which is also
/// where out-of-range finite coordinates land — a clamp never moves two
/// points apart.
template <bool kTwoD, bool kPeriodic>
void place_lanes(const float* px, const float* py, std::size_t n, const CullGrid::Axis& ax,
                 const CullGrid::Axis& ay, double lx, double ly, std::int32_t* cell) noexcept {
  const auto coord = [](double v, const CullGrid::Axis& a) {
    double u = (v - a.lo) * a.inv;
    u = u > 0.0 ? u : 0.0;
    u = u < a.top ? u : a.top;
    return static_cast<int>(u);
  };
  constexpr double kMax = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(px[i]);
    const double y = kTwoD ? static_cast<double>(py[i]) : 0.0;
    bool tame = kPeriodic ? (x >= 0.0) & (x <= lx) : std::fabs(x) <= kMax;
    if constexpr (kTwoD) tame &= kPeriodic ? (y >= 0.0) & (y <= ly) : std::fabs(y) <= kMax;
    const int c = (kTwoD ? coord(y, ay) * ax.n : 0) + coord(x, ax);
    cell[i] = tame ? c : -1;
  }
}

}  // namespace

int CullGrid::Axis::ranges(int c, int* out) const noexcept {
  if (periodic && n < 2 * kReach + 1) {
    out[0] = 0;
    out[1] = n - 1;
    return 1;
  }
  const int b = c - kReach;
  const int e = c + kReach;
  if (!periodic) {
    out[0] = std::max(b, 0);
    out[1] = std::min(e, n - 1);
    return 1;
  }
  if (b < 0) {
    out[0] = 0;
    out[1] = e;
    out[2] = n + b;
    out[3] = n - 1;
    return 2;
  }
  if (e >= n) {
    out[0] = b;
    out[1] = n - 1;
    out[2] = 0;
    out[3] = e - n;
    return 2;
  }
  out[0] = b;
  out[1] = e;
  return 1;
}

double CullGrid::Axis::reach_fraction() const noexcept {
  if (periodic) return n <= 2 * kReach + 1 ? 1.0 : (2.0 * kReach + 1.0) / n;
  double covered = 0.0;
  for (int c = 0; c < n; ++c) covered += std::min(c + kReach, n - 1) - std::max(c - kReach, 0) + 1;
  return covered / (static_cast<double>(n) * n);
}

bool CullGrid::build(const SoaBlock& tgt, const SoaBlock& src, const Box& box, double cutoff) {
  const std::size_t nt = tgt.size();
  ns_ = src.size();
  two_d_ = box.dims == 2;
  const bool periodic = box.boundary == Boundary::Periodic;
  x_ = Axis{};
  y_ = Axis{};
  x_.periodic = periodic;
  y_.periodic = periodic && two_d_;

  // The extent of the lanes, clamped into the box (NaN lanes compare false
  // and drop out; infinities clamp to the box edge). Periodic axes span the
  // box whatever the lanes.
  Extent ex, ey;
  ex.add(tgt.xs(), nt);
  ex.add(src.xs(), ns_);
  if (two_d_) {
    ey.add(tgt.ys(), nt);
    ey.add(src.ys(), ns_);
  }
  const auto span = [](Axis& a, const Extent& e, double l) {
    a.lo = a.periodic ? 0.0 : std::clamp(e.min(), 0.0, l);
    a.hi = a.periodic ? l : std::clamp(e.max(), 0.0, l);
    if (!(a.lo <= a.hi)) a.lo = a.hi = 0.0;  // no lane with a number
  };
  span(x_, ex, box.lx);
  if (two_d_) span(y_, ey, box.ly);

  // The side: cutoff/2 plus the margin, grown until there are no more cells
  // than lanes. A count is a double until it is known to be small.
  const auto count = [](const Axis& a, double side) {
    return a.periodic ? std::max(1.0, std::floor((a.hi - a.lo) / side))
                      : std::floor((a.hi - a.lo) / side) + 1.0;
  };
  const auto cells_for = [&](double side) {
    return count(x_, side) * (two_d_ ? count(y_, side) : 1.0);
  };
  const double budget = static_cast<double>(std::max<std::size_t>(1, nt + ns_));
  double side = 0.5 * cutoff * (1.0 + kSideMargin);
  if (const double c = cells_for(side); c > budget) {
    side *= std::sqrt(c / budget);
    while (cells_for(side) > budget) side *= 1.25;
  }
  const auto finish = [&](Axis& a) {
    a.n = static_cast<int>(count(a, side));
    a.side = a.periodic ? (a.hi - a.lo) / a.n : side;
    a.inv = a.periodic ? a.n / (a.hi - a.lo) : 1.0 / side;
    a.top = static_cast<double>(a.n - 1);
  };
  finish(x_);
  if (two_d_) finish(y_);
  if (x_.reach_fraction() * (two_d_ ? y_.reach_fraction() : 1.0) > kMaxCandidateFraction)
    return false;

  const std::size_t cells = this->cells();
  cell_.resize(nt + ns_);
  const auto place = [&](const SoaBlock& b, std::int32_t* cell) {
    const auto fn = two_d_ ? (periodic ? &place_lanes<true, true> : &place_lanes<true, false>)
                           : (periodic ? &place_lanes<false, true> : &place_lanes<false, false>);
    fn(b.xs(), b.ys(), b.size(), x_, y_, box.lx, box.ly, cell);
  };
  place(tgt, cell_.data());
  place(src, cell_.data() + nt);

  // Source lanes by cell (ascending within a cell), and the wild ones.
  const std::size_t words = (ns_ + 63) / 64;
  src_start_.assign(cells + 1, 0);
  any_wild_src_ = false;
  for (std::size_t j = 0; j < ns_; ++j) {
    const std::int32_t c = cell_[nt + j];
    if (c >= 0)
      ++src_start_[static_cast<std::size_t>(c) + 1];
    else
      any_wild_src_ = true;
  }
  for (std::size_t c = 0; c < cells; ++c) src_start_[c + 1] += src_start_[c];
  src_order_.resize(src_start_[cells]);
  cursor_.assign(src_start_.begin(), src_start_.end() - 1);
  if (any_wild_src_) wild_bits_.assign(words, 0);
  for (std::size_t j = 0; j < ns_; ++j) {
    const std::int32_t c = cell_[nt + j];
    if (c >= 0)
      src_order_[cursor_[static_cast<std::size_t>(c)]++] = static_cast<std::uint32_t>(j);
    else
      wild_bits_[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
  if (bits_.size() < words) bits_.resize(words, 0);

  // Target groups: nonempty cells in order, then the wild targets.
  cursor_.assign(cells, 0);
  std::uint32_t wild_targets = 0;
  for (std::size_t i = 0; i < nt; ++i) {
    if (cell_[i] >= 0)
      ++cursor_[static_cast<std::size_t>(cell_[i])];
    else
      ++wild_targets;
  }
  group_cell_.clear();
  group_begin_.clear();
  std::uint32_t offset = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::uint32_t n = cursor_[c];
    if (n == 0) continue;
    group_cell_.push_back(static_cast<std::int32_t>(c));
    group_begin_.push_back(offset);
    cursor_[c] = offset;
    offset += n;
  }
  std::uint32_t wild_at = offset;
  if (wild_targets > 0) {
    group_cell_.push_back(-1);
    group_begin_.push_back(offset);
    offset += wild_targets;
  }
  group_begin_.push_back(offset);
  tgt_order_.resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    const std::int32_t c = cell_[i];
    tgt_order_[c >= 0 ? cursor_[static_cast<std::size_t>(c)]++ : wild_at++] =
        static_cast<std::uint32_t>(i);
  }
  return true;
}

std::size_t CullGrid::candidates(std::size_t g, std::uint32_t* out) {
  const int cell = group_cell_[g];
  int xr[4] = {};
  int yr[4] = {};
  const int nxr = x_.ranges(cell % x_.n, xr);
  const int nyr = two_d_ ? y_.ranges(cell / x_.n, yr) : 1;
  std::uint64_t* bits = bits_.data();
  for (int a = 0; a < nyr; ++a) {
    for (int yy = yr[2 * a]; yy <= yr[2 * a + 1]; ++yy) {
      const std::size_t row = static_cast<std::size_t>(yy) * static_cast<std::size_t>(x_.n);
      for (int b = 0; b < nxr; ++b) {
        const std::uint32_t end = src_start_[row + static_cast<std::size_t>(xr[2 * b + 1]) + 1];
        for (std::uint32_t k = src_start_[row + static_cast<std::size_t>(xr[2 * b])]; k < end;
             ++k) {
          const std::uint32_t j = src_order_[k];
          bits[j >> 6] |= std::uint64_t{1} << (j & 63);
        }
      }
    }
  }
  const std::size_t words = (ns_ + 63) / 64;
  if (any_wild_src_)
    for (std::size_t w = 0; w < words; ++w) bits[w] |= wild_bits_[w];

  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t m = bits[w];
    if (m == 0) continue;
    bits[w] = 0;
    do {
      out[n++] = static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      m &= m - 1;
    } while (m != 0);
  }
  return n;
}

std::uint64_t SameIds::count(const std::int32_t* a, std::size_t na, const std::int32_t* b,
                             std::size_t nb) {
  if (na == 0 || nb == 0) return 0;
  std::int32_t lo = b[0];
  std::int32_t hi = b[0];
  for (std::size_t j = 1; j < nb; ++j) {
    lo = std::min(lo, b[j]);
    hi = std::max(hi, b[j]);
  }
  const std::uint64_t span = static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
  if (span <= 16 * (na + nb) + 4096) {
    // Direct table over b's id range; all zero again on return.
    if (counts_.size() < span) counts_.resize(span, 0);
    std::uint32_t* c = counts_.data();
    for (std::size_t j = 0; j < nb; ++j) ++c[static_cast<std::uint32_t>(b[j] - lo)];
    std::uint64_t same = 0;
    for (std::size_t i = 0; i < na; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i]) - lo);
      same += k < span ? c[k] : 0;
    }
    for (std::size_t j = 0; j < nb; ++j) c[static_cast<std::uint32_t>(b[j] - lo)] = 0;
    return same;
  }
  // Ids spread too widely for a table: sort both sides and merge.
  sorted_a_.assign(a, a + na);
  sorted_b_.assign(b, b + nb);
  std::sort(sorted_a_.begin(), sorted_a_.end());
  std::sort(sorted_b_.begin(), sorted_b_.end());
  std::uint64_t same = 0;
  auto j = sorted_b_.begin();
  for (auto i = sorted_a_.begin(); i != sorted_a_.end(); ++i) {
    j = std::lower_bound(j, sorted_b_.end(), *i);
    same += static_cast<std::uint64_t>(std::upper_bound(j, sorted_b_.end(), *i) - j);
  }
  return same;
}

SweepScratch& sweep_scratch() noexcept {
  thread_local SweepScratch scratch;
  return scratch;
}

}  // namespace canb::particles::detail
