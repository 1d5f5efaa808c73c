#include "sim/report.hpp"

#include <algorithm>
#include <ostream>

#include "support/stats.hpp"
#include "support/table.hpp"

namespace canb::sim {

RunReport summarize(const vmpi::VirtualComm& vc, int steps, std::string label, int c) {
  const auto& ledger = vc.ledger();
  RunReport rep;
  rep.label = std::move(label);
  rep.p = vc.size();
  rep.c = c;
  rep.steps = steps;
  const double inv = 1.0 / static_cast<double>(steps);
  using vmpi::Phase;
  auto phase_max = [&](Phase ph) {
    double mx = 0.0;
    for (int r = 0; r < vc.size(); ++r) mx = std::max(mx, ledger.seconds(r, ph));
    return mx * inv;
  };
  rep.compute = phase_max(Phase::Compute);
  rep.broadcast = phase_max(Phase::Broadcast);
  rep.skew = phase_max(Phase::Skew);
  rep.shift = phase_max(Phase::Shift);
  rep.reduce = phase_max(Phase::Reduce);
  rep.reassign = phase_max(Phase::Reassign);
  rep.other = phase_max(Phase::Other);
  rep.wall = vc.max_clock() * inv;
  rep.messages = static_cast<double>(ledger.critical_messages()) * inv;
  rep.bytes = static_cast<double>(ledger.critical_bytes()) * inv;
  rep.retries = static_cast<double>(ledger.critical_retries()) * inv;
  rep.timeouts = static_cast<double>(ledger.critical_timeouts()) * inv;
  const auto per_rank = ledger.per_rank_seconds();
  rep.imbalance = imbalance_factor(per_rank);
  return rep;
}

void annotate_critical_path(RunReport& report, const obs::CriticalPathReport& cp) {
  const int dom = cp.dominant_rank();
  if (dom < 0) return;
  const double inv = 1.0 / static_cast<double>(std::max(1, report.steps));
  report.cp_rank = dom;
  report.cp_seconds = cp.rank_path_seconds[static_cast<std::size_t>(dom)] * inv;
  report.cp_slack = cp.mean_slack() * inv;
}

namespace {
Table make_table(std::span<const RunReport> reports) {
  // Fault counters appear only when some report is degraded: fault-free
  // tables (every figure bench) keep their exact historical layout.
  const bool degraded =
      std::any_of(reports.begin(), reports.end(), [](const auto& r) { return r.degraded(); });
  std::vector<ColumnSpec> cols{{"label", 16},
                                  {"p", 7},
                                  {"c", 5},
                                  {"total(s)", 11, 5},
                                  {"compute", 11, 5},
                                  {"bcast", 10, 5},
                                  {"skew", 10, 5},
                                  {"shift", 11, 5},
                                  {"reduce", 11, 5},
                                  {"reassign", 10, 5},
                                  {"msgs/step", 10, 1},
                                  {"KiB/step", 10, 1},
                                  {"imbal", 7, 2}};
  if (degraded) {
    cols.push_back({"retry/step", 11, 1});
    cols.push_back({"tmout/step", 11, 1});
  }
  // Same conditional-column pattern for critical-path attribution: only
  // runs analyzed under full telemetry grow the extra columns.
  const bool attributed =
      std::any_of(reports.begin(), reports.end(), [](const auto& r) { return r.attributed(); });
  if (attributed) {
    cols.push_back({"cp-rank", 8});
    cols.push_back({"cp(s)", 11, 5});
    cols.push_back({"slack(s)", 11, 5});
  }
  Table t(std::move(cols));
  for (const auto& r : reports) {
    // Cells are appended one at a time: GCC 12 misreports the string
    // alternative as uninitialized when a vector<Cell> is copied out of a
    // braced list of mixed cells (-Wmaybe-uninitialized at -O2).
    std::vector<Cell> row;
    row.reserve(18);
    row.emplace_back(r.label);
    row.emplace_back(static_cast<long long>(r.p));
    row.emplace_back(static_cast<long long>(r.c));
    for (const double v : {r.total(), r.compute, r.broadcast, r.skew, r.shift, r.reduce,
                           r.reassign, r.messages, r.bytes / 1024.0, r.imbalance})
      row.emplace_back(v);
    if (degraded) {
      row.push_back(r.retries);
      row.push_back(r.timeouts);
    }
    if (attributed) {
      row.push_back(static_cast<long long>(r.cp_rank));
      row.push_back(r.cp_seconds);
      row.push_back(r.cp_slack);
    }
    t.add_row(std::move(row));
  }
  return t;
}
}  // namespace

void print_reports(std::ostream& os, std::span<const RunReport> reports) {
  make_table(reports).print(os);
}

void write_reports_csv(const std::string& path, std::span<const RunReport> reports) {
  make_table(reports).write_csv_file(path);
}

}  // namespace canb::sim
