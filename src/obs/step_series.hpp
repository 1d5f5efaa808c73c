// StepSeries: the per-step flight recorder.
//
// A fixed-capacity ring of StepSample rows — HOST wall seconds, virtual
// clock advance, sweep pair counts, retransmits, host data-plane
// seconds — recorded once per timestep. The ring bounds memory for
// arbitrarily long runs; when it wraps, the oldest rows fall off and the
// exported JSON says how many were recorded in total.
//
// Straggler detection: once at least kMinSamplesForMedian rows are
// resident, a step whose wall time exceeds `straggler_factor` times the
// rolling median is flagged, appended to a separate (capped) straggler
// list, and reported through the optional sink callback — which the CLI
// uses to drop a JSON snapshot the moment the anomaly happens instead of
// waiting for the run to end.
//
// Pure host-side observation: nothing here reads back into the simulation,
// and recording draws only on wall clocks and already-maintained counters.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "obs/manifest.hpp"

namespace canb::obs {

struct StepSample {
  int step = 0;
  double wall_seconds = 0.0;           ///< HOST wall time of the step
  double clock_advance_seconds = 0.0;  ///< max virtual clock delta this step
  std::uint64_t pairs_examined = 0;    ///< sweep pairs accounted (ledger unit)
  std::uint64_t pairs_computed = 0;    ///< pair evaluations the host executed
  std::uint64_t retransmits = 0;       ///< transport retransmits during the step
  double host_phase_seconds = 0.0;     ///< data-plane seconds during the step
  bool straggler = false;              ///< flagged against the rolling median
};

class StepSeries {
 public:
  /// Rows resident before straggler detection arms (warmup noise guard).
  static constexpr std::size_t kMinSamplesForMedian = 8;
  /// Most stragglers retained; beyond this, new flags still fire the sink
  /// but are not stored.
  static constexpr std::size_t kMaxStragglers = 64;

  explicit StepSeries(std::size_t capacity = 1024, double straggler_factor = 3.0);

  /// Appends one sample (evicting the oldest once full). Returns whether
  /// the sample was flagged as a straggler; the flag is also set on the
  /// stored sample and the sink (if any) fires before returning.
  bool record(StepSample sample);

  /// Fires synchronously from record() for each flagged straggler.
  void set_straggler_sink(std::function<void(const StepSample&)> sink) {
    sink_ = std::move(sink);
  }

  /// Resident samples, oldest first.
  std::vector<StepSample> samples() const;
  /// Flagged stragglers in flag order (capped at kMaxStragglers).
  const std::vector<StepSample>& stragglers() const noexcept { return stragglers_; }

  /// Rolling median of resident wall times; 0 while empty.
  double median_wall_seconds() const;

  std::size_t capacity() const noexcept { return ring_.capacity(); }
  std::size_t size() const noexcept { return ring_.size(); }
  /// Samples ever recorded (>= size() once the ring wraps).
  std::uint64_t recorded_total() const noexcept { return recorded_; }
  double straggler_factor() const noexcept { return factor_; }

 private:
  std::vector<StepSample> ring_;  ///< capacity reserved up front
  std::size_t next_ = 0;          ///< overwrite cursor once full
  std::uint64_t recorded_ = 0;
  double factor_;
  std::vector<StepSample> stragglers_;
  std::function<void(const StepSample&)> sink_;
};

/// Flight-recorder JSON: {"schema_version":3, "kind":"step_series",
/// manifest, capacity/recorded_total/straggler stats, samples[] oldest
/// first, stragglers[]}.
void write_step_series(std::ostream& out, const StepSeries& series,
                       const RunManifest& manifest);

}  // namespace canb::obs
