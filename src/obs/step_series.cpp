#include "obs/step_series.hpp"

#include <algorithm>
#include <ostream>

#include "obs/export.hpp"
#include "support/assert.hpp"

namespace canb::obs {

StepSeries::StepSeries(std::size_t capacity, double straggler_factor)
    : factor_(straggler_factor) {
  CANB_REQUIRE(capacity > 0, "step series needs a nonzero capacity");
  CANB_REQUIRE(straggler_factor > 1.0, "straggler factor must exceed 1");
  ring_.reserve(capacity);
  stragglers_.reserve(kMaxStragglers);
}

double StepSeries::median_wall_seconds() const {
  if (ring_.empty()) return 0.0;
  std::vector<double> walls;
  walls.reserve(ring_.size());
  for (const auto& s : ring_) walls.push_back(s.wall_seconds);
  const auto mid = walls.size() / 2;
  std::nth_element(walls.begin(), walls.begin() + static_cast<std::ptrdiff_t>(mid), walls.end());
  return walls[mid];
}

bool StepSeries::record(StepSample sample) {
  // Judge against the median of *previous* steps, so one slow step cannot
  // mask itself by dragging its own median up.
  const double median = median_wall_seconds();
  const bool flag = ring_.size() >= kMinSamplesForMedian && median > 0.0 &&
                    sample.wall_seconds > factor_ * median;
  sample.straggler = flag;

  if (ring_.size() < ring_.capacity()) {
    ring_.push_back(sample);
  } else {
    ring_[next_] = sample;
    next_ = (next_ + 1) % ring_.capacity();
  }
  ++recorded_;

  if (flag) {
    if (stragglers_.size() < kMaxStragglers) stragglers_.push_back(sample);
    if (sink_) sink_(sample);
  }
  return flag;
}

std::vector<StepSample> StepSeries::samples() const {
  std::vector<StepSample> out;
  out.reserve(ring_.size());
  // Once the ring has wrapped, next_ points at the oldest resident sample.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

namespace {

void write_sample(JsonWriter& w, const StepSample& s) {
  w.begin_object();
  w.kv("step", s.step);
  w.kv("wall_seconds", s.wall_seconds);
  w.kv("clock_advance_seconds", s.clock_advance_seconds);
  w.kv("pairs_examined", s.pairs_examined);
  w.kv("pairs_computed", s.pairs_computed);
  w.kv("retransmits", s.retransmits);
  w.kv("host_phase_seconds", s.host_phase_seconds);
  w.kv("straggler", s.straggler);
  w.end_object();
}

}  // namespace

void write_step_series(std::ostream& out, const StepSeries& series,
                       const RunManifest& manifest) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema_version", kObsSchemaVersion);
  w.kv("kind", "step_series");
  write_manifest(w, manifest);
  w.kv("capacity", static_cast<std::uint64_t>(series.capacity()));
  w.kv("recorded_total", series.recorded_total());
  w.kv("straggler_factor", series.straggler_factor());
  w.kv("median_wall_seconds", series.median_wall_seconds());
  w.key("samples").begin_array();
  for (const auto& s : series.samples()) write_sample(w, s);
  w.end_array();
  w.key("stragglers").begin_array();
  for (const auto& s : series.stragglers()) write_sample(w, s);
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace canb::obs
