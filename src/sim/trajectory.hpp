// Trajectory output: snapshot writers for analysis/visualization tooling.
//
//  * XYZ: the de-facto MD interchange format (frame = count, comment,
//    one "El x y z" line per particle; z is 0 for our 2D worlds). VMD,
//    OVITO, ASE etc. read it directly.
//  * CSV: one row per particle per frame with full state (positions,
//    velocities, forces), for pandas/spreadsheet analysis.
//
// A minimal XYZ reader supports round-trip tests and restart-style use.
//
// Writers take AoS particles::Block: like the checkpoint format, snapshot
// output is a serialization boundary, and the SoA-resident pipeline
// converts exactly once (Simulation::gather) before writing.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "particles/particle.hpp"

namespace canb::sim {

/// Appends one XYZ frame. `comment` lands on the format's comment line
/// (step number, time, energies — caller's choice; newlines are stripped).
void write_xyz_frame(std::ostream& os, const particles::Block& ps,
                     const std::string& comment = {});

/// Reads the next XYZ frame; returns false cleanly at end of stream.
/// Throws PreconditionError on malformed input. Only positions are
/// recovered (ids are assigned sequentially — XYZ carries no ids).
bool read_xyz_frame(std::istream& is, particles::Block& out, std::string* comment = nullptr);

/// Streams frames to a file across a run.
class TrajectoryWriter {
 public:
  enum class Format { Xyz, Csv };

  TrajectoryWriter(const std::string& path, Format format);
  ~TrajectoryWriter();
  TrajectoryWriter(const TrajectoryWriter&) = delete;
  TrajectoryWriter& operator=(const TrajectoryWriter&) = delete;

  /// Writes and flushes one frame; `step` and `time` go into the frame
  /// header. Throws std::runtime_error naming the file if the write fails.
  void append(const particles::Block& ps, int step, double time);

  int frames_written() const noexcept { return frames_; }

 private:
  struct Impl;
  Impl* impl_;
  Format format_;
  int frames_ = 0;
};

}  // namespace canb::sim
