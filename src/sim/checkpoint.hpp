// Binary checkpoint/restart.
//
// Format (version 2): a fixed little-endian header (magic "CANB", version,
// step, time, particle count, checksum) followed by the raw 52-byte
// particle records. The checksum is 64-bit FNV-1a over the header fields
// before it and then the payload, so a flipped byte anywhere fails the
// load. The record layout is static_asserted, so a checkpoint round-trips
// bitwise. Version 1 files (no checksum) are rejected.
//
// The wire format is deliberately AoS even though ranks hold particles in
// SoA lanes (particles::SoaBlock): serialization is a boundary, so the
// one gather/convert happens here (Simulation::gather -> Block), keeping
// the checkpoint format stable across host-layout changes.
#pragma once

#include <cstdint>
#include <string>

#include "particles/particle.hpp"

namespace canb::sim {

struct Checkpoint {
  std::int64_t step = 0;
  double time = 0.0;
  particles::Block particles;
};

/// Writes a checkpoint; throws PreconditionError on I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& cp);

/// Reads a checkpoint; throws PreconditionError on missing/corrupt files
/// (bad magic, version mismatch, a count larger than the file holds,
/// truncated payload, checksum mismatch) before trusting any field.
Checkpoint load_checkpoint(const std::string& path);

}  // namespace canb::sim
