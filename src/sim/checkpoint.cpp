#include "sim/checkpoint.hpp"

#include <cstddef>
#include <cstring>
#include <fstream>

#include "support/assert.hpp"

namespace canb::sim {

namespace {
constexpr char kMagic[4] = {'C', 'A', 'N', 'B'};
constexpr std::uint32_t kVersion = 2;

struct Header {
  char magic[4];
  std::uint32_t version;
  std::int64_t step;
  double time;
  std::uint64_t count;
  std::uint64_t checksum;  ///< FNV-1a over the fields above, then the payload
};
static_assert(sizeof(Header) == 40, "checkpoint header layout is part of the format");

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::uint64_t checksum_of(const Header& h, const particles::Block& ps) noexcept {
  const std::uint64_t head = fnv1a(14695981039346656037ull, &h, offsetof(Header, checksum));
  return fnv1a(head, ps.data(), ps.size() * particles::kParticleBytes);
}
}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& cp) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  CANB_REQUIRE(f.good(), "cannot open checkpoint file for writing: " + path);
  Header h{};
  std::memcpy(h.magic, kMagic, 4);
  h.version = kVersion;
  h.step = cp.step;
  h.time = cp.time;
  h.count = cp.particles.size();
  h.checksum = checksum_of(h, cp.particles);
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f.write(reinterpret_cast<const char*>(cp.particles.data()),
          static_cast<std::streamsize>(cp.particles.size() * particles::kParticleBytes));
  CANB_REQUIRE(f.good(), "checkpoint write failed: " + path);
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  CANB_REQUIRE(f.good(), "cannot open checkpoint file: " + path);
  const std::streamoff file_bytes = f.tellg();
  CANB_REQUIRE(file_bytes >= 0, "cannot size checkpoint file: " + path);
  f.seekg(0);
  Header h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  CANB_REQUIRE(f.gcount() >= 8 && std::memcmp(h.magic, kMagic, 4) == 0,
               "not a CANB checkpoint: " + path);
  CANB_REQUIRE(h.version == kVersion, "unsupported checkpoint version " +
                                          std::to_string(h.version) + " (expected " +
                                          std::to_string(kVersion) + ") in " + path);
  CANB_REQUIRE(f.gcount() == sizeof(h), "checkpoint truncated (header): " + path);
  // Bound the count by the bytes actually present before allocating, so a
  // corrupt header fails here rather than in resize.
  const auto file_size = static_cast<std::uint64_t>(file_bytes);
  CANB_REQUIRE(file_size >= sizeof(h) &&
                   h.count <= (file_size - sizeof(h)) / particles::kParticleBytes,
               "checkpoint truncated (payload), or its count is corrupt: " + path);
  Checkpoint cp;
  cp.step = h.step;
  cp.time = h.time;
  cp.particles.resize(h.count);
  const auto bytes = static_cast<std::streamsize>(h.count * particles::kParticleBytes);
  f.read(reinterpret_cast<char*>(cp.particles.data()), bytes);
  CANB_REQUIRE(f.gcount() == bytes, "checkpoint truncated (payload): " + path);
  CANB_REQUIRE(checksum_of(h, cp.particles) == h.checksum,
               "checkpoint checksum mismatch (corrupt file): " + path);
  return cp;
}

}  // namespace canb::sim
