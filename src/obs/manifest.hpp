// RunManifest: the provenance block embedded in every exported artifact.
//
// A metrics file or trace with no record of which config produced it is
// unreproducible; the manifest carries the tool name, machine preset, and
// the flat key=value view of the run configuration (p, c, n, engine,
// fault seed, ...). Exporters serialize it verbatim, so two artifacts
// from the same run always agree on provenance.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace canb::obs {

/// Compiler identity baked at build time ("gcc 13.2.0", "clang ...").
const char* build_compiler() noexcept;
/// `git describe --always --dirty` of the build tree, injected by CMake
/// via CANB_GIT_DESCRIBE; "unknown" outside a git checkout.
const char* build_git_describe() noexcept;
/// The host CPU's model name (first "model name" line of /proc/cpuinfo),
/// or empty when unavailable.
std::string host_cpu_model();

struct RunManifest {
  std::string tool = "canb";
  std::string machine;  ///< machine preset / model name
  /// Build provenance (the schema-v3 "build" block): toolchain, source
  /// revision, and the widest SIMD backend the host supports. `simd` is
  /// filled by the embedding layer (obs cannot link against particles).
  std::string compiler = build_compiler();
  std::string git = build_git_describe();
  std::string simd = "unknown";
  /// Ordered config entries; insertion order is preserved in exports.
  std::vector<std::pair<std::string, std::string>> config;

  RunManifest& set(std::string key, std::string value) {
    for (auto& kv : config) {
      if (kv.first == key) {
        kv.second = std::move(value);
        return *this;
      }
    }
    config.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  RunManifest& set(std::string key, double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    return set(std::move(key), os.str());
  }
  RunManifest& set(std::string key, std::uint64_t v) {
    return set(std::move(key), std::to_string(v));
  }
  RunManifest& set(std::string key, int v) { return set(std::move(key), std::to_string(v)); }

  const std::string* find(const std::string& key) const {
    for (const auto& kv : config) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

}  // namespace canb::obs
