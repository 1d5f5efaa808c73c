// Build provenance strings for RunManifest / canb_build_info. Kept in one
// translation unit so the CANB_GIT_DESCRIBE compile definition (set by
// src/obs/CMakeLists.txt at configure time) dirties exactly this object.
#include <cctype>
#include <fstream>

#include "obs/manifest.hpp"

namespace canb::obs {

const char* build_compiler() noexcept {
  // Clang defines __GNUC__ too, so test it first.
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_git_describe() noexcept {
#if defined(CANB_GIT_DESCRIBE)
  return CANB_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t b = colon + 1;
    while (b < line.size() && std::isspace(static_cast<unsigned char>(line[b])) != 0) ++b;
    return line.substr(b);
  }
  return {};
}

}  // namespace canb::obs
