#include "core/host_tuner.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/manifest.hpp"

namespace canb::core {
namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

// --- minimal read-side helpers -------------------------------------------
//
// The cache schema is flat and fully under our control, so instead of a
// general JSON parser we pull fields out of an object's source text by key.
// Any surprise (missing field, malformed escape) reads as "not found" and
// the caller discards the file — the failure mode of a damaged cache is a
// re-tune, never a wrong application.

/// Unescapes the JSON string starting at `pos` (which must point at the
/// opening quote). Returns false on malformed input.
bool read_json_string(std::string_view text, std::size_t pos, std::string& out,
                      std::size_t& end) {
  if (pos >= text.size() || text[pos] != '"') return false;
  out.clear();
  for (std::size_t i = pos + 1; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch == '"') {
      end = i + 1;
      return true;
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (++i >= text.size()) return false;
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) return false;
        unsigned code = 0;
        for (int k = 1; k <= 4; ++k) {
          const char h = text[i + static_cast<std::size_t>(k)];
          code <<= 4;
          if (h >= '0' && h <= '9')
            code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            return false;
        }
        if (code > 0x7f) return false;  // cache writer only emits ASCII escapes
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

/// Position just past `"key" :` within `obj`, or npos.
std::size_t find_key(std::string_view obj, std::string_view key) {
  const std::string needle = '"' + std::string(key) + '"';
  std::size_t at = 0;
  while ((at = obj.find(needle, at)) != std::string_view::npos) {
    std::size_t p = at + needle.size();
    while (p < obj.size() && std::isspace(static_cast<unsigned char>(obj[p])) != 0) ++p;
    if (p < obj.size() && obj[p] == ':') {
      ++p;
      while (p < obj.size() && std::isspace(static_cast<unsigned char>(obj[p])) != 0) ++p;
      return p;
    }
    at += needle.size();
  }
  return std::string_view::npos;
}

bool field_string(std::string_view obj, std::string_view key, std::string& out) {
  const std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return false;
  std::size_t end = 0;
  return read_json_string(obj, p, out, end);
}

bool field_number(std::string_view obj, std::string_view key, double& out) {
  const std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return false;
  const std::string token(obj.substr(p, obj.find_first_of(",}\n", p) - p));
  std::istringstream is(token);
  return static_cast<bool>(is >> out);
}

/// Parses one entry object's text; false rejects the whole file. Every v4
/// field is mandatory — a truncated or hand-pruned entry fails closed.
bool parse_entry(std::string_view obj, HostTuneEntry& e) {
  double n = 0.0, threads = 0.0, rate = 0.0;
  if (!field_string(obj, "kernel", e.kernel)) return false;
  if (!field_number(obj, "n", n) || n < 2.0) return false;
  if (!field_number(obj, "threads", threads) || threads < 1.0) return false;
  if (!field_string(obj, "backend", e.backend)) return false;
  if (!particles::simd::parse_backend(e.backend)) return false;
  if (!field_string(obj, "distribution", e.distribution) || e.distribution.empty())
    return false;
  if (!field_number(obj, "pairs_per_sec", rate)) return false;
  e.n = static_cast<std::uint64_t>(n);
  e.threads = static_cast<int>(threads);
  e.pairs_per_sec = rate;
  return true;
}

}  // namespace

std::string TuningCache::machine_key() {
  std::string model = obs::host_cpu_model();
  if (model.empty()) model = "unknown-cpu";
  return model + " [" + particles::simd::backend_name(particles::simd::max_supported()) + "]";
}

std::string TuningCache::build_key() {
#if defined(__VERSION__)
  return std::string(__VERSION__) + " p" + std::to_string(sizeof(void*) * 8);
#else
  return std::string("unknown-compiler p") + std::to_string(sizeof(void*) * 8);
#endif
}

TuningCache TuningCache::load_or_empty(const std::string& path) {
  TuningCache cache;  // carries the current keys
  std::ifstream in(path);
  if (!in) return cache;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::string schema, machine, build;
  if (!field_string(text, "schema", schema) || schema != kSchema) return cache;
  if (!field_string(text, "machine", machine) || machine != cache.machine_) return cache;
  if (!field_string(text, "build", build) || build != cache.build_) return cache;

  const std::size_t entries_at = find_key(text, "entries");
  if (entries_at == std::string::npos || text[entries_at] != '[') return cache;

  std::vector<HostTuneEntry> parsed;
  std::size_t pos = entries_at + 1;
  while (true) {
    const std::size_t open = text.find_first_of("{]", pos);
    if (open == std::string::npos) return cache;  // truncated file
    if (text[open] == ']') break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) return cache;
    HostTuneEntry e;
    if (!parse_entry(std::string_view(text).substr(open, close - open + 1), e)) return cache;
    parsed.push_back(std::move(e));
    pos = close + 1;
  }
  cache.entries_ = std::move(parsed);
  return cache;
}

bool TuningCache::save(const std::string& path) const {
  std::string out = "{\n  \"schema\": ";
  append_json_string(out, kSchema);
  out += ",\n  \"machine\": ";
  append_json_string(out, machine_);
  out += ",\n  \"build\": ";
  append_json_string(out, build_);
  out += ",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const HostTuneEntry& e = entries_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kernel\": ";
    append_json_string(out, e.kernel);
    out += ", \"n\": " + std::to_string(e.n);
    out += ", \"threads\": " + std::to_string(e.threads);
    out += ", \"backend\": ";
    append_json_string(out, e.backend);
    out += ", \"distribution\": ";
    append_json_string(out, e.distribution);
    char rate[40];
    std::snprintf(rate, sizeof rate, "%.17g", e.pairs_per_sec);
    out += std::string(", \"pairs_per_sec\": ") + rate + "}";
  }
  out += entries_.empty() ? "]\n}\n" : "\n  ]\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out;
  return static_cast<bool>(f);
}

const HostTuneEntry* TuningCache::find(std::string_view kernel, std::uint64_t n,
                                       std::string_view distribution) const {
  for (const HostTuneEntry& e : entries_)
    if (e.n == n && e.kernel == kernel && e.distribution == distribution) return &e;
  return nullptr;
}

void TuningCache::put(HostTuneEntry e) {
  for (HostTuneEntry& existing : entries_) {
    if (existing.n == e.n && existing.kernel == e.kernel &&
        existing.distribution == e.distribution) {
      existing = std::move(e);
      return;
    }
  }
  entries_.push_back(std::move(e));
}

HostTuneChoice choice_from_entry(const HostTuneEntry& e) {
  HostTuneChoice c;
  // Entries validate against parse_backend on load; clamp to what this
  // machine supports in case a hand-edited cache requests wider lanes.
  const auto parsed = particles::simd::parse_backend(e.backend);
  c.backend = parsed ? std::min(*parsed, particles::simd::max_supported())
                     : particles::simd::Backend::Scalar;
  c.threads = e.threads < 1 ? 1 : e.threads;
  c.pairs_per_sec = e.pairs_per_sec;
  c.from_cache = true;
  return c;
}

HostTuneEntry entry_from_choice(std::string kernel, std::uint64_t n, std::string distribution,
                                const HostTuneChoice& c) {
  HostTuneEntry e;
  e.kernel = std::move(kernel);
  e.n = n;
  e.threads = c.threads;
  e.backend = particles::simd::backend_name(c.backend);
  e.distribution = std::move(distribution);
  e.pairs_per_sec = c.pairs_per_sec;
  return e;
}

machine::MachineModel with_measured_gamma(machine::MachineModel model,
                                          const HostTuneChoice& choice) {
  if (choice.pairs_per_sec > 0.0) model.gamma = 1.0 / choice.pairs_per_sec;
  return model;
}

}  // namespace canb::core
