// Minimal command-line option parsing for benches and examples.
//
// Supports "--key=value", "--key value", and boolean "--flag". Unknown
// options raise PreconditionError so typos fail loudly. We deliberately do
// not pull in a third-party CLI library: the binaries here have a handful of
// numeric knobs each.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace canb {

class CliArgs {
 public:
  /// Parses argv; `known` lists accepted option names (without "--").
  CliArgs(int argc, const char* const* argv, std::vector<std::string> known);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric getters raise PreconditionError naming the option when the
  /// value is not entirely a number of that type.
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// One-line usage string listing known options.
  std::string usage(const std::string& program) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> known_;
  std::vector<std::string> positional_;
};

/// "usage: <program> [--opt=...] ..." for an option list.
std::string format_usage(const std::string& program, const std::vector<std::string>& known);

}  // namespace canb
