#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "support/assert.hpp"

namespace canb {

CliArgs::CliArgs(int argc, const char* const* argv, std::vector<std::string> known)
    : known_(std::move(known)) {
  auto is_known = [&](const std::string& k) {
    return std::find(known_.begin(), known_.end(), k) != known_.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string key;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      // "--key value" if the next token is not itself an option; else a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 && is_known(key)) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    CANB_REQUIRE(is_known(key), "unknown option --" + key);
    values_[key] = value;
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Parses the whole of `value` with `parse` (std::stoll / std::stod style);
/// anything left over, or no number at all, is a usage error naming `key`.
template <class T, class Parse>
T parse_number(const std::string& key, const std::string& value, const char* kind,
               Parse parse) {
  std::size_t used = 0;
  T out{};
  try {
    out = parse(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  CANB_REQUIRE(!value.empty() && used == value.size(),
               "--" + key + " expects " + kind + ", got '" + value + "'");
  return out;
}

}  // namespace

long long CliArgs::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<long long>(key, it->second, "an integer",
                                 [](const std::string& v, std::size_t* used) {
                                   return std::stoll(v, used);
                                 });
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<double>(key, it->second, "a number",
                              [](const std::string& v, std::size_t* used) {
                                return std::stod(v, used);
                              });
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string CliArgs::usage(const std::string& program) const {
  return format_usage(program, known_);
}

std::string format_usage(const std::string& program, const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "usage: " << program;
  for (const auto& k : known) os << " [--" << k << "=...]";
  return os.str();
}

}  // namespace canb
