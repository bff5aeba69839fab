// Command-line flag parsing shared by the example binaries (sssp_cli,
// sssp_serve). Header-only, so a binary built from its one source file
// still compiles.
#pragma once

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rs::examples {

/// Minimal --flag value parser: every "-x"/"--flag" token takes the next
/// token as its value; everything else is positional. A token such as
/// "-5" is a value, not a flag, so negative numbers reach the range checks.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      const bool is_flag =
          a.size() >= 2 && a[0] == '-' &&
          !std::isdigit(static_cast<unsigned char>(a[1]));
      if (is_flag && i + 1 < argc) {
        kv_[a] = argv[++i];
      } else {
        positional_.push_back(a);
      }
    }
  }
  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  long get_int(const std::string& key, long dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::stol(it->second);
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// Strict integer flag: absent -> `dflt`; present -> must parse fully as
/// an integer in [lo, hi]. Rejects what std::stol would let slide —
/// trailing junk ("5x") — and values a narrowing cast would silently
/// wrap: cast unchecked, `--source -5` is vertex 4294967291 and
/// `--port 70000` is port 4464.
inline long get_checked(const Args& args, const std::string& key, long dflt,
                        long lo, long hi) {
  const std::string raw = args.get(key, "");
  if (raw.empty()) return dflt;
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(raw, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != raw.size()) {
    throw std::invalid_argument(key + " expects an integer, got '" + raw +
                                "'");
  }
  if (v < lo || v > hi) {
    throw std::invalid_argument(key + " out of range [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]: " + raw);
  }
  return v;
}

/// Same contract for a real-valued flag in [lo, hi].
inline double get_checked_real(const Args& args, const std::string& key,
                               double dflt, double lo, double hi) {
  const std::string raw = args.get(key, "");
  if (raw.empty()) return dflt;
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(raw, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != raw.size()) {
    throw std::invalid_argument(key + " expects a number, got '" + raw + "'");
  }
  if (!(v >= lo && v <= hi)) {
    std::ostringstream range;
    range << key << " out of range [" << lo << ", " << hi << "]: " << raw;
    throw std::invalid_argument(range.str());
  }
  return v;
}

}  // namespace rs::examples
