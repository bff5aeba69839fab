// Result reporting: named metrics with units, the machine descriptor every
// result carries, and the in-memory span log of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.hpp"

namespace pb {

std::string json_escape(const std::string& s);
/// A number in JSON with all its digits (non-finite values become null).
std::string json_number(double v);

/// Ordered name -> (value, unit) map, rendered as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;
  /// The value of `name`; 0 when it was never set.
  double get(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What every result carries about where it was measured.
struct Machine {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  long llc_bytes = 0;
  std::uint64_t seed = 0;
};
Machine describe_machine(std::uint64_t seed, const std::string& commit);

/// One recorded span: a timed call into a layer, from the benchmark's side.
struct Span {
  std::string name;
  double start_us = 0;  ///< since the tracer's origin
  double end_us = 0;
  long parent = -1;  ///< index of the enclosing span, -1 at the top
  std::uint64_t request = 0;  ///< request id; 0 for non-request spans
  double duration_us() const { return end_us - start_us; }
};

/// In-memory span log; written out once, at exit.
class Tracer {
 public:
  Tracer();
  /// Opens a span and returns its index.
  long begin(const std::string& name, long parent = -1,
             std::uint64_t request = 0);
  /// Closes span `index` and returns its duration in microseconds.
  double end(long index);
  /// Records an already-measured span.
  long add(const std::string& name, Clock::time_point start,
           Clock::time_point end, long parent, std::uint64_t request);
  /// Durations (us) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Writes one JSON object per line; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace pb
