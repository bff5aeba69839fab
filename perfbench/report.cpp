#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape(entries_[i].name) + "\": {\"value\": " +
           json_number(entries_[i].value) + ", \"unit\": \"" +
           json_escape(entries_[i].unit) + "\"}";
  }
  return out + "}";
}

Machine describe_machine(std::uint64_t seed, const std::string& commit) {
  Machine m;
  m.nproc = std::thread::hardware_concurrency();
#ifdef __VERSION__
  m.compiler = std::string("g++ ") + __VERSION__;
#endif
  m.build_type = PB_BUILD_TYPE;
  m.commit = commit;
  m.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  m.seed = seed;
  return m;
}

Tracer::Tracer() : origin_(Clock::now()) {}

long Tracer::begin(const std::string& name, long parent,
                   std::uint64_t request) {
  const double now = us_between(origin_, Clock::now());
  spans_.push_back({name, now, now, parent, request});
  return static_cast<long>(spans_.size()) - 1;
}

double Tracer::end(long index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = us_between(origin_, Clock::now());
  return s.duration_us();
}

long Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, long parent, std::uint64_t request) {
  spans_.push_back({name, us_between(origin_, start), us_between(origin_, end),
                    parent, request});
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_us());
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
        << "\", \"start_us\": " << json_number(s.start_us)
        << ", \"end_us\": " << json_number(s.end_us)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace pb
