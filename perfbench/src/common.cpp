#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

/// The affinity mask the process started with (captured before any pinning).
const cpu_set_t& startup_mask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (::sched_getaffinity(0, sizeof(m), &m) != 0) CPU_SET(0, &m);
    return m;
  }();
  return mask;
}

}  // namespace

bool pin_to_cpu(unsigned cpu) {
  const cpu_set_t& allowed = startup_mask();
  // Map the logical index onto the cpu-th allowed CPU.
  unsigned seen = 0;
  for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (seen++ != cpu) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) == 0;
  }
  return false;
}

void restore_affinity() {
  ::pthread_setaffinity_np(::pthread_self(), sizeof(cpu_set_t),
                           &startup_mask());
}

unsigned usable_cpus() {
  return static_cast<unsigned>(CPU_COUNT(&startup_mask()));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
