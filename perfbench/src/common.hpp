// Shared plumbing of the lock-service benchmark: clocks, order statistics,
// host probes, the busy critical section and the metric list a run reports.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a copy (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 100]. Sorts `v` in place.
std::uint64_t percentile(std::vector<std::uint64_t>& v, double q);

/// Resident set size of this process, in MiB (/proc/self/statm).
double rss_mb();

/// Pin the calling thread to `cpu` if the affinity mask allows it; returns
/// false (and leaves the thread unpinned) otherwise.
bool pin_to_cpu(unsigned cpu);

/// Give the calling thread back every CPU the process started with.
void restore_affinity();

/// Number of CPUs this process may run on.
unsigned usable_cpus();

/// A dependent multiply-add chain: fixed work, no memory traffic, never
/// folded away because the result feeds the caller's sink.
inline std::uint64_t busy_work(std::uint64_t x, std::uint32_t iters) {
  for (std::uint32_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

/// Keeps a value alive without a store the optimizer could drop.
inline void keep(std::uint64_t v) {
  asm volatile("" : : "r"(v) : "memory");
}

/// One reported number. `samples` is the population the value was derived
/// from (0 when it is a single measurement or a count).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    items_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> items_;
};

/// JSON number with every digit kept (17 significant digits round-trip a
/// double); non-finite values become null.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
