// Native abort-path microbenchmarks: bounded-abort latency (how fast an
// enter() returns once its signal is up while the lock is held), the cost
// of carrying a signal on the uncontended fast path, mixed abort-marking
// rates, and the tree-width ablation.
//
// Single-threaded and batch-timed: each case runs one warm-up batch, then
// kReps batches of kBatch operations, and reports the median ns/op with the
// min and max batch — the clock is read twice per batch, never per op. Each
// case also checks its outcome: every attempt against a held lock aborts,
// and every solo attempt is granted (the hand-off beats the abort check —
// footnote 2 of the paper — so a raised signal cannot stop a solo entry).
//
// Wall-clock values vary run to run: BENCH_native_abort.json is an
// artifact, not part of the committed trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/harness/report.hpp"
#include "aml/harness/table.hpp"
#include "aml/pal/rng.hpp"

namespace {

using aml::harness::BenchReport;
using aml::harness::Table;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kReps = 7;
constexpr std::uint64_t kBatch = 100'000;

struct Bench {
  BenchReport report{"native_abort"};
  Table table{"Native abort-path costs (batch-timed, single thread)"};
  bool ok = true;

  Bench() {
    report.config("reps", std::uint64_t{kReps})
        .config("batch", kBatch)
        .config("values", "wall-clock (nondeterministic)");
    table.headers({"case", "median ns/op", "min ns/op", "max ns/op",
                   "granted"});
  }

  /// Time `batch(n)` — n operations, returning how many were granted — and
  /// check that either all or none of each batch's attempts were granted.
  template <typename Batch>
  void run(const std::string& name, bool all_granted, Batch batch) {
    std::uint64_t granted = batch(kBatch);  // warm-up
    std::vector<double> ns;
    for (std::uint32_t r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      granted += batch(kBatch);
      const auto t1 = Clock::now();
      ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(kBatch));
    }
    const std::uint64_t attempts = (kReps + 1) * kBatch;
    const bool held = granted == (all_granted ? attempts : 0);
    ok = ok && held;
    std::vector<double> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    table.row({name, Table::num(median), Table::num(sorted.front()),
               Table::num(sorted.back()),
               held ? (all_granted ? "all" : "none") : "WRONG"});
    report.samples(name + "/ns_per_op", ns)
        .summary(name + "_median_ns", median);
  }
};

}  // namespace

int main() {
  Bench bench;

  // An aborted attempt while thread 0 holds the lock the whole time.
  {
    aml::AbortableLock lock(aml::LockConfig{.max_threads = 2});
    lock.enter(0);
    aml::AbortSignal sig;
    sig.raise();
    bench.run("abort_latency_while_held", false, [&](std::uint64_t n) {
      std::uint64_t granted = 0;
      for (std::uint64_t i = 0; i < n; ++i) granted += lock.enter(1, sig);
      return granted;
    });
    lock.exit(0);
  }

  // Uncontended acquire/release with a never-raised signal: the cost of
  // abortability on the fast path.
  {
    aml::AbortableLock lock(aml::LockConfig{.max_threads = 1});
    aml::AbortSignal sig;
    bench.run("enter_exit_with_signal_check", true, [&](std::uint64_t n) {
      std::uint64_t granted = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (lock.enter(0, sig)) {
          lock.exit(0);
          ++granted;
        }
      }
      return granted;
    });
  }

  // Each attempt raises its signal with probability ppm/1e6 first. Solo
  // attempts always win, so what this isolates is the fast-path cost of
  // *carrying* a possibly-raised signal across abort-marking rates.
  for (const std::uint64_t ppm : {0u, 100'000u, 500'000u}) {
    aml::AbortableLock lock(aml::LockConfig{.max_threads = 1});
    aml::AbortSignal sig;
    aml::pal::Xoshiro256 rng(42);
    bench.run("mixed_abort_rate/" + std::to_string(ppm), true,
              [&](std::uint64_t n) {
                std::uint64_t granted = 0;
                for (std::uint64_t i = 0; i < n; ++i) {
                  sig.reset();
                  if (rng.chance_ppm(ppm)) sig.raise();
                  if (lock.enter(0, sig)) {
                    lock.exit(0);
                    ++granted;
                  }
                }
                return granted;
              });
  }

  // Tree width ablation on the abort-free native fast path.
  for (const std::uint32_t width : {2u, 8u, 64u}) {
    aml::AbortableLock lock(
        aml::LockConfig{.max_threads = 1, .tree_width = width});
    bench.run("tree_width/" + std::to_string(width), true,
              [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                  lock.enter(0);
                  lock.exit(0);
                }
                return n;
              });
  }

  bench.table.print();
  bench.report.summary("outcomes_held", std::uint64_t{bench.ok ? 1u : 0u});
  bench.report.table(bench.table);
  bench.report.write();
  if (!bench.ok) {
    std::printf("FAIL: an attempt's outcome contradicts the lock's state\n");
    return 1;
  }
  return 0;
}
