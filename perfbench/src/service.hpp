// Closed-loop load generators for the two lock services.
//
// A ServiceRun owns one service instance (NamedLockTable or
// ShmNamedLockTable), one session per worker and the exclusion-check state.
// run_phase() drives the workload's key streams from kWorkers pinned
// threads: a warm-up, then `rounds` back-to-back measurement windows whose
// throughput comes from per-batch op counters (no per-op clock reads), with
// 1-in-k ops timed for latency. Every grant increments a plain per-stripe
// counter inside the critical section; the counter must equal the number of
// grants, or mutual exclusion was broken.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct PhaseOptions {
  double warmup_s = 1.0;
  double measure_s = 10.0;
  std::uint32_t rounds = 10;
  bool trace = false;               ///< record a span per op
};

/// One traced op: call, guard returned, critical section done, released.
struct Span {
  std::uint32_t worker = 0;
  std::uint64_t op = 0;
  std::uint64_t t_call = 0;
  std::uint64_t t_granted = 0;
  std::uint64_t t_cs_done = 0;
  std::uint64_t t_released = 0;
  bool granted = false;
};

struct PhaseResult {
  std::vector<double> round_ops_s;
  double throughput = 0;             ///< median of round_ops_s
  /// Sampled acquire latencies, one vector per measurement round.
  std::vector<std::vector<std::uint64_t>> latency_ns;
  std::uint64_t attempts = 0;        ///< every op of the phase
  std::uint64_t timeouts = 0;
  std::uint64_t violations = 0;      ///< failed correctness checks
  std::vector<std::uint64_t> recovery_ns;  ///< shm: recover + reacquire
  std::vector<Span> spans;           ///< last spans per worker (trace only)
};

/// Always-on StripeStatsView counts of a NamedLockTable.
struct StripeSummary {
  double abort_ratio = 0;
  std::uint32_t peak_inflight = 0;
};

class ServiceRun {
 public:
  virtual ~ServiceRun() = default;
  virtual PhaseResult run_phase(const Streams& streams,
                                const PhaseOptions& options) = 0;
  /// Empty for ShmNamedLockTable, which keeps no StripeStatsView.
  virtual std::optional<StripeSummary> stripe_summary() const = 0;
  /// Zombie pids retired by recovery sweeps so far (shm only).
  virtual std::uint64_t zombie_pids() const = 0;
};

/// Build the workload's service and open one session per worker: this is
/// the span setup_s times. Null (with `error` set) on failure.
std::unique_ptr<ServiceRun> make_service(const WorkloadSpec& spec,
                                         std::string* error);

/// Same, but always an in-process NamedLockTable with the workload's
/// sizing and call style (the StripeStatsView probe for shm-service).
std::unique_ptr<ServiceRun> make_named_service(const WorkloadSpec& spec);

}  // namespace perfbench
