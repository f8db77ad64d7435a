// Counting-model replay: a fixed prefix of each worker's key stream driven
// through LockTable<CountingCcModel> under the deterministic StepScheduler,
// with the workload's sizing and call style. Timed workloads get a deadline
// in scheduler steps (the signal is raised once an attempt has been pending
// for kDeadlineSteps grants), so the abort path is exercised. The counts are
// exact: the same streams give the same numbers on every run.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

struct ReplayCounts {
  std::uint64_t passages = 0;
  std::uint64_t passage_rmrs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t abort_rmrs = 0;
  std::uint64_t txns = 0;
  std::uint64_t txn_rmrs = 0;
  std::uint64_t steps = 0;

  bool operator==(const ReplayCounts&) const = default;
};

ReplayCounts replay(const WorkloadSpec& spec, const Streams& streams,
                    std::uint32_t ops_per_worker,
                    std::uint32_t txns_per_worker);

}  // namespace perfbench
