// The four workloads and their pre-generated key streams.
//
// Every stream is drawn from the run's seed before any timing starts, so
// the timed loops do no RNG work and no Zipf search: they walk a vector.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Service { kNamed, kShm };
enum class Call { kBlocking, kTimed, kTxn };

struct WorkloadSpec {
  const char* name;
  Service service;
  Call call;
  std::uint32_t max_threads;  ///< TableConfig::max_threads / shm nprocs
  std::uint32_t stripes;
  std::uint64_t key_space;    ///< keys are drawn from [0, key_space)
  double zipf_theta;          ///< 0 = uniform
  std::uint32_t keys_per_op;  ///< 4 for transactions, else 1
  std::chrono::nanoseconds budget;  ///< timed calls only
  std::uint32_t cs_iters;     ///< busy_work iterations inside the CS
  std::uint32_t recovery_every;  ///< shm: one simulated death per K ops
};

/// Closed-loop clients per workload (one session each).
inline constexpr std::uint32_t kWorkers = 3;

/// Ops per worker stream (a power of two: the loops wrap with a mask).
inline constexpr std::uint32_t kStreamOps = 1u << 16;

const std::vector<WorkloadSpec>& all_workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct Streams {
  /// keys[w]: worker w's flat key stream, keys_per_op keys per op.
  std::vector<std::vector<std::uint64_t>> keys;
  /// txns[w][i]: op i's key set, for acquire_all (kTxn only).
  std::vector<std::vector<std::vector<std::uint64_t>>> txns;
};

Streams make_streams(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
