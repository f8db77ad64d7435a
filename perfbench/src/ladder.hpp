// The per-layer ladder: the workload's own key stream driven through each
// layer's public entry point in turn, single-threaded and batch-timed
// (median of `reps` full passes), so that one row minus the row below it
// is that layer's self time. The timer wheel row runs at the workload's
// concurrency. Rows:
//
//   ref.std_mutex          std::mutex per stripe (host-speed control)
//   table.hash             LockTable::hash_of
//   core.abortable_lock    BasicAbortableLock per stripe (stripe_of index)
//   core.timer_wheel       TimerWheel arm + cancel pairs
//   table.thread_registry  ThreadRegistry lease + release
//   table.lock_table       LockTable enter_hash/exit_hash, transactions
//   table.named_table      NamedLockTable session acquire + release
//   obs                    ObservedNamedLockTable, same loop
//   ipc                    ShmNamedLockTable stripe, registry beat, session
//                          passage, forged-death recover_dead() sweeps
#pragma once

#include <cstdint>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LadderOptions {
  std::uint32_t reps = 7;             ///< timed passes per row
  std::uint32_t recovery_rounds = 64; ///< simulated deaths for ipc rows
  std::uint32_t ops = kStreamOps;     ///< passages per pass
};

/// Appends every ladder metric to `out`; counts failed checks (a granted
/// attempt that had to abort, a recovery that did not repair exactly one
/// pid, a zombie) in `violations`.
void run_ladder(const WorkloadSpec& spec, const Streams& streams,
                const LadderOptions& options, MetricList& out,
                std::uint64_t& violations);

/// Cost of one steady_clock::now(), batch-timed.
double clock_read_ns(std::uint32_t reps);

}  // namespace perfbench
