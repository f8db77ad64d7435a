#include "replay.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "aml/model/counting_cc.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/table/lock_table.hpp"

namespace perfbench {
namespace {

using aml::model::CountingCcModel;
using aml::model::Pid;
using CountingTable = aml::table::LockTable<CountingCcModel>;

constexpr std::uint64_t kSchedulerSeed = 1;
/// Scheduler grants an attempt may stay pending before its signal goes up.
constexpr std::uint64_t kDeadlineSteps = 48;

aml::sched::StepScheduler::Config scheduler_config() {
  aml::sched::StepScheduler::Config cfg;
  cfg.seed = kSchedulerSeed;
  cfg.max_steps = 50'000'000;
  cfg.trace_label = "perfbench-replay";
  return cfg;
}

}  // namespace

ReplayCounts replay(const WorkloadSpec& spec, const Streams& streams,
                    std::uint32_t ops_per_worker,
                    std::uint32_t txns_per_worker) {
  const Pid n = spec.max_threads;
  CountingCcModel model(n);
  CountingTable table(model, {.max_threads = n, .stripes = spec.stripes});
  model.reset_counters();
  ReplayCounts counts;
  std::vector<ReplayCounts> per(kWorkers);

  // Single-key passages, in the workload's call style.
  const bool timed = spec.call == Call::kTimed;
  auto stop = std::make_unique<std::atomic<bool>[]>(kWorkers);
  auto active = std::make_unique<std::atomic<std::uint64_t>[]>(kWorkers);
  std::vector<std::uint64_t> seen(kWorkers, 0), started(kWorkers, 0);
  {
    aml::sched::StepScheduler scheduler(n, scheduler_config());
    if (timed) {
      // Runs on the scheduler thread while every worker is parked.
      scheduler.set_step_callback([&](std::uint64_t step) {
        for (std::uint32_t p = 0; p < kWorkers; ++p) {
          const std::uint64_t a = active[p].load(std::memory_order_acquire);
          if (a == 0) continue;
          if (a != seen[p]) {
            seen[p] = a;
            started[p] = step;
          } else if (step - started[p] >= kDeadlineSteps) {
            stop[p].store(true, std::memory_order_release);
          }
        }
      });
    }
    model.set_hook(&scheduler);
    const auto run = scheduler.run([&](Pid p) {
      if (p >= kWorkers) return;
      auto& c = model.counters(p);
      for (std::uint32_t i = 0; i < ops_per_worker; ++i) {
        const std::uint64_t h = CountingTable::hash_of(streams.keys[p][i]);
        const std::uint64_t r0 = c.rmrs;
        bool ok = true;
        if (timed) {
          stop[p].store(false, std::memory_order_release);
          active[p].store(i + 1, std::memory_order_release);
          ok = table.enter_hash(p, h, &stop[p]);
          active[p].store(0, std::memory_order_release);
        } else {
          table.enter_hash(p, h);
        }
        if (ok) {
          table.exit_hash(p, h);
          per[p].passages++;
          per[p].passage_rmrs += c.rmrs - r0;
        } else {
          per[p].aborts++;
          per[p].abort_rmrs += c.rmrs - r0;
        }
      }
    });
    model.set_hook(nullptr);
    counts.steps += run.steps;
  }

  // Blocking transactions over 4-key sets.
  {
    aml::sched::StepScheduler scheduler(n, scheduler_config());
    model.set_hook(&scheduler);
    const auto run = scheduler.run([&](Pid p) {
      if (p >= kWorkers) return;
      auto& c = model.counters(p);
      const auto& keys = streams.keys[p];
      for (std::uint32_t i = 0; i < txns_per_worker; ++i) {
        std::vector<std::uint64_t> group;
        if (spec.call == Call::kTxn) {
          group = streams.txns[p][i];
        } else {
          group.assign(keys.begin() + 4 * i, keys.begin() + 4 * i + 4);
        }
        const std::vector<std::uint64_t> hashes = table.plan_hashes(group);
        const std::uint64_t r0 = c.rmrs;
        table.enter_hashes(p, hashes);
        table.exit_hashes(p, hashes);
        per[p].txns++;
        per[p].txn_rmrs += c.rmrs - r0;
      }
    });
    model.set_hook(nullptr);
    counts.steps += run.steps;
  }

  for (const ReplayCounts& c : per) {
    counts.passages += c.passages;
    counts.passage_rmrs += c.passage_rmrs;
    counts.aborts += c.aborts;
    counts.abort_rmrs += c.abort_rmrs;
    counts.txns += c.txns;
    counts.txn_rmrs += c.txn_rmrs;
  }
  return counts;
}

}  // namespace perfbench
