#include "ladder.hpp"

#include <unistd.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/model/native.hpp"
#include "aml/pal/cache.hpp"
#include "aml/table/lock_table.hpp"
#include "aml/table/named_table.hpp"
#include "aml/table/thread_registry.hpp"

namespace perfbench {
namespace {

using aml::model::NativeModel;
using NativeTable = aml::table::LockTable<NativeModel>;
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

/// One ladder row: a pass over the stream that runs `ops` operations.
struct Row {
  std::uint64_t ops;
  std::function<void()> pass;
};

/// One warm-up pass of every row, then `reps` rounds that each run every
/// row once, in order. Returns per-op nanoseconds, [row][round]: rows of
/// one round ran back to back, so their differences cancel slow drift.
std::vector<std::vector<double>> interleaved(std::uint32_t reps,
                                             const std::vector<Row>& rows) {
  for (const Row& row : rows) row.pass();
  std::vector<std::vector<double>> t(rows.size());
  for (std::uint32_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      rows[i].pass();
      t[i].push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(rows[i].ops));
    }
  }
  return t;
}

/// f applied to each round's row values (a vector indexed by row).
template <class F>
std::vector<double> combine(const std::vector<std::vector<double>>& t, F f) {
  std::vector<double> out;
  for (std::size_t r = 0; r < t[0].size(); ++r) {
    std::vector<double> round;
    for (const auto& row : t) round.push_back(row[r]);
    out.push_back(f(round));
  }
  return out;
}

/// Key sets for the transaction row: the workload's own for txn-multikey,
/// consecutive 4-key groups of the flat stream otherwise.
std::vector<std::vector<std::uint64_t>> txn_groups(const WorkloadSpec& spec,
                                                   const Streams& streams,
                                                   std::uint32_t ops) {
  if (spec.call == Call::kTxn) {
    return {streams.txns[0].begin(), streams.txns[0].begin() + ops};
  }
  std::vector<std::vector<std::uint64_t>> groups;
  const auto& keys = streams.keys[0];
  for (std::size_t i = 0; i + 4 <= keys.size() && groups.size() < ops / 4;
       i += 4) {
    groups.emplace_back(keys.begin() + static_cast<std::ptrdiff_t>(i),
                        keys.begin() + static_cast<std::ptrdiff_t>(i + 4));
  }
  return groups;
}

/// arm + cancel pairs from kWorkers threads at once; per-pair time seen by
/// one caller, median over passes.
double arm_cancel_ns(const WorkloadSpec& spec, const LadderOptions& options) {
  const auto budget = spec.call == Call::kTimed
                          ? spec.budget
                          : std::chrono::nanoseconds(std::chrono::milliseconds(1));
  const std::uint32_t pairs = options.ops / 4;
  aml::TimerWheel wheel;
  std::vector<double> samples;
  for (std::uint32_t r = 0; r <= options.reps; ++r) {
    std::atomic<std::uint32_t> ready{0};
    std::vector<double> per_thread(kWorkers);
    {
      std::vector<std::jthread> threads;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
          pin_to_cpu(w);
          aml::AbortSignal signal;
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (ready.load(std::memory_order_acquire) < kWorkers) {
          }
          const std::uint64_t t0 = now_ns();
          for (std::uint32_t i = 0; i < pairs; ++i) {
            const auto token =
                wheel.arm(signal, aml::TimerWheel::Clock::now() + budget);
            wheel.cancel(token);
          }
          per_thread[w] =
              static_cast<double>(now_ns() - t0) / static_cast<double>(pairs);
        });
      }
    }
    if (r > 0) samples.push_back(median(per_thread));  // pass 0 warms up
  }
  return median(std::move(samples));
}

}  // namespace

double clock_read_ns(std::uint32_t reps) {
  constexpr std::uint64_t kReads = 1u << 20;
  std::uint64_t acc = 0;
  const auto t = interleaved(reps, {{kReads, [&] {
                                       for (std::uint64_t i = 0; i < kReads;
                                            ++i) {
                                         acc += now_ns();
                                       }
                                     }}});
  keep(acc);
  return median(t[0]);
}

void run_ladder(const WorkloadSpec& spec, const Streams& streams,
                const LadderOptions& options, MetricList& out,
                std::uint64_t& violations) {
  const std::uint32_t n = spec.max_threads;
  const std::uint32_t ops = options.ops;
  const std::uint32_t reps = options.reps;
  const std::vector<std::uint64_t> keys(
      streams.keys[0].begin(), streams.keys[0].begin() + ops);
  const auto groups = txn_groups(spec, streams, ops);
  std::vector<std::uint32_t> stripe_of(ops);
  std::uint64_t acc = 0;

  const Row hash_row{ops, [&] {
                       for (const std::uint64_t k : keys) {
                         acc += NativeTable::hash_of(k);
                       }
                     }};

  auto model = std::make_unique<NativeModel>(n);
  auto table = std::make_unique<NativeTable>(
      *model, NativeTable::Config{.max_threads = n, .stripes = spec.stripes});
  const std::uint32_t stripes = table->stripe_count();
  const double words = static_cast<double>(model->words_allocated());
  out.add("model.words_per_stripe", words / stripes, "words");
  out.add("model.bytes_per_stripe",
          words * sizeof(NativeModel::Word) / stripes, "B");
  for (std::uint32_t i = 0; i < ops; ++i) {
    stripe_of[i] = table->stripe_of(keys[i]);
  }
  const Row table_row{ops, [&] {
                        for (const std::uint64_t k : keys) {
                          const std::uint64_t h = NativeTable::hash_of(k);
                          table->enter_hash(0, h);
                          table->exit_hash(0, h);
                        }
                      }};

  // Group 1: the core lock under the table. A plain passage; then hold (id
  // 1) + an attempt by id 0 whose signal is already up (it must abort) +
  // release; the std::mutex control; the table's single and multi-key paths.
  {
    std::vector<std::unique_ptr<aml::AbortableLock>> locks;
    for (std::uint32_t s = 0; s < stripes; ++s) {
      locks.push_back(std::make_unique<aml::AbortableLock>(
          aml::LockConfig{.max_threads = n}));
    }
    std::vector<aml::pal::CachePadded<std::mutex>> mutexes(stripes);
    aml::AbortSignal raised;
    raised.raise();
    const auto t = interleaved(
        reps,
        {hash_row,
         {ops,
          [&] {
            for (const std::uint32_t s : stripe_of) {
              locks[s]->enter(0);
              locks[s]->exit(0);
            }
          }},
         {ops,
          [&] {
            for (const std::uint32_t s : stripe_of) {
              locks[s]->enter(1);
              if (locks[s]->enter(0, raised)) {
                violations++;
                locks[s]->exit(0);
              }
              locks[s]->exit(1);
            }
          }},
         table_row,
         {groups.size(),
          [&] {
            for (const auto& group : groups) {
              const std::vector<std::uint64_t> hashes =
                  table->plan_hashes(group);
              table->enter_hashes(0, hashes);
              table->exit_hashes(0, hashes);
            }
          }},
         {ops, [&] {
            for (const std::uint32_t s : stripe_of) {
              mutexes[s].value.lock();
              mutexes[s].value.unlock();
            }
          }}});
    out.add("ref.std_mutex.passage_ns", median(t[5]), "ns");
    out.add("table.hash.key_ns", median(t[0]), "ns");
    out.add("core.abortable_lock.passage_ns", median(t[1]), "ns");
    out.add("core.abortable_lock.abort_ns",
            median(combine(t, [](auto r) { return r[2] - r[1]; })), "ns");
    out.add("table.lock_table.passage_ns", median(t[3]), "ns");
    out.add("table.lock_table.self_ns",
            median(combine(t, [](auto r) { return r[3] - r[1] - r[0]; })),
            "ns");
    out.add("table.lock_table.txn_ns", median(t[4]), "ns");
  }

  // Group 2: the named table over the lock table; group 3: its observed
  // flavour against it.
  const aml::table::TableConfig cfg{.max_threads = n, .stripes = spec.stripes};
  auto named = std::make_unique<aml::table::NamedLockTable>(cfg);
  const auto named_row = [&](auto& t) {
    auto session = std::make_shared<decltype(t.open_session())>(
        t.open_session());
    return Row{ops, [&, session] {
                 for (const std::uint64_t k : keys) {
                   auto guard = session->acquire(k);
                   acc += guard.stripe();
                 }
               }};
  };
  {
    const auto t = interleaved(reps, {table_row, named_row(*named)});
    out.add("table.named_table.passage_ns", median(t[1]), "ns");
    out.add("table.named_table.self_ns",
            median(combine(t, [](auto r) { return r[1] - r[0]; })), "ns");
  }
  table.reset();
  model.reset();
  {
    aml::table::ObservedNamedLockTable observed(cfg);
    const auto t =
        interleaved(reps, {named_row(*named), named_row(observed)});
    out.add("obs.observed_passage_ns", median(t[1]), "ns");
    out.add("obs.overhead_ratio",
            median(combine(t, [](auto r) { return r[1] / r[0]; })), "ratio");
  }
  named.reset();

  {
    aml::table::ThreadRegistry registry(n);
    const auto t = interleaved(reps, {{ops, [&] {
                                         for (std::uint32_t i = 0; i < ops;
                                              ++i) {
                                           auto lease = registry.acquire();
                                           acc += lease.id();
                                         }
                                       }}});
    out.add("table.thread_registry.lease_ns", median(t[0]), "ns");
  }

  out.add("core.timer_wheel.arm_cancel_ns", arm_cancel_ns(spec, options),
          "ns");

  // Group 4: the shm service, its stripe lock and the registry heartbeat;
  // then forged deaths, each swept by recover_dead().
  std::vector<double> sweep_us;
  std::uint64_t forced_exits = 0, zombies = 0;
  double shm_lock_ns = 0, beat_ns = 0, shm_table_ns = 0, shm_self_ns = 0;
  {
    const std::string name =
        "/aml-perfbench-ladder-" + std::to_string(::getpid());
    aml::ipc::ShmTableConfig shm_cfg;
    shm_cfg.nprocs = n;
    shm_cfg.stripes = stripes;
    std::string error;
    auto shm = aml::ipc::ShmNamedLockTable::create(name, shm_cfg, &error);
    aml::ipc::ShmNamedLockTable::unlink(name);
    auto session = shm ? shm->open_session() : std::nullopt;
    if (!session.has_value()) {
      violations++;
    } else {
      const aml::model::Pid pid = session->id();
      const auto t = interleaved(
          reps,
          {hash_row,
           {ops,
            [&] {
              for (const std::uint32_t s : stripe_of) {
                shm->stripe(s).enter(pid, nullptr);
                shm->stripe(s).exit(pid);
              }
            }},
           {ops,
            [&] {
              for (std::uint32_t i = 0; i < ops; ++i) shm->registry().beat(pid);
            }},
           {ops, [&] {
              for (const std::uint64_t k : keys) {
                auto guard = session->acquire(k);
                acc += guard.stripe();
              }
            }}});
      shm_lock_ns = median(t[1]);
      beat_ns = median(t[2]);
      shm_table_ns = median(t[3]);
      shm_self_ns = median(
          combine(t, [](auto r) { return r[3] - r[1] - 2 * r[2] - r[0]; }));
      for (std::uint32_t r = 0; r < options.recovery_rounds; ++r) {
        const std::uint64_t key = keys[r % ops];
        auto victim = shm->open_session();
        if (!victim.has_value() ||
            !shm->stripe(shm->stripe_of(key))
                 .enter(victim->id(), nullptr)
                 .acquired) {
          violations++;
          continue;
        }
        shm->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
        const std::uint64_t t0 = now_ns();
        const std::uint32_t recovered = session->recover_dead();
        sweep_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
        auto guard = session->try_acquire_for(key, std::chrono::seconds(1));
        if (recovered != 1 || !guard.has_value()) violations++;
      }
      forced_exits = shm->recovery_stats().forced_exits;
      zombies = shm->recovery_stats().zombie_pids;
      if (forced_exits != options.recovery_rounds || zombies != 0) {
        violations++;
      }
    }
  }
  keep(acc);

  out.add("ipc.shm_lock.passage_ns", shm_lock_ns, "ns");
  out.add("ipc.process_registry.beat_ns", beat_ns, "ns");
  out.add("ipc.shm_table.passage_ns", shm_table_ns, "ns");
  out.add("ipc.shm_table.self_ns", shm_self_ns, "ns");
  out.add("ipc.shm_table.recover_dead_us", median(sweep_us), "us",
          sweep_us.size());
  out.add("ipc.recovery.forced_exits", static_cast<double>(forced_exits),
          "count");
  out.add("ipc.zombie_pids", static_cast<double>(zombies), "count");
}

}  // namespace perfbench
