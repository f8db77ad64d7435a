#include "service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>

#include "aml/ipc/shm_table.hpp"
#include "aml/pal/cache.hpp"
#include "aml/table/named_table.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using aml::ipc::ShmNamedLockTable;
using aml::table::NamedLockTable;

constexpr std::uint32_t kBatch = 64;  ///< ops between progress publications
constexpr std::uint32_t kSampleEvery = 64;  ///< 1-in-k ops are timed
constexpr std::size_t kLatencyCap = std::size_t{1} << 20;  ///< per worker
constexpr std::size_t kSpanRing = std::size_t{1} << 12;    ///< per worker
/// A pid no live process can have (pid_max is far below 2^31 - 1), so the
/// registry sees ESRCH: the forged-death method of bench_ipc_recovery.
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

struct NamedTraits {
  using Table = NamedLockTable;
  using Session = Table::Session;
  static constexpr bool kTxn = true;
  static constexpr bool kShm = false;

  static std::unique_ptr<Table> make(const WorkloadSpec& spec, std::string*) {
    return std::make_unique<Table>(aml::table::TableConfig{
        .max_threads = spec.max_threads, .stripes = spec.stripes});
  }
};

struct ShmTraits {
  using Table = ShmNamedLockTable;
  using Session = Table::Session;
  static constexpr bool kTxn = false;
  static constexpr bool kShm = true;

  static std::unique_ptr<Table> make(const WorkloadSpec& spec,
                                     std::string* error) {
    static std::atomic<std::uint32_t> serial{0};
    const std::string name = "/aml-perfbench-" + std::to_string(::getpid()) +
                             "-" + std::to_string(serial.fetch_add(1));
    aml::ipc::ShmTableConfig cfg;
    cfg.nprocs = spec.max_threads;
    cfg.stripes = spec.stripes;
    auto table = Table::create(name, cfg, error);
    // Nothing attaches by name, so the name goes at once: the mapping lives
    // on, and no segment outlives the process even if it dies.
    Table::unlink(name);
    return table;
  }
};

struct alignas(aml::pal::kCacheLine) Progress {
  std::atomic<std::uint64_t> ops{0};
};

struct LatencySample {
  std::uint32_t round;
  std::uint32_t ns;  ///< saturates at ~4.3 s
};

// Cache-line aligned: workers bump these fields on every op.
struct alignas(aml::pal::kCacheLine) WorkerOut {
  std::vector<LatencySample> latency;
  std::vector<std::uint64_t> recovery;
  std::vector<std::uint64_t> grants;  ///< per stripe
  std::vector<Span> spans;
  std::uint64_t ops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t violations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t sink = 0;
};

template <class Traits>
class Run final : public ServiceRun {
 public:
  using Table = typename Traits::Table;
  using Session = typename Traits::Session;

  Run(const WorkloadSpec& spec, std::unique_ptr<Table> table)
      : spec_(spec), table_(std::move(table)),
        counters_(table_->stripe_count()),
        grants_(table_->stripe_count(), 0) {
    sessions_.reserve(kWorkers);
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      sessions_.push_back(table_->open_session());
    }
  }

  bool sessions_ok() const {
    for (const auto& s : sessions_) {
      if (!s.has_value()) return false;
    }
    return true;
  }

  PhaseResult run_phase(const Streams& streams,
                        const PhaseOptions& options) override {
    std::vector<WorkerOut> outs(kWorkers);
    std::vector<Progress> progress(kWorkers);
    phase_.store(kWarmup, std::memory_order_release);
    round_.store(0, std::memory_order_relaxed);
    PhaseResult result;
    {
      std::vector<std::jthread> threads;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
          dispatch(w, streams, options, progress[w], outs[w]);
        });
      }
      sleep_s(options.warmup_s);
      phase_.store(kMeasure, std::memory_order_release);
      const double round_s =
          options.measure_s / std::max<std::uint32_t>(1, options.rounds);
      for (std::uint32_t r = 0; r < options.rounds; ++r) {
        round_.store(r, std::memory_order_relaxed);
        const auto t0 = Clock::now();
        const std::uint64_t ops0 = total_ops(progress);
        sleep_s(round_s);
        const std::uint64_t ops1 = total_ops(progress);
        const double dt = seconds_since(t0);
        result.round_ops_s.push_back(static_cast<double>(ops1 - ops0) / dt);
      }
      phase_.store(kStop, std::memory_order_release);
    }  // jthreads join here
    result.throughput = median(result.round_ops_s);
    result.latency_ns.resize(std::max<std::uint32_t>(1, options.rounds));
    std::uint64_t sink = 0;
    for (WorkerOut& o : outs) {
      result.attempts += o.ops + o.recoveries;
      result.timeouts += o.timeouts;
      result.violations += o.violations;
      for (const LatencySample& l : o.latency) {
        result.latency_ns[l.round].push_back(l.ns);
      }
      result.recovery_ns.insert(result.recovery_ns.end(), o.recovery.begin(),
                                o.recovery.end());
      result.spans.insert(result.spans.end(), o.spans.begin(), o.spans.end());
      sink ^= o.sink;
      for (std::size_t s = 0; s < grants_.size(); ++s) {
        grants_[s] += o.grants[s];
      }
    }
    keep(sink);
    result.violations += check_exclusion();
    return result;
  }

  std::optional<StripeSummary> stripe_summary() const override {
    if constexpr (Traits::kShm) {
      return std::nullopt;
    } else {
      StripeSummary out;
      std::uint64_t acquisitions = 0, aborts = 0;
      for (std::uint32_t s = 0; s < table_->stripe_count(); ++s) {
        const auto view = table_->stripe_stats(s);
        acquisitions += view.acquisitions;
        aborts += view.aborts;
      }
      const std::uint64_t attempts = acquisitions + aborts;
      out.abort_ratio = attempts == 0 ? 0.0
                                      : static_cast<double>(aborts) /
                                            static_cast<double>(attempts);
      out.peak_inflight = table_->peak_inflight();
      return out;
    }
  }

  std::uint64_t zombie_pids() const override {
    if constexpr (Traits::kShm) {
      return table_->recovery_stats().zombie_pids;
    } else {
      return 0;
    }
  }

 private:
  static void sleep_s(double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }

  static std::uint64_t total_ops(const std::vector<Progress>& progress) {
    std::uint64_t total = 0;
    for (const Progress& p : progress) {
      total += p.ops.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Σ|counter - grants| per stripe, then resynchronise so a later phase
  /// starts from a clean slate. Runs with every worker joined, after their
  /// grants were folded into grants_.
  std::uint64_t check_exclusion() {
    std::uint64_t violations = 0;
    for (std::size_t s = 0; s < counters_.size(); ++s) {
      const std::uint64_t granted = grants_[s];
      const std::uint64_t seen = counters_[s].value;
      violations += seen > granted ? seen - granted : granted - seen;
      counters_[s].value = granted;
    }
    return violations;
  }

  void dispatch(std::uint32_t w, const Streams& streams,
                const PhaseOptions& options, Progress& progress,
                WorkerOut& out) {
    pin_to_cpu(w);
    // Allocated by the worker itself, away from the other workers' lines.
    out.grants.assign(grants_.size(), 0);
    out.latency.reserve(kLatencyCap);
    if (options.trace) out.spans.resize(kSpanRing);
    switch (spec_.call) {
      case Call::kBlocking:
        loop<Call::kBlocking>(w, streams, options, progress, out);
        break;
      case Call::kTimed:
        loop<Call::kTimed>(w, streams, options, progress, out);
        break;
      case Call::kTxn:
        if constexpr (Traits::kTxn) {
          loop<Call::kTxn>(w, streams, options, progress, out);
        }
        break;
    }
    if (options.trace) {
      // Keep the ring's valid spans, oldest first.
      std::vector<Span> ordered;
      const std::uint64_t n = std::min<std::uint64_t>(out.ops, kSpanRing);
      for (std::uint64_t i = out.ops - n; i < out.ops; ++i) {
        ordered.push_back(out.spans[i % kSpanRing]);
      }
      out.spans = std::move(ordered);
    }
  }

  /// The critical section: read the stripe counter, do the workload's busy
  /// work, write the counter back. An overlapping holder loses an update.
  void critical_section(std::uint32_t stripe, WorkerOut& out) {
    std::uint64_t& counter = counters_[stripe].value;
    const std::uint64_t seen = counter;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (spec_.cs_iters != 0) out.sink ^= busy_work(seen, spec_.cs_iters);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    counter = seen + 1;
    out.grants[stripe]++;
  }

  template <Call C>
  void loop(std::uint32_t w, const Streams& streams,
            const PhaseOptions& options, Progress& progress, WorkerOut& out) {
    Session& session = *sessions_[w];
    const std::vector<std::uint64_t>& keys = streams.keys[w];
    std::uint64_t op = 0;
    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase == kStop) break;
      const bool measuring = phase == kMeasure;
      for (std::uint32_t b = 0; b < kBatch; ++b, ++op) {
        const std::uint32_t idx =
            static_cast<std::uint32_t>(op) & (kStreamOps - 1);
        const bool sample = measuring && op % kSampleEvery == 0 &&
                            out.latency.size() < kLatencyCap;
        const bool timed = sample || options.trace;
        Span span;
        if (timed) span.t_call = now_ns();
        if constexpr (C == Call::kBlocking) {
          auto guard = session.acquire(keys[idx]);
          if (timed) span.t_granted = now_ns();
          critical_section(guard.stripe(), out);
          span.granted = true;
          if (options.trace) span.t_cs_done = now_ns();
        } else if constexpr (C == Call::kTimed) {
          auto guard = session.try_acquire_for(keys[idx], spec_.budget);
          if (timed) span.t_granted = now_ns();
          if (guard) {
            critical_section(guard->stripe(), out);
            span.granted = true;
          } else {
            out.timeouts++;
          }
          if (options.trace) span.t_cs_done = now_ns();
        } else {
          auto guard = session.acquire_all(streams.txns[w][idx]);
          if (timed) span.t_granted = now_ns();
          for (const std::uint32_t s : guard.stripes()) {
            critical_section(s, out);
          }
          span.granted = true;
          if (options.trace) span.t_cs_done = now_ns();
        }
        // The guard is released at the end of each branch above.
        if (options.trace) {
          span.t_released = now_ns();
          span.worker = w;
          span.op = op;
          out.spans[op % kSpanRing] = span;
        }
        if (sample) {
          out.latency.push_back(
              {round_.load(std::memory_order_relaxed),
               static_cast<std::uint32_t>(std::min<std::uint64_t>(
                   span.t_granted - span.t_call, UINT32_MAX))});
        }
      }
      out.ops = op;
      progress.ops.store(op, std::memory_order_relaxed);
      if constexpr (Traits::kShm) {
        if (w == 0 && spec_.recovery_every != 0 &&
            op % spec_.recovery_every == 0) {
          simulate_death(keys[op & (kStreamOps - 1)], out);
        }
      }
    }
  }

  /// A session dies holding `key`'s stripe (forged ESRCH pid); worker 0's
  /// session recovers it and reacquires the key. Timed from the start of
  /// recover_dead() until the survivor holds the key.
  void simulate_death(std::uint64_t key, WorkerOut& out) {
    if constexpr (Traits::kShm) {
      auto victim = table_->open_session();
      if (!victim.has_value()) {
        out.violations++;
        return;
      }
      const std::uint32_t s = table_->stripe_of(key);
      if (!table_->stripe(s).enter(victim->id(), nullptr).acquired) {
        out.violations++;
        return;
      }
      table_->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
      const std::uint64_t forced_before =
          table_->recovery_stats().forced_exits;
      const std::uint64_t t0 = now_ns();
      const std::uint32_t recovered = sessions_[0]->recover_dead();
      auto guard = sessions_[0]->try_acquire_for(key, std::chrono::seconds(1));
      const std::uint64_t t1 = now_ns();
      out.recoveries++;
      if (recovered != 1 || !guard.has_value() ||
          table_->recovery_stats().forced_exits != forced_before + 1) {
        out.violations++;
        return;
      }
      critical_section(guard->stripe(), out);
      out.recovery.push_back(t1 - t0);
    }
  }

  const WorkloadSpec spec_;
  std::unique_ptr<Table> table_;
  std::vector<std::optional<Session>> sessions_;
  std::vector<aml::pal::CachePadded<std::uint64_t>> counters_;
  std::vector<std::uint64_t> grants_;  ///< per stripe, every phase so far
  std::atomic<int> phase_{kWarmup};
  std::atomic<std::uint32_t> round_{0};  ///< measurement round under way
};

template <class Traits>
std::unique_ptr<ServiceRun> make_run(const WorkloadSpec& spec,
                                     std::string* error) {
  auto table = Traits::make(spec, error);
  if (table == nullptr) return nullptr;
  auto run = std::make_unique<Run<Traits>>(spec, std::move(table));
  if (!run->sessions_ok()) {
    if (error != nullptr) *error = "could not open a session per worker";
    return nullptr;
  }
  return run;
}

}  // namespace

std::unique_ptr<ServiceRun> make_service(const WorkloadSpec& spec,
                                         std::string* error) {
  if (spec.service == Service::kShm) return make_run<ShmTraits>(spec, error);
  return make_run<NamedTraits>(spec, error);
}

std::unique_ptr<ServiceRun> make_named_service(const WorkloadSpec& spec) {
  return make_run<NamedTraits>(spec, nullptr);
}

}  // namespace perfbench
