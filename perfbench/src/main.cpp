// perfbench_lockservice: one workload of the lock-service benchmark.
//
//   perfbench_lockservice --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> [--short] [--git-rev <rev>]
//                         [--trace-dir <dir>]
//
// --trace 0 times the workload end to end (set-up, closed-loop throughput,
// sampled acquire latency, memory). --trace 1 runs it untraced and traced
// (per-op spans) for the tracing overhead, then the per-layer ladder and the
// counting-model replay. Either way stdout ends with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// preceded by a {"perfbench_report": ..} line that carries host and build
// metadata and every metric with its sample count. run.py builds and runs
// this binary; see perfbench/README.md.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ladder.hpp"
#include "replay.hpp"
#include "service.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// The metrics the final line carries, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "throughput_ops_s", "acquire_p50_ns", "acquire_p99_ns", "setup_s",
    "rss_mb"};
const std::vector<std::string> kPerLayer = {
    "harness.clock_read_ns",
    "trace_overhead",
    "failed_share",
    "ref.std_mutex.passage_ns",
    "table.hash.key_ns",
    "core.abortable_lock.passage_ns",
    "core.abortable_lock.abort_ns",
    "core.longlived.rmr_per_passage",
    "core.longlived.rmr_per_abort",
    "core.ns_per_rmr",
    "core.timer_wheel.arm_cancel_ns",
    "table.thread_registry.lease_ns",
    "table.lock_table.passage_ns",
    "table.lock_table.self_ns",
    "table.lock_table.txn_ns",
    "table.lock_table.rmr_per_txn",
    "table.lock_table.abort_ratio",
    "table.lock_table.peak_inflight",
    "table.named_table.passage_ns",
    "table.named_table.self_ns",
    "model.words_per_stripe",
    "model.bytes_per_stripe",
    "obs.observed_passage_ns",
    "obs.overhead_ratio",
    "ipc.shm_lock.passage_ns",
    "ipc.process_registry.beat_ns",
    "ipc.shm_table.passage_ns",
    "ipc.shm_table.self_ns",
    "ipc.shm_table.recover_dead_us",
    "ipc.recovery.forced_exits",
    "ipc.zombie_pids"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string git_rev = "unknown";
  std::string trace_dir;
};

bool parse(int argc, char** argv, Options* o, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--short") {
      o->short_mode = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      *error = "missing value for " + std::string(arg);
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      o->trace = std::string_view(v) == "1";
    } else if (arg == "--git-rev") {
      o->git_rev = v;
    } else if (arg == "--trace-dir") {
      o->trace_dir = v;
    } else {
      *error = "unknown argument " + std::string(arg);
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + std::string(arg) + ": " + v;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (!(o->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string metadata(const Options& o) {
  std::ostringstream s;
  s << "{\"cpu_model\": " << json_string(cpu_model())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"usable_cpus\": " << usable_cpus()
#ifdef __clang__
    << ", \"compiler\": " << json_string(__VERSION__)
#else
    << ", \"compiler\": " << json_string(std::string("gcc ") + __VERSION__)
#endif
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
    << ", \"aml_dassert\": false"
#else
    << ", \"aml_dassert\": true"
#endif
    << ", \"git_rev\": " << json_string(o.git_rev)
    << ", \"seed\": " << o.seed << ", \"workload\": "
    << json_string(o.workload) << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"seconds\": " << json_number(o.seconds)
    << ", \"short\": " << (o.short_mode ? "true" : "false") << "}";
  return s.str();
}

void print_result(const Options& o, const MetricList& all,
                  const std::vector<std::string>& names, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  std::ostringstream report;
  report << "{\"perfbench_report\": {\"meta\": " << metadata(o)
         << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : all.items()) {
    report << (first ? "" : ", ") << json_string(m.name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit)
           << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  report << "}}}";
  std::cout << report.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  first = true;
  for (const std::string& name : names) {
    const Metric* m = all.find(name);
    line << (first ? "" : ", ") << json_string(name)
         << ": {\"value\": " << json_number(m->value)
         << ", \"unit\": " << json_string(m->unit) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

void write_spans(const Options& o, const std::vector<Span>& spans) {
  if (o.trace_dir.empty() || spans.empty()) return;
  const std::string path = o.trace_dir + "/" + o.workload + ".trace.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  const std::uint64_t base = spans.front().t_call;
  const auto us = [base](std::uint64_t t) {
    return json_number(static_cast<double>(t - base) / 1000.0);
  };
  out << "{\"traceEvents\": [";
  bool first = true;
  const auto event = [&](const char* name, const Span& s, std::uint64_t t0,
                         std::uint64_t t1) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.worker
        << ", \"ts\": " << us(t0) << ", \"dur\": "
        << json_number(static_cast<double>(t1 - t0) / 1000.0)
        << ", \"args\": {\"op\": " << s.op
        << ", \"granted\": " << (s.granted ? "true" : "false") << "}}";
    first = false;
  };
  for (const Span& s : spans) {
    if (s.t_call < base) continue;
    event("acquire", s, s.t_call, s.t_granted);
    event("critical_section", s, s.t_granted, s.t_cs_done);
    event("release", s, s.t_cs_done, s.t_released);
  }
  out << "]}\n";
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Percentile q of each measurement round's samples, median over rounds:
/// a stall burst confined to a few rounds moves it no more than it moves
/// the round-median throughput.
double round_percentile(std::vector<std::vector<std::uint64_t>>& rounds,
                        double q) {
  std::vector<double> per_round;
  for (auto& round : rounds) {
    if (!round.empty()) {
      per_round.push_back(static_cast<double>(percentile(round, q)));
    }
  }
  return median(std::move(per_round));
}

int run_end_to_end(const Options& o, const WorkloadSpec& spec,
                   const Streams& streams) {
  // Set up repeatedly and keep the last instance: at least kMinSetups
  // times and for kSetupSeconds in total, so that small set-ups get a
  // median over many samples.
  constexpr std::size_t kMinSetups = 5, kMaxSetups = 50;
  constexpr double kSetupSeconds = 0.5;
  std::vector<double> setup;
  double setup_total = 0;
  std::unique_ptr<ServiceRun> service;
  while (setup.size() < (o.short_mode ? 2 : kMinSetups) ||
         (!o.short_mode && setup_total < kSetupSeconds &&
          setup.size() < kMaxSetups)) {
    service.reset();
    // Hand freed memory back to the kernel, so every set-up pays for fresh
    // pages as a process's first one does, not for a warm heap.
    ::malloc_trim(0);
    const auto t0 = Clock::now();
    std::string error;
    service = make_service(spec, &error);
    setup.push_back(seconds_since(t0));
    setup_total += setup.back();
    if (service == nullptr) {
      std::cerr << "perfbench: set-up failed: " << error << "\n";
      return 1;
    }
  }
  const double rss = rss_mb();

  PhaseOptions phase;
  phase.warmup_s = o.short_mode ? 0.2 : 1.0;
  phase.measure_s = o.seconds;
  phase.rounds = static_cast<std::uint32_t>(
      std::clamp(o.seconds, 3.0, 30.0));
  PhaseResult r = service->run_phase(streams, phase);
  const std::uint64_t zombies = service->zombie_pids();
  service.reset();

  const std::uint64_t failed = r.violations + zombies;
  std::uint64_t samples = 0;
  for (const auto& round : r.latency_ns) samples += round.size();
  MetricList m;
  m.add("throughput_ops_s", r.throughput, "ops/s", r.round_ops_s.size());
  m.add("acquire_p50_ns", round_percentile(r.latency_ns, 50), "ns", samples);
  m.add("acquire_p99_ns", round_percentile(r.latency_ns, 99), "ns", samples);
  m.add("setup_s", median(setup), "s", setup.size());
  m.add("rss_mb", rss, "MB");
  m.add("failed_share", share(r.timeouts + failed, r.attempts), "ratio",
        r.attempts);
  m.add("timeouts", static_cast<double>(r.timeouts), "count");
  if (spec.service == Service::kShm) {
    std::vector<double> us;
    for (const std::uint64_t ns : r.recovery_ns) us.push_back(ns / 1000.0);
    m.add("recovery_us", median(us), "us", us.size());
    m.add("ipc.zombie_pids", static_cast<double>(zombies), "count");
  }
  const bool correct = failed == 0 && samples > 0 &&
                       (spec.service != Service::kShm || !r.recovery_ns.empty());
  print_result(o, m, kEndToEnd, correct, r.attempts, failed);
  return 0;
}

int run_traced(const Options& o, const WorkloadSpec& spec,
               const Streams& streams) {
  std::string error;
  auto service = make_service(spec, &error);
  if (service == nullptr) {
    std::cerr << "perfbench: set-up failed: " << error << "\n";
    return 1;
  }
  const double window = o.seconds * 0.25;
  PhaseOptions untraced;
  untraced.warmup_s = o.short_mode ? 0.1 : 0.5;
  untraced.measure_s = window;
  untraced.rounds = 3;
  PhaseOptions traced = untraced;
  traced.warmup_s = 0.05;
  traced.trace = true;
  const PhaseResult a = service->run_phase(streams, untraced);
  const PhaseResult b = service->run_phase(streams, traced);
  std::uint64_t violations = a.violations + b.violations +
                             service->zombie_pids();
  write_spans(o, b.spans);

  std::optional<StripeSummary> stripes = service->stripe_summary();
  service.reset();
  if (!stripes.has_value()) {
    // shm-service has no StripeStatsView: probe an in-process table of the
    // same sizing with the same call style.
    auto probe = make_named_service(spec);
    PhaseOptions p;
    p.warmup_s = 0.05;
    p.measure_s = o.seconds * 0.05;
    p.rounds = 1;
    violations += probe->run_phase(streams, p).violations;
    stripes = probe->stripe_summary();
  }

  MetricList m;
  m.add("harness.clock_read_ns", clock_read_ns(o.short_mode ? 3 : 7), "ns");
  m.add("trace_overhead", b.throughput > 0 ? a.throughput / b.throughput - 1
                                           : 0,
        "ratio", a.round_ops_s.size() + b.round_ops_s.size());
  m.add("failed_share", share(a.timeouts + a.violations, a.attempts), "ratio",
        a.attempts);

  LadderOptions ladder;
  if (o.short_mode) {
    ladder.reps = 3;
    ladder.recovery_rounds = 8;
    ladder.ops = kStreamOps / 16;
  }
  run_ladder(spec, streams, ladder, m, violations);

  const std::uint32_t replay_ops = o.short_mode ? 16 : 64;
  const std::uint32_t replay_txns = o.short_mode ? 4 : 16;
  const ReplayCounts rc = replay(spec, streams, replay_ops, replay_txns);
  if (!(replay(spec, streams, replay_ops, replay_txns) == rc)) {
    std::cerr << "perfbench: counting-model replay did not repeat exactly\n";
    violations++;
  }
  const double rmr_passage = share(rc.passage_rmrs, rc.passages);
  m.add("core.longlived.rmr_per_passage", rmr_passage, "rmr", rc.passages);
  m.add("core.longlived.rmr_per_abort", share(rc.abort_rmrs, rc.aborts), "rmr",
        rc.aborts);
  const Metric* lock_ns = m.find("core.abortable_lock.passage_ns");
  m.add("core.ns_per_rmr", rmr_passage > 0 ? lock_ns->value / rmr_passage : 0,
        "ns");
  m.add("table.lock_table.rmr_per_txn", share(rc.txn_rmrs, rc.txns), "rmr",
        rc.txns);
  m.add("table.lock_table.abort_ratio", stripes->abort_ratio, "ratio");
  m.add("table.lock_table.peak_inflight", stripes->peak_inflight, "count");
  m.add("replay.steps", static_cast<double>(rc.steps), "count");

  for (const std::string& name : kPerLayer) {
    if (m.find(name) == nullptr) {
      std::cerr << "perfbench: metric " << name << " was not produced\n";
      return 1;
    }
  }
  const std::uint64_t attempted = a.attempts + b.attempts;
  print_result(o, m, kPerLayer, violations == 0, attempted, violations);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string error;
  if (!parse(argc, argv, &o, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const WorkloadSpec* spec = find_workload(o.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload " << o.workload << "\n";
    return 2;
  }
  const Streams streams = make_streams(*spec, o.seed);
  // Workers take CPUs 0..kWorkers-1; this thread, and with it every thread
  // a service spawns (the TimerWheel), stays on the next one.
  pin_to_cpu(kWorkers);
  return o.trace ? run_traced(o, *spec, streams)
                 : run_end_to_end(o, *spec, streams);
}
