#include "workloads.hpp"

#include <memory>

#include "aml/pal/rng.hpp"

namespace perfbench {

using namespace std::chrono_literals;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Default TableConfig, blocking acquire on uniform keys from 2^20:
      // almost no contention, so the per-passage fast path does the work.
      {"point-uniform", Service::kNamed, Call::kBlocking, 64, 32,
       std::uint64_t{1} << 20, 0.0, 1, 0ns, 0, 0},
      // 64 threads / 8 stripes, Zipf(0.99) over 1024 keys, deadline-bounded
      // attempts with a busy critical section: timer, abort path, hand-off.
      {"hot-deadline", Service::kNamed, Call::kTimed, 64, 8, 1024, 0.99, 1,
       2us, 128, 0},
      // Default TableConfig, blocking acquire_all over 4 uniform keys.
      {"txn-multikey", Service::kNamed, Call::kTxn, 64, 32,
       std::uint64_t{1} << 20, 0.0, 4, 0ns, 0, 0},
      // ShmNamedLockTable (8 nprocs, 64 stripes), 1 ms deadlines on uniform
      // keys, a simulated holder death every `recovery_every` ops.
      {"shm-service", Service::kShm, Call::kTimed, 8, 64,
       std::uint64_t{1} << 20, 0.0, 1, 1ms, 0, 4096},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Streams make_streams(const WorkloadSpec& spec, std::uint64_t seed) {
  Streams out;
  std::unique_ptr<aml::pal::ZipfDistribution> zipf;
  if (spec.zipf_theta > 0) {
    zipf = std::make_unique<aml::pal::ZipfDistribution>(spec.key_space,
                                                        spec.zipf_theta);
  }
  out.keys.resize(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    aml::pal::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + w + 1);
    auto& keys = out.keys[w];
    keys.resize(std::size_t{kStreamOps} * spec.keys_per_op);
    for (auto& k : keys) k = zipf ? (*zipf)(rng) : rng.below(spec.key_space);
  }
  if (spec.call == Call::kTxn) {
    out.txns.resize(kWorkers);
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      out.txns[w].resize(kStreamOps);
      for (std::uint32_t i = 0; i < kStreamOps; ++i) {
        const auto first =
            out.keys[w].begin() +
            static_cast<std::ptrdiff_t>(std::size_t{i} * spec.keys_per_op);
        out.txns[w][i].assign(first, first + spec.keys_per_op);
      }
    }
  }
  return out;
}

}  // namespace perfbench
