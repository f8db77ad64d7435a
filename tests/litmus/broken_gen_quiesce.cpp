// Negative control for the table.gen_quiesce litmus test: the lock table's
// generation pin with its seq_cst cell store demoted to release. Pinning is
// a store-load Dekker against resize() (store current_, then scan the
// cells); a release store may still sit in the store buffer when the
// pinner rechecks current_, so the resizer can scan an empty cell while
// the pinner keeps its stale generation: a lost pin, and the generation
// retires under a live passage. This program runs the shape until it sees
// one and exits 1, so its ctest entry is WILL_FAIL. If it ever stops
// firing, the positive test's zero (LitmusTableGenQuiesce) no longer shows
// that the seq_cst store is what forbids the outcome.
//
// The outcome is a hardware reordering, so this binary is built without
// sanitizer instrumentation: ThreadSanitizer's runtime fences its atomic
// operations and would hide the store buffer.
#include <chrono>
#include <cstdio>

#include "gen_quiesce_shape.hpp"

int main() {
  using namespace std::chrono_literals;
  const aml::litmus::GenQuiesceRun run =
      aml::litmus::run_gen_quiesce<std::memory_order_release>(
          50'000'000, 60s, /*stop_at_loss=*/true);
  std::printf(
      "broken_gen_quiesce: %llu lost pins in %llu rounds (%llu kept the old "
      "generation)\n",
      static_cast<unsigned long long>(run.lost),
      static_cast<unsigned long long>(run.rounds),
      static_cast<unsigned long long>(run.pinned_old));
  return run.lost > 0 ? 1 : 0;
}
