// amlint R5 fixture outside ipc/: shm-placed cells can live anywhere a
// segment layout is defined (the metrics sink's cells live in obs/), so R5
// is scoped by its AML_SHM_REGION markers, not by directory. The only
// violation here is a raw pointer between the markers in an obs/ path —
// no atomic op, no hot-path or model-gated directory, so no other rule
// can fire.
#pragma once

#include <atomic>
#include <cstdint>

namespace amlint_testdata {

// AML_SHM_REGION_BEGIN
struct BadCounterCell {
  std::atomic<std::uint64_t> count;  // fine: atomics place in shm
  std::uint64_t* overflow;           // VIOLATION: raw pointer member
};
// AML_SHM_REGION_END

}  // namespace amlint_testdata
