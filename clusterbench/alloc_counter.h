#ifndef TPART_CLUSTERBENCH_ALLOC_COUNTER_H_
#define TPART_CLUSTERBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace tpart::clusterbench {

/// True only in the traced driver, which links alloc_hook.cc: a global
/// operator new that counts calls and bytes while counting is on. The
/// end-to-end driver links alloc_stub.cc and keeps the default allocator.
bool AllocCountingLinked();

/// Starts or stops counting. Counts accumulate across on-periods.
void SetAllocCounting(bool on);

std::uint64_t AllocCalls();
std::uint64_t AllocBytes();

}  // namespace tpart::clusterbench

#endif  // TPART_CLUSTERBENCH_ALLOC_COUNTER_H_
