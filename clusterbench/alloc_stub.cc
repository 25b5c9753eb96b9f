// End-to-end driver: no allocation hook, the default operator new.

#include "alloc_counter.h"

namespace tpart::clusterbench {

bool AllocCountingLinked() { return false; }
void SetAllocCounting(bool) {}
std::uint64_t AllocCalls() { return 0; }
std::uint64_t AllocBytes() { return 0; }

}  // namespace tpart::clusterbench
