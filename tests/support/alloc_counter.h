#ifndef FEDREC_TESTS_SUPPORT_ALLOC_COUNTER_H_
#define FEDREC_TESTS_SUPPORT_ALLOC_COUNTER_H_

#include <cstdint>

/// \file
/// Test-only replacement of the global operator new/delete that counts every
/// allocation in the test binary. A test that links alloc_counter.cc can say
/// "allocation free" and mean zero real heap allocations, not only zero
/// hooked container growths (SparseAllocationCount). Never linked into src/.

namespace fedrec::test_support {

/// Number of operator new calls (every form) since the process started.
std::uint64_t OperatorNewCount();

}  // namespace fedrec::test_support

#endif  // FEDREC_TESTS_SUPPORT_ALLOC_COUNTER_H_
