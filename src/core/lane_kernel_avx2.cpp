// The episode-lane kernel at 32-byte vectors: 128 episode lanes per register
// block, 32 in the tracked mode.  src/CMakeLists.txt compiles this file alone
// with -mavx2, on x86-64 builds only, and count_all_lanes and LaneCounter
// call it only on CPUs that report AVX2.
// It includes nothing but the freestanding kernel header, so the only symbol
// it defines outside internal linkage is scan_avx2; the
// lane_avx2_object_symbols test checks that with nm.
#include "core/lane_kernel.hpp"

#if !defined(__AVX2__)
#error "core/lane_kernel_avx2.cpp must be compiled with -mavx2"
#endif

void gm::core::lanes::scan_avx2(const Job& job) { scan<32>(job); }
