// Global allocation accounting for the zero-allocation steady-state goal.
//
// When built with SGL_COUNT_ALLOCS (the default), alloc_hook.cc replaces the
// global operator new/delete with malloc-backed versions that bump two
// process-wide relaxed atomics per allocation. TickExecutor snapshots them
// around each tick, in every shard layout, to expose
// TickStats::allocs_per_tick / bytes_per_tick — the counters the
// steady-state regression test and the benchmarks assert on. Cost is one relaxed fetch_add per allocation, which is noise next to
// the allocation itself; an embedding engine can compile the hook out with
// -DSGL_COUNT_ALLOCS=OFF, in which case the counters read as zero.

#ifndef SGL_COMMON_ALLOC_HOOK_H_
#define SGL_COMMON_ALLOC_HOOK_H_

#include <cstdint>

namespace sgl {

/// Monotonic process-wide allocation totals (all threads).
struct AllocCounts {
  int64_t count = 0;  ///< operator-new calls since process start
  int64_t bytes = 0;  ///< bytes requested since process start
};

/// Current totals. Two snapshots bracket a region; their difference is the
/// region's allocation traffic. Always zero when the hook is compiled out.
AllocCounts AllocCountersNow();

/// True when the counting hook is linked in (SGL_COUNT_ALLOCS builds).
bool AllocCountingEnabled();

/// Arms a one-shot allocation failure (fault injection, src/fault/): the
/// (after + 1)-th subsequent throwing operator-new call raises
/// std::bad_alloc, exactly as a real exhausted heap would. Arm around a
/// single-threaded region — the countdown is process-global, so a
/// concurrent allocator on another thread could absorb the failure.
/// No-op when the hook is compiled out (see AllocFailureSupported).
void ArmAllocFailure(int64_t after);

/// Disarms a pending ArmAllocFailure (idempotent).
void DisarmAllocFailure();

/// True when ArmAllocFailure can actually fail an allocation
/// (SGL_COUNT_ALLOCS builds; sanitizer builds compile the hook out).
bool AllocFailureSupported();

}  // namespace sgl

#endif  // SGL_COMMON_ALLOC_HOOK_H_
