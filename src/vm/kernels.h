// Explicit-SIMD kernel layer for the bytecode VM's fold loops and the
// index layer's batched range filters.
//
// A `VmKernels` is a flat table of function pointers — one entry per
// (operation, shape) pair the VM's hot loops need: contiguous [0,n) and
// selection-vector variants of every numeric fold, plus fused
// compare-and-filter kernels that write a compacted selection directly.
// Two tables exist, bit-identical per lane:
//
//   * scalar  (kernels_scalar.h) — portable loops, the semantic reference;
//   * avx2    (kernels_avx2.h)   — intrinsics with per-function
//     target("avx2") attributes and scalar tails, compiled on x86-64 only.
//
// GetVmKernels() re-reads the process dispatch (src/common/cpu_features.h)
// on every call, so tests can flip tables between ticks. The lane-semantics
// contract (why results are bit-identical, why no FMA/reassociation) is
// documented in src/vm/README.md.

#ifndef SGL_VM_KERNELS_H_
#define SGL_VM_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/cpu_features.h"
#include "src/common/types.h"

namespace sgl {

// Kernel indices within a family. Order is load-bearing: vm.cc maps VmOp
// cases onto these, and both tables are filled positionally.
enum NumBinKernel : int {
  kKerAdd,
  kKerSub,
  kKerMul,
  kKerDiv,   // GuardedDiv: b == 0 ? 0 : a / b
  kKerMod,   // GuardedMod: b == 0 ? 0 : fmod(a, b)   (scalar libm both tables)
  kKerMin,   // a < b ? a : b
  kKerMax,   // a > b ? a : b
  kKerPow,   // std::pow                               (scalar libm both tables)
  kNumBinKernels
};

enum NumUnKernel : int {
  kKerNeg,
  kKerAbs,
  kKerSqrt,  // GuardedSqrt: a <= 0 ? 0 : sqrt(a)
  kKerFloor,
  kKerCeil,
  kNumUnKernels
};

enum CmpKernel : int {
  kKerLt,
  kKerLe,
  kKerGt,
  kKerGe,
  kKerEq,
  kKerNe,
  kNumCmpKernels
};

struct VmKernels {
  // d[i] = v for i in [0, n)
  using FillFn = void (*)(double* d, double v, size_t n);
  // d[i] = op(a[i], b[i]) — contiguous / under a selection vector.
  using BinFn = void (*)(const double* a, const double* b, double* d,
                         size_t n);
  using BinSelFn = void (*)(const double* a, const double* b, double* d,
                            const RowIdx* sel, size_t cnt);
  using UnFn = void (*)(const double* a, double* d, size_t n);
  using UnSelFn = void (*)(const double* a, double* d, const RowIdx* sel,
                           size_t cnt);
  // d[i] = min(max(v[i], lo[i]), hi[i]) with std::min/std::max tie rules.
  using ClampFn = void (*)(const double* v, const double* lo,
                           const double* hi, double* d, size_t n);
  using ClampSelFn = void (*)(const double* v, const double* lo,
                              const double* hi, double* d, const RowIdx* sel,
                              size_t cnt);
  // d[i] = (a[i] op b[i]) ? 1 : 0  (byte-mask output)
  using CmpFn = void (*)(const double* a, const double* b, uint8_t* d,
                         size_t n);
  using CmpSelFn = void (*)(const double* a, const double* b, uint8_t* d,
                            const RowIdx* sel, size_t cnt);
  // Fused compare-and-compact: writes surviving row indices to `out` in
  // ascending input order, returns survivor count. Iota variants scan
  // [0, n); sel variants scan an existing selection and may compact
  // in place (out == sel). vs / sv fix one side to a uniform value.
  using FilterIotaVVFn = size_t (*)(const double* a, const double* b,
                                    RowIdx* out, size_t n);
  using FilterIotaVSFn = size_t (*)(const double* a, double b, RowIdx* out,
                                    size_t n);
  using FilterIotaSVFn = size_t (*)(double a, const double* b, RowIdx* out,
                                    size_t n);
  using FilterSelVVFn = size_t (*)(const double* a, const double* b,
                                   const RowIdx* sel, size_t cnt, RowIdx* out);
  using FilterSelVSFn = size_t (*)(const double* a, double b,
                                   const RowIdx* sel, size_t cnt, RowIdx* out);
  using FilterSelSVFn = size_t (*)(double a, const double* b,
                                   const RowIdx* sel, size_t cnt, RowIdx* out);
  // Batched index probe filter: keeps items whose point lies inside
  // [lo[k], hi[k]] on every dim, writing survivors to `out` (capacity >= n)
  // in input order; returns the kept count. Matches GridIndex::Query's
  // exclusion test `v < lo || v > hi` exactly — a NaN coordinate is KEPT
  // (both comparisons false), so the SIMD form must be ~(lt | gt), not
  // (ge & le).
  using RangeFilterFn = size_t (*)(const RowIdx* items, size_t n,
                                   const double* const* coords, int dims,
                                   const double* lo, const double* hi,
                                   RowIdx* out);

  FillFn fill;
  BinFn bin[kNumBinKernels];
  BinSelFn bin_sel[kNumBinKernels];
  UnFn un[kNumUnKernels];
  UnSelFn un_sel[kNumUnKernels];
  ClampFn clamp;
  ClampSelFn clamp_sel;
  CmpFn cmp[kNumCmpKernels];
  CmpSelFn cmp_sel[kNumCmpKernels];
  FilterIotaVVFn f_iota_vv[kNumCmpKernels];
  FilterIotaVSFn f_iota_vs[kNumCmpKernels];
  FilterIotaSVFn f_iota_sv[kNumCmpKernels];
  FilterSelVVFn f_sel_vv[kNumCmpKernels];
  FilterSelVSFn f_sel_vs[kNumCmpKernels];
  FilterSelSVFn f_sel_sv[kNumCmpKernels];
  RangeFilterFn range_filter;
};

/// Table for the currently active dispatch (cheap: one relaxed atomic read).
const VmKernels& GetVmKernels();

/// The two concrete tables, for differential tests.
const VmKernels& GetScalarKernels();
#if SGL_KERNELS_AVX2
/// Only safe to *execute* when CpuHasAvx2(); fetching the table is always ok.
const VmKernels& GetAvx2Kernels();
#endif

namespace vm_internal {
// Lanes processed by SIMD (AVX2) kernel bodies, counted per thread: each
// thread owns one cache-line slot that only it writes, so a kernel call
// adds with a plain load + store instead of an RMW on a line every worker
// shares. Slots live in a process-wide registry; a thread takes one on its
// first count and, when it exits, folds its count into a retired total and
// frees the slot for the next thread. Relaxed atomics: a perf counter that
// never synchronizes anything.
struct alignas(64) SimdLaneSlot {
  std::atomic<int64_t> lanes{0};  ///< written only by the owning thread
  bool in_use = false;            ///< guarded by the registry mutex
};
inline thread_local SimdLaneSlot* t_simd_lane_slot = nullptr;
/// Claims a free slot for the calling thread (first count only).
SimdLaneSlot* AcquireSimdLaneSlot();
}  // namespace vm_internal

inline void AddSimdLanes(size_t lanes) {
  vm_internal::SimdLaneSlot* slot = vm_internal::t_simd_lane_slot;
  if (slot == nullptr) slot = vm_internal::AcquireSimdLaneSlot();
  slot->lanes.store(slot->lanes.load(std::memory_order_relaxed) +
                        static_cast<int64_t>(lanes),
                    std::memory_order_relaxed);
}

/// Cumulative SIMD-lane count of every thread, live and exited; executors
/// diff it around a tick to report TickStats::simd_lanes_used. Exact once
/// the counting threads have synchronized with the caller (the tick's
/// barriers); allocation-free.
int64_t SimdLanesNow();

}  // namespace sgl

#endif  // SGL_VM_KERNELS_H_
