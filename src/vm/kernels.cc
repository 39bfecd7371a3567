#include "src/vm/kernels.h"

#include <mutex>

#include "src/vm/kernels_scalar.h"
#if SGL_KERNELS_AVX2
#include "src/vm/kernels_avx2.h"
#endif

namespace sgl {

namespace vm_internal {
namespace {

// Slots come in blocks; the first is static, so a process with at most
// kSlotsPerBlock live counting threads never allocates one. Blocks are
// never freed: their count is bounded by the peak number of live threads.
constexpr size_t kSlotsPerBlock = 64;
struct SlotBlock {
  SimdLaneSlot slots[kSlotsPerBlock];
  SlotBlock* next = nullptr;
};

struct LaneRegistry {
  std::mutex mu;
  SlotBlock first;
  int64_t retired = 0;  ///< lanes counted by threads that have exited
};
LaneRegistry g_lanes;  // constant-initialized: usable before main()

void ReleaseSimdLaneSlot(SimdLaneSlot* slot) {
  std::lock_guard<std::mutex> lock(g_lanes.mu);
  g_lanes.retired += slot->lanes.load(std::memory_order_relaxed);
  slot->lanes.store(0, std::memory_order_relaxed);
  slot->in_use = false;
}

// Thread-exit hook of a thread that holds a slot.
struct SlotReleaser {
  ~SlotReleaser() {
    if (t_simd_lane_slot != nullptr) ReleaseSimdLaneSlot(t_simd_lane_slot);
    t_simd_lane_slot = nullptr;
  }
};

}  // namespace

SimdLaneSlot* AcquireSimdLaneSlot() {
  static thread_local SlotReleaser releaser;
  (void)releaser;
  std::lock_guard<std::mutex> lock(g_lanes.mu);
  SlotBlock* block = &g_lanes.first;
  for (;;) {
    for (SimdLaneSlot& slot : block->slots) {
      if (!slot.in_use) {
        slot.in_use = true;
        t_simd_lane_slot = &slot;
        return &slot;
      }
    }
    if (block->next == nullptr) block->next = new SlotBlock();
    block = block->next;
  }
}

}  // namespace vm_internal

int64_t SimdLanesNow() {
  using vm_internal::g_lanes;
  std::lock_guard<std::mutex> lock(g_lanes.mu);
  int64_t total = g_lanes.retired;
  for (const vm_internal::SlotBlock* b = &g_lanes.first; b != nullptr;
       b = b->next) {
    for (const vm_internal::SimdLaneSlot& slot : b->slots) {
      total += slot.lanes.load(std::memory_order_relaxed);
    }
  }
  return total;
}

namespace {

// Fills one table from a kernel namespace. fmod/pow have no vector form, so
// the AVX2 table reuses the scalar libm loops for those two slots — both
// tables call the identical function, trivially bit-identical.
#define SGL_FILL_TABLE(t, NS)                       \
  do {                                              \
    (t).fill = NS::Fill;                            \
    (t).bin[kKerAdd] = NS::Add;                     \
    (t).bin[kKerSub] = NS::Sub;                     \
    (t).bin[kKerMul] = NS::Mul;                     \
    (t).bin[kKerDiv] = NS::Div;                     \
    (t).bin[kKerMod] = vmks::Mod;                   \
    (t).bin[kKerMin] = NS::Min;                     \
    (t).bin[kKerMax] = NS::Max;                     \
    (t).bin[kKerPow] = vmks::Pow;                   \
    (t).bin_sel[kKerAdd] = NS::AddSel;              \
    (t).bin_sel[kKerSub] = NS::SubSel;              \
    (t).bin_sel[kKerMul] = NS::MulSel;              \
    (t).bin_sel[kKerDiv] = NS::DivSel;              \
    (t).bin_sel[kKerMod] = vmks::ModSel;            \
    (t).bin_sel[kKerMin] = NS::MinSel;              \
    (t).bin_sel[kKerMax] = NS::MaxSel;              \
    (t).bin_sel[kKerPow] = vmks::PowSel;            \
    (t).un[kKerNeg] = NS::Neg;                      \
    (t).un[kKerAbs] = NS::Abs;                      \
    (t).un[kKerSqrt] = NS::Sqrt;                    \
    (t).un[kKerFloor] = NS::Floor;                  \
    (t).un[kKerCeil] = NS::Ceil;                    \
    (t).un_sel[kKerNeg] = NS::NegSel;               \
    (t).un_sel[kKerAbs] = NS::AbsSel;               \
    (t).un_sel[kKerSqrt] = NS::SqrtSel;             \
    (t).un_sel[kKerFloor] = NS::FloorSel;           \
    (t).un_sel[kKerCeil] = NS::CeilSel;             \
    (t).clamp = NS::Clamp;                          \
    (t).clamp_sel = NS::ClampSel;                   \
    (t).cmp[kKerLt] = NS::CmpLt;                    \
    (t).cmp[kKerLe] = NS::CmpLe;                    \
    (t).cmp[kKerGt] = NS::CmpGt;                    \
    (t).cmp[kKerGe] = NS::CmpGe;                    \
    (t).cmp[kKerEq] = NS::CmpEq;                    \
    (t).cmp[kKerNe] = NS::CmpNe;                    \
    (t).cmp_sel[kKerLt] = NS::CmpLtSel;             \
    (t).cmp_sel[kKerLe] = NS::CmpLeSel;             \
    (t).cmp_sel[kKerGt] = NS::CmpGtSel;             \
    (t).cmp_sel[kKerGe] = NS::CmpGeSel;             \
    (t).cmp_sel[kKerEq] = NS::CmpEqSel;             \
    (t).cmp_sel[kKerNe] = NS::CmpNeSel;             \
    (t).f_iota_vv[kKerLt] = NS::FilterLtIotaVV;     \
    (t).f_iota_vv[kKerLe] = NS::FilterLeIotaVV;     \
    (t).f_iota_vv[kKerGt] = NS::FilterGtIotaVV;     \
    (t).f_iota_vv[kKerGe] = NS::FilterGeIotaVV;     \
    (t).f_iota_vv[kKerEq] = NS::FilterEqIotaVV;     \
    (t).f_iota_vv[kKerNe] = NS::FilterNeIotaVV;     \
    (t).f_iota_vs[kKerLt] = NS::FilterLtIotaVS;     \
    (t).f_iota_vs[kKerLe] = NS::FilterLeIotaVS;     \
    (t).f_iota_vs[kKerGt] = NS::FilterGtIotaVS;     \
    (t).f_iota_vs[kKerGe] = NS::FilterGeIotaVS;     \
    (t).f_iota_vs[kKerEq] = NS::FilterEqIotaVS;     \
    (t).f_iota_vs[kKerNe] = NS::FilterNeIotaVS;     \
    (t).f_iota_sv[kKerLt] = NS::FilterLtIotaSV;     \
    (t).f_iota_sv[kKerLe] = NS::FilterLeIotaSV;     \
    (t).f_iota_sv[kKerGt] = NS::FilterGtIotaSV;     \
    (t).f_iota_sv[kKerGe] = NS::FilterGeIotaSV;     \
    (t).f_iota_sv[kKerEq] = NS::FilterEqIotaSV;     \
    (t).f_iota_sv[kKerNe] = NS::FilterNeIotaSV;     \
    (t).f_sel_vv[kKerLt] = NS::FilterLtSelVV;       \
    (t).f_sel_vv[kKerLe] = NS::FilterLeSelVV;       \
    (t).f_sel_vv[kKerGt] = NS::FilterGtSelVV;       \
    (t).f_sel_vv[kKerGe] = NS::FilterGeSelVV;       \
    (t).f_sel_vv[kKerEq] = NS::FilterEqSelVV;       \
    (t).f_sel_vv[kKerNe] = NS::FilterNeSelVV;       \
    (t).f_sel_vs[kKerLt] = NS::FilterLtSelVS;       \
    (t).f_sel_vs[kKerLe] = NS::FilterLeSelVS;       \
    (t).f_sel_vs[kKerGt] = NS::FilterGtSelVS;       \
    (t).f_sel_vs[kKerGe] = NS::FilterGeSelVS;       \
    (t).f_sel_vs[kKerEq] = NS::FilterEqSelVS;       \
    (t).f_sel_vs[kKerNe] = NS::FilterNeSelVS;       \
    (t).f_sel_sv[kKerLt] = NS::FilterLtSelSV;       \
    (t).f_sel_sv[kKerLe] = NS::FilterLeSelSV;       \
    (t).f_sel_sv[kKerGt] = NS::FilterGtSelSV;       \
    (t).f_sel_sv[kKerGe] = NS::FilterGeSelSV;       \
    (t).f_sel_sv[kKerEq] = NS::FilterEqSelSV;       \
    (t).f_sel_sv[kKerNe] = NS::FilterNeSelSV;       \
    (t).range_filter = NS::RangeFilter;             \
  } while (0)

VmKernels MakeScalarTable() {
  VmKernels t{};
  SGL_FILL_TABLE(t, vmks);
  return t;
}

#if SGL_KERNELS_AVX2
VmKernels MakeAvx2Table() {
  VmKernels t{};
  SGL_FILL_TABLE(t, vmka);
  return t;
}
#endif

#undef SGL_FILL_TABLE

}  // namespace

const VmKernels& GetScalarKernels() {
  static const VmKernels t = MakeScalarTable();
  return t;
}

#if SGL_KERNELS_AVX2
const VmKernels& GetAvx2Kernels() {
  static const VmKernels t = MakeAvx2Table();
  return t;
}
#endif

const VmKernels& GetVmKernels() {
#if SGL_KERNELS_AVX2
  // SetKernelDispatch refuses kAvx2 on non-AVX2 CPUs, so reaching the AVX2
  // table here implies the CPU can run it.
  if (ActiveKernelDispatch() == KernelDispatch::kAvx2) return GetAvx2Kernels();
#endif
  return GetScalarKernels();
}

}  // namespace sgl
