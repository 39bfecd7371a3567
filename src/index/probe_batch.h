// Pooled CSR output of one batched index probe (SpatialIndex::QueryBatch).
//
// Contract — identical results to the single-probe path:
//   * probe p's candidates are items[offsets[p] .. offsets[p+1]);
//   * every slice is sorted ascending by row index, exactly like the
//     executor's `Query(...)` + `std::sort` per outer row, so downstream
//     pair order (and therefore world checksums) is bit-identical;
//   * an inverted box (lo > hi on any dim) yields an empty slice, and NaN
//     coordinates are kept, both matching the per-index Query semantics.
//
// Every backend produces candidates in whatever order its walk visits the
// probes and leaves the ordering to one shared finisher, FinishProbeBatch.
// When the batch's observed row range [min, max] spans no more rows than it
// has candidates, the finisher orders the whole batch with two stable
// counting passes (a sparse-matrix transpose there and back) and sorts
// nothing; otherwise it orders each slice on its own. Both paths yield the
// same bytes.
//
// A backend may emit a probe's candidates in any order, but the sparse
// path is cheapest on run-structured slices: a concatenation of ascending
// runs. It detects runs by their descents, copies a one-run slice, merges a
// two-run slice straight into place and sorts only slices of three or more
// runs. GridIndex emits one ascending run per cell a box touches (see its
// build invariant); RangeTree and PartitionedIndex emit unordered slices
// and take the sort.
//
// All vectors grow amortized to their high-water mark and are pooled in
// ExecScratch, so steady-state batched probing performs zero allocations.
// The tmp_* / visit_keys / row_start members are scratch for the finisher
// and the backends that feed it.

#ifndef SGL_INDEX_PROBE_BATCH_H_
#define SGL_INDEX_PROBE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace sgl {

/// Grows `v` to `n` elements, reserving twice the demanded size on any
/// growth. Candidate volume in a live world creeps a few percent per tick
/// (entities cluster), so an exact-fit high-water buffer reallocates again
/// shortly after warmup; the 2x headroom means a realloc can only recur
/// once demand doubles, which steady-state creep cannot do between ticks.
template <typename T>
inline void GrowWithHeadroom(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n * 2, v->capacity() * 2));
  v->resize(n);
}

struct ProbeBatch {
  std::vector<uint32_t> offsets;  ///< num_probes + 1 CSR offsets into items
  std::vector<RowIdx> items;      ///< candidates, slice-sorted ascending

  // Scratch (see file comment). Not part of the result.
  std::vector<uint64_t> visit_keys;  ///< backend's visit order, probe low
  std::vector<uint32_t> tmp_start;   ///< visit v's slice of tmp_items
  std::vector<RowIdx> tmp_items;     ///< candidates in visit order
  std::vector<uint32_t> row_start;   ///< counting-pass row buckets

  size_t num_probes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  const RowIdx* begin_of(size_t p) const { return items.data() + offsets[p]; }
  const RowIdx* end_of(size_t p) const {
    return items.data() + offsets[p + 1];
  }
};

/// The ordering step every QueryBatch backend ends with. On entry
/// out->tmp_items holds the batch's candidates in visit order: visit v
/// owns tmp_items[tmp_start[v] .. tmp_start[v+1]) (tmp_start has
/// num_probes + 1 entries) and belongs to probe `visit_keys[v] & 0xffffffff`
/// when `keyed`, else to probe v. Each probe is visited exactly once. On
/// return offsets/items hold the ascending probe-order CSR of the contract;
/// a sparse batch leaves tmp_items/tmp_start as they were.
void FinishProbeBatch(size_t num_probes, bool keyed, ProbeBatch* out);

/// QueryBatch for indexes without a native batch walk: answers each box
/// with `index.Query(lo, hi, &out)` (appending, any order) in probe order
/// and hands the candidates to FinishProbeBatch.
template <typename Index>
void QueryEachProbe(const Index& index, const double* const* lo,
                    const double* const* hi, size_t num_probes,
                    ProbeBatch* out) {
  const int dims = index.dims();
  SGL_CHECK(dims <= kMaxIndexDims);
  GrowWithHeadroom(&out->tmp_start, num_probes + 1);
  out->tmp_items.clear();
  double plo[kMaxIndexDims], phi[kMaxIndexDims];
  for (size_t p = 0; p < num_probes; ++p) {
    for (int k = 0; k < dims; ++k) {
      plo[k] = lo[k][p];
      phi[k] = hi[k][p];
    }
    out->tmp_start[p] = static_cast<uint32_t>(out->tmp_items.size());
    index.Query(plo, phi, &out->tmp_items);
  }
  out->tmp_start[num_probes] = static_cast<uint32_t>(out->tmp_items.size());
  FinishProbeBatch(num_probes, /*keyed=*/false, out);
}

}  // namespace sgl

#endif  // SGL_INDEX_PROBE_BATCH_H_
