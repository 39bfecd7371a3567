#include "src/index/probe_batch.h"

#include <algorithm>
#include <utility>

namespace sgl {

void FinishProbeBatch(size_t num_probes, bool keyed, ProbeBatch* out) {
  const uint32_t* start = out->tmp_start.data();
  const uint64_t* keys = out->visit_keys.data();
  auto probe_of = [keyed, keys](size_t v) {
    return keyed ? static_cast<size_t>(keys[v] & 0xffffffffu) : v;
  };
  const uint32_t n = start[num_probes];

  // offsets[p + 1] first holds slice p's start and serves as its write
  // cursor, so once the slice is filled it holds slice p's end, as the CSR
  // layout needs.
  GrowWithHeadroom(&out->offsets, num_probes + 1);
  uint32_t* cursor = out->offsets.data() + 1;
  out->offsets[0] = 0;
  for (size_t v = 0; v < num_probes; ++v) {
    cursor[probe_of(v)] = start[v + 1] - start[v];
  }
  uint32_t sum = 0;
  for (size_t p = 0; p < num_probes; ++p) {
    const uint32_t len = cursor[p];
    cursor[p] = sum;
    sum += len;
  }
  GrowWithHeadroom(&out->items, n);
  if (n == 0) return;

  const RowIdx* cand = out->tmp_items.data();
  RowIdx row_min = cand[0], row_max = cand[0];
  for (uint32_t i = 1; i < n; ++i) {  // vectorizes, unlike minmax_element
    row_min = std::min(row_min, cand[i]);
    row_max = std::max(row_max, cand[i]);
  }
  const size_t range = static_cast<size_t>(row_max - row_min) + 1;
  if (range > n) {
    // Sparse batch: counting would touch more rows than there are
    // candidates, so order each slice where it lands. A grid slice is one
    // ascending run per cell it touched, and a narrow box touches one or
    // two: copy a sorted slice, merge a two-run slice straight into place,
    // and sort only the rest (three or more runs, or an unordered backend).
    for (size_t v = 0; v < num_probes; ++v) {
      const RowIdx* src = cand + start[v];
      const uint32_t len = start[v + 1] - start[v];
      RowIdx* dst = out->items.data() + cursor[probe_of(v)];
      cursor[probe_of(v)] += len;
      uint32_t mid = std::min(len, 1u);  // end of the first run
      while (mid < len && src[mid - 1] <= src[mid]) ++mid;
      if (mid == len) {
        std::copy(src, src + len, dst);
        continue;
      }
      uint32_t end = mid + 1;  // end of the second run
      while (end < len && src[end - 1] <= src[end]) ++end;
      if (end == len) {
        std::merge(src, src + mid, src + mid, src + len, dst);
      } else {
        std::copy(src, src + len, dst);
        std::sort(dst, dst + len);
      }
    }
    return;
  }

  // Dense batch. Pass 1 buckets probe ids by candidate row: after the
  // prefix sum row_start[r] is bucket r's first slot, and filling advances
  // it to bucket r's end. items' storage holds the buckets.
  GrowWithHeadroom(&out->row_start, range + 1);
  uint32_t* row_start = out->row_start.data();
  std::fill(row_start, row_start + range + 1, 0u);
  for (uint32_t i = 0; i < n; ++i) ++row_start[cand[i] - row_min + 1];
  for (size_t r = 0; r < range; ++r) row_start[r + 1] += row_start[r];
  uint32_t* by_row = out->items.data();
  for (size_t v = 0; v < num_probes; ++v) {
    const uint32_t p = static_cast<uint32_t>(probe_of(v));
    for (uint32_t i = start[v]; i < start[v + 1]; ++i) {
      by_row[row_start[cand[i] - row_min]++] = p;
    }
  }
  // Pass 2 walks the rows ascending and appends each to its probes' slices,
  // so every slice comes out sorted. The candidates are consumed, so the
  // slices go into tmp_items' storage, which then becomes the result.
  RowIdx* dst = out->tmp_items.data();
  uint32_t j = 0;
  for (size_t r = 0; r < range; ++r) {
    const RowIdx row = row_min + static_cast<RowIdx>(r);
    for (; j < row_start[r]; ++j) dst[cursor[by_row[j]]++] = row;
  }
  std::swap(out->items, out->tmp_items);
  out->items.resize(n);
}

}  // namespace sgl
