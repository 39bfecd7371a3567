// Uniform grid index: the game-industry workhorse alternative to range
// trees. O(n) build via counting sort into cells (CSR layout), queries
// enumerate overlapping cells and filter. Used by the optimizer as a
// competing access path (E2) and by the physics broad-phase.
//
// Rebuilt every tick, so Build reuses all internal buffers (coords copy,
// CSR offsets/items, counting-sort scratch) at their high-water capacity:
// a steady-state rebuild performs zero heap allocations.
//
// Build invariant: the counting sort scatters points in ascending row
// order, so every cell's items are ascending by row. A box's candidates are
// therefore one ascending run per cell it touches (the range filter keeps
// input order), which lets FinishProbeBatch merge a sparse slice instead of
// sorting it.

#ifndef SGL_INDEX_GRID_INDEX_H_
#define SGL_INDEX_GRID_INDEX_H_

#include <vector>

#include "src/common/types.h"
#include "src/index/probe_batch.h"

namespace sgl {

/// d-dimensional uniform grid over points identified by RowIdx 0..n-1.
class GridIndex {
 public:
  /// `dims` in [1, kMaxIndexDims]; `target_per_cell` controls resolution:
  /// the grid picks ~n / target_per_cell cells over the data's bounding box.
  explicit GridIndex(int dims, double target_per_cell = 4.0);

  int dims() const { return dims_; }
  size_t size() const { return n_; }

  /// (Re)builds over coords[k][i]. O(n + cells); no allocation once the
  /// internal buffers have grown to the workload's high-water size.
  void Build(const std::vector<std::vector<double>>& coords);
  /// Move-in overload: swaps `coords` with the internal copy (the caller
  /// gets last build's buffers back, capacity intact) — the per-tick
  /// rebuild path copies each column exactly once.
  void Build(std::vector<std::vector<double>>&& coords);

  /// Appends every point in the closed box to `out`.
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const;

  /// Batched probe over num_probes boxes given as per-dim columns
  /// (lo[k][p], hi[k][p]); result contract in probe_batch.h. Semantically
  /// identical to Query + sort per box, but restructured for the
  /// probe-bound join loop: probes are visited grouped by their box's
  /// primary cell (sorted 64-bit cell<<32|probe keys), each box's
  /// innermost-dim cell run is one contiguous CSR span (CellIndex is
  /// row-major with the last dim fastest) walked with the SIMD range
  /// filter, and the next probe's span is prefetched. Candidates land in
  /// visit order; FinishProbeBatch turns them into ascending probe-order
  /// CSR — by two counting passes when the batch's row range is no larger
  /// than its candidate count, else slice by slice (copying a one-run slice,
  /// merging a two-run one, sorting the rest). Zero allocations at buffer
  /// high-water.
  void QueryBatch(const double* const* lo, const double* const* hi,
                  size_t num_probes, ProbeBatch* out) const;

  size_t MemoryBytes() const;

  /// Number of cells, and the rows binned into cell c in CSR order
  /// (ascending by row, per the build invariant). For inspection and tests.
  size_t num_cells() const { return cell_start_.size() - 1; }
  const RowIdx* cell_begin(size_t c) const {
    return cell_items_.data() + cell_start_[c];
  }
  const RowIdx* cell_end(size_t c) const {
    return cell_items_.data() + cell_start_[c + 1];
  }

 private:
  /// Shared rebuild body: bins coords_ into the CSR cell layout.
  void BuildCells();
  int64_t CellCoord(int dim, double v) const;
  /// Cells [*c_lo, *c_hi] on `dim` that can hold points of [lo, hi].
  void CellRange(int dim, double lo, double hi, int64_t* c_lo,
                 int64_t* c_hi) const;
  /// QueryBatch's per-box walk: writes the box's points to (*out)[at..),
  /// growing `out` as needed, and returns the new end. Each innermost-dim
  /// cell run is one contiguous CSR span (CellIndex is row-major, last dim
  /// fastest) filtered by the SIMD range filter. Query keeps its own
  /// cell-by-cell scalar walk as the reference the batch path is tested
  /// against.
  size_t AppendBox(const double* lo, const double* hi,
                   std::vector<RowIdx>* out, size_t at) const;
  size_t CellIndex(const int64_t* cc) const;

  int dims_;
  double target_per_cell_;
  size_t n_ = 0;
  std::vector<std::vector<double>> coords_;
  std::vector<double> min_, max_, cell_size_;
  std::vector<int64_t> cells_per_dim_;
  std::vector<uint32_t> cell_start_;  // CSR offsets, size = #cells + 1
  std::vector<RowIdx> cell_items_;    // point ids grouped by cell
  std::vector<uint32_t> cell_of_;     // build scratch: point -> cell
  std::vector<uint32_t> cursor_;      // build scratch: CSR fill cursors
};

}  // namespace sgl

#endif  // SGL_INDEX_GRID_INDEX_H_
