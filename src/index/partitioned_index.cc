#include "src/index/partitioned_index.h"

#include <algorithm>
#include <limits>

#include "src/common/vec_util.h"

namespace sgl {

PartitionedIndex::PartitionedIndex(int dims, int shards, int leaf_size)
    : dims_(dims) {
  SGL_CHECK(dims >= 1);
  SGL_CHECK(shards >= 1);
  trees_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    trees_.push_back(std::make_unique<RangeTree>(dims, leaf_size));
  }
  shard_rows_.resize(static_cast<size_t>(shards));
  shard_lo_.resize(static_cast<size_t>(shards));
  shard_hi_.resize(static_cast<size_t>(shards));
  shard_coords_.resize(static_cast<size_t>(shards));
  for (auto& sc : shard_coords_) sc.resize(static_cast<size_t>(dims));
}

void PartitionedIndex::Build(const std::vector<std::vector<double>>& coords) {
  SGL_CHECK(static_cast<int>(coords.size()) == dims_);
  n_ = coords.empty() ? 0 : coords[0].size();
  const int k = shards();

  ResizeAmortized(&order_, n_);
  for (size_t i = 0; i < n_; ++i) order_[i] = static_cast<RowIdx>(i);
  const std::vector<double>& c0 = coords[0];
  std::sort(order_.begin(), order_.end(), [&c0](RowIdx a, RowIdx b) {
    return c0[a] != c0[b] ? c0[a] < c0[b] : a < b;
  });

  for (int s = 0; s < k; ++s) {
    size_t begin = n_ * static_cast<size_t>(s) / static_cast<size_t>(k);
    size_t end = n_ * static_cast<size_t>(s + 1) / static_cast<size_t>(k);
    auto& rows = shard_rows_[static_cast<size_t>(s)];
    rows.assign(order_.begin() + static_cast<ptrdiff_t>(begin),
                order_.begin() + static_cast<ptrdiff_t>(end));
    // shard_coords_[s] holds the previous build's columns (move-in Build
    // swapped them back), so these fills reuse capacity.
    auto& sc = shard_coords_[static_cast<size_t>(s)];
    for (int d = 0; d < dims_; ++d) {
      auto& col = sc[static_cast<size_t>(d)];
      ResizeAmortized(&col, rows.size());
      const std::vector<double>& src = coords[static_cast<size_t>(d)];
      for (size_t i = 0; i < rows.size(); ++i) col[i] = src[rows[i]];
    }
    shard_lo_[static_cast<size_t>(s)] =
        rows.empty() ? std::numeric_limits<double>::infinity()
                     : sc[0].front();
    shard_hi_[static_cast<size_t>(s)] =
        rows.empty() ? -std::numeric_limits<double>::infinity()
                     : sc[0].back();
    trees_[static_cast<size_t>(s)]->Build(std::move(sc));
  }
}

void PartitionedIndex::Query(const double* lo, const double* hi,
                             std::vector<RowIdx>* out,
                             int* shards_touched) const {
  int touched = 0;
  for (int s = 0; s < shards(); ++s) {
    if (hi[0] < shard_lo_[static_cast<size_t>(s)] ||
        lo[0] > shard_hi_[static_cast<size_t>(s)]) {
      continue;
    }
    ++touched;
    // Query straight into `out`, then translate the appended local row ids
    // to global ones in place — no per-shard temporary.
    const size_t before = out->size();
    trees_[static_cast<size_t>(s)]->Query(lo, hi, out);
    const auto& rows = shard_rows_[static_cast<size_t>(s)];
    for (size_t i = before; i < out->size(); ++i) {
      (*out)[i] = rows[(*out)[i]];
    }
  }
  if (shards_touched != nullptr) *shards_touched = touched;
}

void PartitionedIndex::QueryBatch(const double* const* lo,
                                  const double* const* hi, size_t num_probes,
                                  ProbeBatch* out) const {
  QueryEachProbe(*this, lo, hi, num_probes, out);
}

size_t PartitionedIndex::ShardMemoryBytes(int s) const {
  size_t bytes = trees_[static_cast<size_t>(s)]->MemoryBytes();
  bytes += shard_rows_[static_cast<size_t>(s)].capacity() * sizeof(RowIdx);
  for (const auto& col : shard_coords_[static_cast<size_t>(s)]) {
    bytes += col.capacity() * sizeof(double);
  }
  return bytes;
}

size_t PartitionedIndex::MaxShardMemoryBytes() const {
  size_t best = 0;
  for (int s = 0; s < shards(); ++s) {
    best = std::max(best, ShardMemoryBytes(s));
  }
  return best;
}

size_t PartitionedIndex::TotalMemoryBytes() const {
  size_t total = 0;
  for (int s = 0; s < shards(); ++s) total += ShardMemoryBytes(s);
  return total;
}

}  // namespace sgl
