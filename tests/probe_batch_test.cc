// Batched index probes (SpatialIndex::QueryBatch, src/index/probe_batch.h)
// must be a pure restructuring of the single-probe path: for every backend
// and every probe mix — ordinary boxes, degenerate (lo == hi), inverted
// (lo > hi, contract: empty slice), whole-world boxes, duplicate-heavy
// point sets — slice p of the CSR output must equal Query(box p) + sort,
// element for element. Regime cases force each path of the shared finisher
// (counting passes on dense batches; on sparse ones a copy, merge or sort
// per slice by its run count) and also check against a brute-force scan.
// On top of the structural contract, the engine-level sweep asserts the
// observable guarantee: ProbeMode cannot change a world checksum, in
// serial, multi-thread, and sharded execution, on dense (clustered RTS) and
// sparse (traffic) batches, including under a fold that sees candidate
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/index/grid_index.h"
#include "src/index/partitioned_index.h"
#include "src/index/probe_batch.h"
#include "src/index/range_tree.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

std::vector<std::vector<double>> RandomPoints(int n, int d, Rng* rng,
                                              bool duplicate_heavy) {
  std::vector<std::vector<double>> coords(
      static_cast<size_t>(d), std::vector<double>(static_cast<size_t>(n)));
  for (int k = 0; k < d; ++k) {
    for (int i = 0; i < n; ++i) {
      // Duplicate-heavy mode snaps coordinates to a 12-value lattice, so
      // many points coincide exactly and boxes hit ties on their edges.
      double v = duplicate_heavy
                     ? static_cast<double>(rng->NextBelow(12)) * 9.0
                     : rng->Uniform(0, 100);
      coords[static_cast<size_t>(k)][static_cast<size_t>(i)] = v;
    }
  }
  return coords;
}

struct BoxColumns {
  std::vector<std::vector<double>> lo, hi;
  const double* lo_ptr[kMaxIndexDims];
  const double* hi_ptr[kMaxIndexDims];
  size_t count = 0;
};

/// Random probe mix: ~60% ordinary boxes, plus degenerate boxes pinned to
/// an existing point (guaranteed ties), inverted boxes, and whole-world
/// boxes that pull in every row.
BoxColumns RandomBoxes(int d, size_t count, Rng* rng,
                       const std::vector<std::vector<double>>& points) {
  BoxColumns b;
  b.count = count;
  b.lo.assign(static_cast<size_t>(d), std::vector<double>(count));
  b.hi.assign(static_cast<size_t>(d), std::vector<double>(count));
  const size_t n = points[0].size();
  for (size_t p = 0; p < count; ++p) {
    const uint64_t kind = rng->NextBelow(10);
    for (int k = 0; k < d; ++k) {
      double a = rng->Uniform(0, 100), bb = rng->Uniform(0, 100);
      double lo = std::min(a, bb), hi = std::max(a, bb);
      if (kind < 2 && n > 0) {  // degenerate: lo == hi == a point coord
        lo = hi = points[static_cast<size_t>(k)][rng->NextBelow(n)];
      } else if (kind == 2) {  // inverted on this dim: empty by contract
        lo = std::max(a, bb) + 1.0;
        hi = std::min(a, bb);
      } else if (kind == 3) {  // whole world
        lo = -1e300;
        hi = 1e300;
      }
      b.lo[static_cast<size_t>(k)][p] = lo;
      b.hi[static_cast<size_t>(k)][p] = hi;
    }
  }
  for (int k = 0; k < d; ++k) {
    b.lo_ptr[k] = b.lo[static_cast<size_t>(k)].data();
    b.hi_ptr[k] = b.hi[static_cast<size_t>(k)].data();
  }
  return b;
}

/// Asserts slice p of `batch` holds exactly `expected`, ascending.
void ExpectSlice(const ProbeBatch& batch, size_t p,
                 std::vector<RowIdx> expected) {
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(batch.offsets[p + 1] - batch.offsets[p], expected.size())
      << "probe " << p;
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), batch.begin_of(p)))
      << "probe " << p;
  // Contract: every slice arrives sorted ascending.
  EXPECT_TRUE(std::is_sorted(batch.begin_of(p), batch.end_of(p)))
      << "probe " << p;
}

/// Asserts `batch` == per-box Query + sort on `index`, which can be any of
/// the three native backends (they share the method shape).
template <typename Index>
void ExpectMatchesSingle(const Index& index, const BoxColumns& b, int d,
                         const ProbeBatch& batch) {
  ASSERT_EQ(batch.num_probes(), b.count);
  std::vector<RowIdx> single;
  for (size_t p = 0; p < b.count; ++p) {
    double lo[kMaxIndexDims], hi[kMaxIndexDims];
    bool inverted = false;
    for (int k = 0; k < d; ++k) {
      lo[k] = b.lo[static_cast<size_t>(k)][p];
      hi[k] = b.hi[static_cast<size_t>(k)][p];
      if (lo[k] > hi[k]) inverted = true;
    }
    single.clear();
    if (!inverted) index.Query(lo, hi, &single);
    ExpectSlice(batch, p, single);
  }
}

template <typename Index>
void ExpectBatchMatchesSingle(const Index& index, const BoxColumns& b,
                              int d) {
  ProbeBatch batch;
  index.QueryBatch(b.lo_ptr, b.hi_ptr, b.count, &batch);
  ExpectMatchesSingle(index, b, d, batch);
}

struct Sweep {
  int n;
  int d;
  bool duplicate_heavy;
  uint64_t seed;
};

class ProbeBatchDifferential : public ::testing::TestWithParam<Sweep> {};

TEST_P(ProbeBatchDifferential, GridBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  GridIndex grid(p.d);
  grid.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(grid, boxes, p.d);
  }
}

TEST_P(ProbeBatchDifferential, RangeTreeBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed ^ 0xbeefULL);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  RangeTree tree(p.d);
  tree.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(tree, boxes, p.d);
  }
}

TEST_P(ProbeBatchDifferential, PartitionedBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed ^ 0xcafeULL);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  PartitionedIndex part(p.d, /*shards=*/4);
  part.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(part, boxes, p.d);
  }
}

TEST(ProbeBatchEdge, EmptyIndexAndZeroProbes) {
  GridIndex grid(2);
  grid.Build(std::vector<std::vector<double>>(2));
  Rng rng(7);
  auto points = RandomPoints(4, 2, &rng, false);
  auto boxes = RandomBoxes(2, 8, &rng, points);
  ProbeBatch batch;
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &batch);
  for (size_t p = 0; p < boxes.count; ++p) {
    EXPECT_EQ(batch.offsets[p + 1], batch.offsets[p]);
  }
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, 0, &batch);
  EXPECT_EQ(batch.num_probes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ProbeBatchDifferential,
    ::testing::Values(Sweep{0, 2, false, 1}, Sweep{1, 2, false, 2},
                      Sweep{60, 1, false, 3}, Sweep{60, 2, false, 4},
                      Sweep{200, 2, false, 5}, Sweep{200, 3, false, 6},
                      Sweep{200, 2, true, 7}, Sweep{500, 2, true, 8}));

// --- Finisher regimes -----------------------------------------------------
//
// FinishProbeBatch orders a batch with two counting passes when the rows it
// found span no more values than it has candidates (dense), and slice by
// slice otherwise (sparse): a slice of one ascending run is copied, one of
// two runs merged, one of three or more sorted. Each case below forces one
// regime, checks that the batch really is in it, and holds all three
// backends to the single-probe path — and, without NaNs, to a brute-force
// scan. Cell-aligned sparse cases also pin how many runs the grid's slices
// have, so each sparse path is known to run.

/// The finisher's regime test, recomputed from a finished batch.
bool IsDense(const ProbeBatch& batch) {
  const uint32_t n = batch.offsets.back();
  if (n == 0) return false;
  const auto [lo, hi] =
      std::minmax_element(batch.items.begin(), batch.items.begin() + n);
  return static_cast<size_t>(*hi - *lo) + 1 <= n;
}

struct RegimeCase {
  bool dense;
  int n;
  int d;
  bool duplicate_heavy;
  bool nan_coords;  ///< NaN point coordinates and NaN box bounds
  uint64_t seed;
  /// Sparse only. 0: small random boxes. 1, 2, 3: cell-aligned boxes whose
  /// grid slices have one run (inside one cell), two (straddling a
  /// last-dim cell boundary) or three or more (several odometer rows).
  int runs = 0;
};

/// Cell-aligned sparse boxes (RegimeCase::runs > 0). Mirrors the cell
/// geometry GridIndex::Build picks (~n / 4 cells, the same count per dim
/// over the points' bounding box); the Grid test confirms the run counts
/// the walk really produced.
BoxColumns CellBoxes(const RegimeCase& c, Rng* rng,
                     const std::vector<std::vector<double>>& points) {
  const size_t count = 64;
  const double total = std::max(1.0, static_cast<double>(c.n) / 4.0);
  const int64_t per_dim = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::floor(std::pow(total, 1.0 / static_cast<double>(c.d)))));
  BoxColumns b;
  b.count = count;
  b.lo.assign(static_cast<size_t>(c.d), std::vector<double>(count));
  b.hi.assign(static_cast<size_t>(c.d), std::vector<double>(count));
  for (int k = 0; k < c.d; ++k) {
    const auto [lo_it, hi_it] = std::minmax_element(
        points[static_cast<size_t>(k)].begin(),
        points[static_cast<size_t>(k)].end());
    const double w = (*hi_it - *lo_it) / static_cast<double>(per_dim);
    const bool last = k == c.d - 1;
    // The box on this dim, in cell widths from a random cell's low edge:
    // inside that cell; across a last-dim cell boundary (two runs); over
    // three odometer rows on the first of several dims, or four cells of
    // a 1-D grid (three or more runs).
    double from = 0.02, to = 0.98;
    if (c.runs >= 2 && last) from = 0.5, to = 1.5;
    if (c.runs >= 3 && c.d == 1) to = 3.5;
    if (c.runs >= 3 && k == 0 && !last) to = 2.98;
    const int64_t span = static_cast<int64_t>(std::ceil(to));
    for (size_t p = 0; p < count; ++p) {
      const double cell = static_cast<double>(
          rng->NextBelow(static_cast<uint64_t>(per_dim - span + 1)));
      b.lo[static_cast<size_t>(k)][p] = *lo_it + (cell + from) * w;
      b.hi[static_cast<size_t>(k)][p] = *lo_it + (cell + to) * w;
    }
    b.lo_ptr[k] = b.lo[static_cast<size_t>(k)].data();
    b.hi_ptr[k] = b.hi[static_cast<size_t>(k)].data();
  }
  return b;
}

/// Ascending runs in each visit's candidates as the backend emitted them.
/// A sparse finish leaves tmp_items / tmp_start untouched.
std::vector<int> VisitRuns(const ProbeBatch& batch) {
  std::vector<int> runs;
  for (size_t v = 0; v < batch.num_probes(); ++v) {
    const uint32_t a = batch.tmp_start[v], e = batch.tmp_start[v + 1];
    int r = a < e ? 1 : 0;
    for (uint32_t i = a + 1; i < e; ++i) {
      if (batch.tmp_items[i] < batch.tmp_items[i - 1]) ++r;
    }
    runs.push_back(r);
  }
  return runs;
}

/// Asserts the grid walk produced the slices `runs` asks for: one run at
/// most; two at most, and some of each; or some of three or more.
void ExpectRuns(const ProbeBatch& batch, int runs) {
  const std::vector<int> per_visit = VisitRuns(batch);
  const int most = *std::max_element(per_visit.begin(), per_visit.end());
  const auto with = [&](int r) {
    return std::count(per_visit.begin(), per_visit.end(), r);
  };
  switch (runs) {
    case 1:
      EXPECT_EQ(most, 1);
      break;
    case 2:
      EXPECT_EQ(most, 2);
      EXPECT_GT(with(1), 0);
      EXPECT_GT(with(2), 0);
      break;
    default:
      EXPECT_GE(most, 3);
      break;
  }
}

/// Dense: 256 wide boxes (every fourth spans the whole world with +-inf
/// bounds, as the executor passes for unconstrained dims) over few points,
/// so candidates far outnumber rows. Sparse: 6 small boxes around existing
/// points over many points, so the rows found are spread far apart.
BoxColumns RegimeBoxes(const RegimeCase& c, Rng* rng,
                       const std::vector<std::vector<double>>& points) {
  if (c.runs > 0) return CellBoxes(c, rng, points);
  const double inf = std::numeric_limits<double>::infinity();
  const size_t count = c.dense ? 256 : 6;
  BoxColumns b;
  b.count = count;
  b.lo.assign(static_cast<size_t>(c.d), std::vector<double>(count));
  b.hi.assign(static_cast<size_t>(c.d), std::vector<double>(count));
  const size_t n = points[0].size();
  for (size_t p = 0; p < count; ++p) {
    const size_t at = rng->NextBelow(n);
    for (int k = 0; k < c.d; ++k) {
      double center = points[static_cast<size_t>(k)][at];
      if (std::isnan(center)) center = 50.0;
      const double half = c.dense ? rng->Uniform(25, 60) : 1.5;
      double lo = center - half, hi = center + half;
      if (c.dense && p % 4 == 0) {
        lo = -inf;
        hi = inf;
      }
      if (c.nan_coords && p % 7 == 3) (k == 0 ? lo : hi) = std::nan("");
      b.lo[static_cast<size_t>(k)][p] = lo;
      b.hi[static_cast<size_t>(k)][p] = hi;
    }
  }
  for (int k = 0; k < c.d; ++k) {
    b.lo_ptr[k] = b.lo[static_cast<size_t>(k)].data();
    b.hi_ptr[k] = b.hi[static_cast<size_t>(k)].data();
  }
  return b;
}

/// Rows of `points` inside box p by the contract's exclusion test.
std::vector<RowIdx> BruteForce(const std::vector<std::vector<double>>& points,
                               const BoxColumns& b, size_t p) {
  std::vector<RowIdx> rows;
  for (size_t i = 0; i < points[0].size(); ++i) {
    bool inside = true;
    for (size_t k = 0; k < points.size(); ++k) {
      const double v = points[k][i];
      if (v < b.lo[k][p] || v > b.hi[k][p]) inside = false;
    }
    if (inside) rows.push_back(static_cast<RowIdx>(i));
  }
  return rows;
}

class ProbeBatchRegime : public ::testing::TestWithParam<RegimeCase> {
 protected:
  template <typename Index>
  void Check(const Index& index,
             const std::vector<std::vector<double>>& points, Rng* rng) {
    const RegimeCase& c = GetParam();
    ProbeBatch batch;  // pooled across rounds, as in ExecScratch
    for (int round = 0; round < 3; ++round) {
      const BoxColumns boxes = RegimeBoxes(c, rng, points);
      index.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &batch);
      EXPECT_EQ(IsDense(batch), c.dense) << "round " << round;
      if constexpr (std::is_same<Index, GridIndex>::value) {
        if (c.runs > 0) ExpectRuns(batch, c.runs);
      }
      ExpectMatchesSingle(index, boxes, c.d, batch);
      if (c.nan_coords) continue;
      for (size_t p = 0; p < boxes.count; ++p) {
        ExpectSlice(batch, p, BruteForce(points, boxes, p));
      }
    }
  }

  std::vector<std::vector<double>> Points(Rng* rng) const {
    const RegimeCase& c = GetParam();
    auto points = RandomPoints(c.n, c.d, rng, c.duplicate_heavy);
    if (c.nan_coords) {
      // Row 0 stays finite so the grid's bounding box is.
      for (size_t i = 5; i < points[0].size(); i += 9) {
        points[i % points.size()][i] = std::nan("");
      }
    }
    return points;
  }
};

TEST_P(ProbeBatchRegime, Grid) {
  Rng rng(GetParam().seed);
  const auto points = Points(&rng);
  GridIndex grid(GetParam().d);
  grid.Build(points);
  Check(grid, points, &rng);
}

TEST_P(ProbeBatchRegime, RangeTree) {
  Rng rng(GetParam().seed ^ 0xbeefULL);
  const auto points = Points(&rng);
  RangeTree tree(GetParam().d);
  tree.Build(points);
  Check(tree, points, &rng);
}

TEST_P(ProbeBatchRegime, Partitioned) {
  Rng rng(GetParam().seed ^ 0xcafeULL);
  const auto points = Points(&rng);
  PartitionedIndex part(GetParam().d, /*shards=*/4);
  part.Build(points);
  Check(part, points, &rng);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ProbeBatchRegime,
    ::testing::Values(RegimeCase{true, 40, 1, false, false, 11},
                      RegimeCase{true, 150, 2, false, false, 12},
                      RegimeCase{true, 150, 3, false, false, 13},
                      RegimeCase{true, 150, 2, true, false, 14},
                      RegimeCase{true, 150, 2, false, true, 15},
                      RegimeCase{false, 4000, 1, false, false, 21},
                      RegimeCase{false, 4000, 2, false, false, 22},
                      RegimeCase{false, 4000, 2, true, false, 23},
                      RegimeCase{false, 4000, 2, false, true, 24},
                      RegimeCase{false, 4000, 1, false, false, 25, 1},
                      RegimeCase{false, 4000, 1, false, false, 26, 2},
                      RegimeCase{false, 4000, 1, false, false, 27, 3},
                      RegimeCase{false, 4000, 2, false, false, 28, 1},
                      RegimeCase{false, 4000, 2, false, false, 29, 2},
                      RegimeCase{false, 4000, 2, false, false, 30, 3},
                      RegimeCase{false, 4000, 3, false, false, 31, 3}));

// Dense-regime batches into one pooled ProbeBatch allocate only on the
// first call: the finisher's by-row buckets reuse items' storage and the
// row buckets are pooled like every other buffer.
TEST(ProbeBatchAllocs, DenseRegimeIsAllocationFreeAfterFirstCall) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "allocation hook compiled out";
  const RegimeCase c{true, 150, 2, false, false, 31};
  Rng rng(c.seed);
  const auto points = RandomPoints(c.n, c.d, &rng, c.duplicate_heavy);
  const BoxColumns boxes = RegimeBoxes(c, &rng, points);
  GridIndex grid(c.d);
  grid.Build(points);
  RangeTree tree(c.d);
  tree.Build(points);
  PartitionedIndex part(c.d, /*shards=*/4);
  part.Build(points);
  ProbeBatch grid_batch, tree_batch, part_batch;
  auto probe_all = [&] {
    grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &grid_batch);
    tree.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &tree_batch);
    part.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &part_batch);
  };
  probe_all();
  ASSERT_TRUE(IsDense(grid_batch));
  ASSERT_TRUE(IsDense(tree_batch));
  ASSERT_TRUE(IsDense(part_batch));
  const AllocCounts before = AllocCountersNow();
  for (int call = 0; call < 8; ++call) probe_all();
  const AllocCounts after = AllocCountersNow();
  EXPECT_EQ(after.count - before.count, 0);
  EXPECT_EQ(after.bytes - before.bytes, 0);
}

// Sparse-regime batches copy, merge or sort each slice in place in items;
// none of the three paths allocates once the pooled buffers have grown.
TEST(ProbeBatchAllocs, SparseRegimeIsAllocationFreeAfterFirstCall) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "allocation hook compiled out";
  Rng rng(32);
  const auto points = RandomPoints(4000, 2, &rng, false);
  std::vector<BoxColumns> box_sets;
  for (int runs = 1; runs <= 3; ++runs) {
    const RegimeCase c{false, 4000, 2, false, false, 32, runs};
    box_sets.push_back(RegimeBoxes(c, &rng, points));
  }
  GridIndex grid(2);
  grid.Build(points);
  RangeTree tree(2);
  tree.Build(points);
  PartitionedIndex part(2, /*shards=*/4);
  part.Build(points);
  ProbeBatch grid_batch, tree_batch, part_batch;
  auto probe_all = [&] {
    for (const BoxColumns& b : box_sets) {
      grid.QueryBatch(b.lo_ptr, b.hi_ptr, b.count, &grid_batch);
      tree.QueryBatch(b.lo_ptr, b.hi_ptr, b.count, &tree_batch);
      part.QueryBatch(b.lo_ptr, b.hi_ptr, b.count, &part_batch);
      EXPECT_FALSE(IsDense(grid_batch));
      EXPECT_FALSE(IsDense(tree_batch));
      EXPECT_FALSE(IsDense(part_batch));
    }
  };
  probe_all();
  const AllocCounts before = AllocCountersNow();
  for (int call = 0; call < 8; ++call) probe_all();
  const AllocCounts after = AllocCountersNow();
  EXPECT_EQ(after.count - before.count, 0);
  EXPECT_EQ(after.bytes - before.bytes, 0);
}

// --- Engine-level: ProbeMode is checksum-invariant ------------------------

uint64_t RunRts(ProbeMode probe, PlanMode plan, int threads, int shards,
                EvalMode eval = EvalMode::kInterpret) {
  RtsConfig config;
  config.num_units = 300;
  config.clustered = true;
  EngineOptions options;
  options.exec.planner.mode = plan;
  options.exec.probe_mode = probe;
  options.exec.eval_mode = eval;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(30).ok());
  return WorldChecksum((*engine)->world());
}

TEST(ProbeModeParity, ChecksumInvariantAcrossProbeModes) {
  const uint64_t single =
      RunRts(ProbeMode::kSingle, PlanMode::kStaticGrid, 1, 1);
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kStaticGrid, 1, 1));
  EXPECT_EQ(single, RunRts(ProbeMode::kAuto, PlanMode::kStaticGrid, 1, 1));
  EXPECT_EQ(single,
            RunRts(ProbeMode::kBatched, PlanMode::kStaticRangeTree, 1, 1));
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kCostBased, 1, 1));
}

TEST(ProbeModeParity, ChecksumInvariantUnderThreadsAndShards) {
  const uint64_t single =
      RunRts(ProbeMode::kSingle, PlanMode::kStaticGrid, 1, 1);
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kStaticGrid, 4, 1));
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kStaticGrid, 1, 4));
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kStaticGrid, 4, 4));
  EXPECT_EQ(single, RunRts(ProbeMode::kAuto, PlanMode::kStaticGrid, 4, 4));
}

// --- Engine-level: both finisher regimes ----------------------------------
//
// One workload per regime, large enough that its batches are real: a
// clustered RTS battle (dense: a few thousand rows, hundreds of thousands
// of candidates) and a 64-lane traffic ring (sparse: under one candidate
// per vehicle, spread over 10k rows). Executors probe 2,048-row morsels, a
// serial tick included; a shard whose selection fits in one morsel probes
// it whole. Each test first checks its regime on the first tick's world in
// morsel-sized and whole-selection batches, then holds batched probing at
// {1, 4 threads} x {1, 3 shards} to ProbeMode::kSingle.

constexpr size_t kMorselRows = 2048;  // ExecOptions::morsel_size default

/// Number column `field` of every `cls` row of `engine`.
std::vector<double> Column(Engine* engine, const char* cls,
                           const std::string& field) {
  const ClassId id = engine->catalog().Find(cls);
  const EntityTable& table = engine->world().table(id);
  ConstNumberColumn col = table.Num(engine->catalog().Get(id).FindState(field));
  std::vector<double> out;
  for (size_t i = 0; i < table.size(); ++i) out.push_back(col[i]);
  return out;
}

/// Regime of each `batch_rows`-row batch over a 2-D grid on `fields` of
/// `cls`, with box [v + lo_off[k], v + hi_off[k]] on field k — the probe
/// the workload's accum loop makes before its residual filter.
std::vector<bool> BatchRegimes(Engine* engine, const char* cls,
                               const char* const fields[2],
                               const double lo_off[2], const double hi_off[2],
                               size_t batch_rows) {
  const std::vector<std::vector<double>> coords = {
      Column(engine, cls, fields[0]), Column(engine, cls, fields[1])};
  const size_t rows = coords[0].size();
  GridIndex grid(2);
  grid.Build(coords);
  std::vector<bool> dense;
  ProbeBatch batch;
  for (size_t m = 0; m < rows; m += batch_rows) {
    const size_t count = std::min(batch_rows, rows - m);
    BoxColumns b;
    b.count = count;
    b.lo.assign(2, std::vector<double>(count));
    b.hi.assign(2, std::vector<double>(count));
    for (size_t k = 0; k < 2; ++k) {
      for (size_t p = 0; p < count; ++p) {
        b.lo[k][p] = coords[k][m + p] + lo_off[k];
        b.hi[k][p] = coords[k][m + p] + hi_off[k];
      }
      b.lo_ptr[k] = b.lo[k].data();
      b.hi_ptr[k] = b.hi[k].data();
    }
    grid.QueryBatch(b.lo_ptr, b.hi_ptr, count, &batch);
    dense.push_back(IsDense(batch));
  }
  return dense;
}

/// Expects every whole-selection batch and every 2,048-row morsel batch
/// to be in the `dense` regime.
void ExpectRegime(Engine* engine, const char* cls,
                  const char* const fields[2], const double lo_off[2],
                  const double hi_off[2], bool dense) {
  const size_t rows =
      engine->world().table(engine->catalog().Find(cls)).size();
  ASSERT_GE(rows, 2 * kMorselRows);
  for (size_t batch_rows : {rows, kMorselRows}) {
    const std::vector<bool> regimes =
        BatchRegimes(engine, cls, fields, lo_off, hi_off, batch_rows);
    EXPECT_EQ(regimes, std::vector<bool>(regimes.size(), dense))
        << batch_rows << "-row batches";
  }
}

EngineOptions GridOpts(ProbeMode probe, int threads, int shards) {
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kStaticGrid;
  options.exec.probe_mode = probe;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  return options;
}

TEST(ProbeModeParity, DenseClusteredRtsMatchesSingle) {
  RtsConfig config;
  config.num_units = 4096;
  config.clustered = true;
  config.num_clusters = 8;
  config.cluster_radius = 40.0;
  auto run = [&](ProbeMode probe, int threads, int shards) {
    auto engine = RtsWorkload::Build(config, GridOpts(probe, threads, shards));
    EXPECT_TRUE(engine.ok()) << engine.status();
    EXPECT_TRUE((*engine)->RunTicks(12).ok());
    return WorldChecksum((*engine)->world());
  };
  {
    auto engine = RtsWorkload::Build(config, GridOpts(ProbeMode::kSingle, 1, 1));
    ASSERT_TRUE(engine.ok()) << engine.status();
    const char* const fields[2] = {"x", "y"};
    const double lo_off[2] = {-config.attack_range, -config.attack_range};
    const double hi_off[2] = {config.attack_range, config.attack_range};
    ExpectRegime(engine->get(), "Unit", fields, lo_off, hi_off,
                 /*dense=*/true);
  }
  const uint64_t single = run(ProbeMode::kSingle, 1, 1);
  for (int threads : {1, 4}) {
    for (int shards : {1, 3}) {
      EXPECT_EQ(single, run(ProbeMode::kBatched, threads, shards))
          << threads << " threads, " << shards << " shards";
    }
  }
}

TEST(ProbeModeParity, SparseTrafficMatchesSingle) {
  TrafficConfig config;  // 10k vehicles
  config.num_lanes = 64;
  auto run = [&](ProbeMode probe, int threads, int shards) {
    auto engine =
        TrafficWorkload::Build(config, GridOpts(probe, threads, shards));
    EXPECT_TRUE(engine.ok()) << engine.status();
    EXPECT_TRUE((*engine)->RunTicks(12).ok());
    return WorldChecksum((*engine)->world());
  };
  {
    auto engine =
        TrafficWorkload::Build(config, GridOpts(ProbeMode::kSingle, 1, 1));
    ASSERT_TRUE(engine.ok()) << engine.status();
    // The Follow script's box: lane == lane, x + 0.001 <= w.x <= x + 40.
    const char* const fields[2] = {"lane", "x"};
    const double lo_off[2] = {0.0, 0.001};
    const double hi_off[2] = {0.0, config.horizon};
    ExpectRegime(engine->get(), "Vehicle", fields, lo_off, hi_off,
                 /*dense=*/false);
  }
  const uint64_t single = run(ProbeMode::kSingle, 1, 1);
  for (int threads : {1, 4}) {
    for (int shards : {1, 3}) {
      EXPECT_EQ(single, run(ProbeMode::kBatched, threads, shards))
          << threads << " threads, " << shards << " shards";
    }
  }
}

// --- Engine-level: a fold that sees candidate order -----------------------
//
// The RTS and traffic scripts fold candidates with min or with sums of
// small binary fractions, which no candidate order can change, so a
// finisher that put a slice out of order would still pass the parity tests
// above. These scripts sum a non-dyadic value over each probe's
// candidates, and keep the sum in state: with three or more terms its
// rounding depends on their order, so the world checksum sees pair order.
// They run over the positions and probe boxes of the two workloads above.

constexpr char kTrafficOrderSource[] = R"sgl(
class Vehicle {
  state:
    number lane = 0;
    number x = 0;
    number horizon = 40;
    number ahead = 0;
  effects:
    number seen : sum;
  update:
    ahead = seen;
}

script Sense for Vehicle {
  accum number s with sum over Vehicle w from Vehicle {
    if (w.lane == lane && w.x >= x + 0.001 && w.x <= x + horizon) {
      s <- w.x / 7;
    }
  } in {
    seen <- s;
  }
}
)sgl";

constexpr char kRtsOrderSource[] = R"sgl(
class Unit {
  state:
    number x = 0;
    number y = 0;
    number range = 15;
    number near = 0;
  effects:
    number seen : sum;
  update:
    near = seen;
}

script Sense for Unit {
  accum number s with sum over Unit w from Unit {
    if (w.x >= x - range && w.x <= x + range &&
        w.y >= y - range && w.y <= y + range) {
      s <- w.x / 7 + w.y / 3;
    }
  } in {
    seen <- s;
  }
}
)sgl";

/// World checksum after `ticks` ticks of `source` over `cls` entities
/// spawned with `fields` copied row by row from `layout`.
uint64_t RunOrderSensitive(Engine* layout, const char* cls,
                           const std::vector<std::string>& fields,
                           const char* source, const EngineOptions& options,
                           int ticks) {
  auto engine = Engine::Create(source, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  std::vector<std::vector<double>> cols;
  for (const std::string& f : fields) cols.push_back(Column(layout, cls, f));
  for (size_t i = 0; i < cols[0].size(); ++i) {
    std::vector<std::pair<std::string, Value>> init;
    for (size_t f = 0; f < fields.size(); ++f) {
      init.emplace_back(fields[f], Value::Number(cols[f][i]));
    }
    EXPECT_TRUE((*engine)->Spawn(cls, init).ok());
  }
  EXPECT_TRUE((*engine)->RunTicks(ticks).ok());
  return WorldChecksum((*engine)->world());
}

/// Outer rows whose sum of term(w) over their candidates w rounds
/// differently when the candidates are added in descending row order: the
/// order sensitivity the checksum relies on.
template <typename Candidates, typename Term>
int OrderSensitiveRows(size_t rows, Candidates candidates, Term term) {
  int sensitive = 0;
  std::vector<RowIdx> cand;
  for (size_t i = 0; i < rows; ++i) {
    cand.clear();
    candidates(i, &cand);
    std::sort(cand.begin(), cand.end());
    double up = 0, down = 0;
    for (RowIdx w : cand) up += term(w);
    for (auto w = cand.rbegin(); w != cand.rend(); ++w) down += term(*w);
    if (up != down) ++sensitive;
  }
  return sensitive;
}

TEST(ProbeModeParity, OrderSensitiveFoldOnSparseTraffic) {
  TrafficConfig config;  // the sparse 64-lane ring of SparseTrafficMatchesSingle
  config.num_lanes = 64;
  auto layout =
      TrafficWorkload::Build(config, GridOpts(ProbeMode::kSingle, 1, 1));
  ASSERT_TRUE(layout.ok()) << layout.status();
  const std::vector<std::string> fields = {"lane", "x", "horizon"};
  {
    const std::vector<double> lane = Column(layout->get(), "Vehicle", "lane");
    const std::vector<double> x = Column(layout->get(), "Vehicle", "x");
    GridIndex grid(2);
    grid.Build(std::vector<std::vector<double>>{lane, x});
    const int sensitive = OrderSensitiveRows(
        x.size(),
        [&](size_t i, std::vector<RowIdx>* out) {
          const double lo[2] = {lane[i], x[i] + 0.001};
          const double hi[2] = {lane[i], x[i] + config.horizon};
          grid.Query(lo, hi, out);
        },
        [&](RowIdx w) { return x[w] / 7; });
    EXPECT_GT(sensitive, 0);
  }
  auto run = [&](ProbeMode probe, int threads, int shards) {
    return RunOrderSensitive(layout->get(), "Vehicle", fields,
                             kTrafficOrderSource,
                             GridOpts(probe, threads, shards), 3);
  };
  const uint64_t single = run(ProbeMode::kSingle, 1, 1);
  for (int threads : {1, 4}) {
    for (int shards : {1, 3}) {
      EXPECT_EQ(single, run(ProbeMode::kBatched, threads, shards))
          << threads << " threads, " << shards << " shards";
    }
  }
}

TEST(ProbeModeParity, OrderSensitiveFoldOnDenseClusteredRts) {
  RtsConfig config;  // the dense battle of DenseClusteredRtsMatchesSingle
  config.num_units = 4096;
  config.clustered = true;
  config.num_clusters = 8;
  config.cluster_radius = 40.0;
  auto layout = RtsWorkload::Build(config, GridOpts(ProbeMode::kSingle, 1, 1));
  ASSERT_TRUE(layout.ok()) << layout.status();
  const std::vector<std::string> fields = {"x", "y", "range"};
  {
    const std::vector<double> x = Column(layout->get(), "Unit", "x");
    const std::vector<double> y = Column(layout->get(), "Unit", "y");
    const double r = config.attack_range;
    GridIndex grid(2);
    grid.Build(std::vector<std::vector<double>>{x, y});
    const int sensitive = OrderSensitiveRows(
        x.size(),
        [&](size_t i, std::vector<RowIdx>* out) {
          const double lo[2] = {x[i] - r, y[i] - r};
          const double hi[2] = {x[i] + r, y[i] + r};
          grid.Query(lo, hi, out);
        },
        [&](RowIdx w) { return x[w] / 7 + y[w] / 3; });
    EXPECT_GT(sensitive, 0);
  }
  auto run = [&](ProbeMode probe, int threads, int shards) {
    return RunOrderSensitive(layout->get(), "Unit", fields, kRtsOrderSource,
                             GridOpts(probe, threads, shards), 3);
  };
  const uint64_t single = run(ProbeMode::kSingle, 1, 1);
  for (int threads : {1, 4}) {
    for (int shards : {1, 3}) {
      EXPECT_EQ(single, run(ProbeMode::kBatched, threads, shards))
          << threads << " threads, " << shards << " shards";
    }
  }
}

TEST(ProbeModeParity, ChecksumInvariantWithBytecodeAndAutoEval) {
  const uint64_t single = RunRts(ProbeMode::kSingle, PlanMode::kStaticGrid,
                                 1, 1, EvalMode::kInterpret);
  EXPECT_EQ(single, RunRts(ProbeMode::kBatched, PlanMode::kStaticGrid, 1, 1,
                           EvalMode::kBytecode));
  EXPECT_EQ(single, RunRts(ProbeMode::kAuto, PlanMode::kStaticGrid, 1, 1,
                           EvalMode::kAuto));
}

}  // namespace
}  // namespace sgl
