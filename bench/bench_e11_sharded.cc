// E11 — sharded world partitioning (src/shard/): tick latency, phase
// breakdown, cross-shard routing volume, and allocs_per_tick vs shard
// count at 16k and 64k entities.
//
// Series: ms/tick for the RTS battle under {1, 2, 4, 8} shards, each
// shard a self-contained QUERY pipeline fanned out across 4 threads, with
// effects routed through per-(src,dst) mailboxes and merged at the tick
// barrier; the single-shard row is the no-partition baseline the
// checksum-parity tests pin the others to. Also: the columnar
// EntityMigrator's bulk-move throughput (entities moved per rebuilt
// arena), the contrast with one-at-a-time spawns, and the traffic
// workload at 16k vehicles where the 1-D road makes cross-shard writes
// rare (the near-ideal partitioning case).

#include <thread>

#include "bench/bench_util.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"

namespace {

std::unique_ptr<sgl::Engine> BuildShardedRts(int units, int shards,
                                             int threads,
                                             bool clustered = true) {
  sgl::RtsConfig config;
  config.num_units = units;
  config.clustered = clustered;
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kStaticGrid, false, threads);
  options.exec.num_shards = shards;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  // Zero attack so nobody dies: the measured regime keeps every matching
  // pair emitting its (frequently cross-shard) damage write each tick —
  // a stationary peak load instead of a battle that decays to an empty
  // world during warmup.
  for (sgl::EntityId id = 1; id <= units; ++id) {
    if (!(*engine)->Set(id, "attack", sgl::Value::Number(0)).ok()) {
      std::abort();
    }
  }
  return std::move(engine).value();
}

// Threads stay at 1 so the series isolates the partition layer's own cost
// (routing + mailbox merge vs direct dense writes); on a multicore box the
// shard fan-out additionally parallelizes the query phase (E6's scaling
// shape), which `hw_cores` lets readers of the JSON calibrate for. The
// 16k rows are the dense clustered battle (heavy cross-shard traffic);
// 64k runs uniform, or the join fan-out would swamp the measurement.
void BM_ShardedRtsTick(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  auto engine = BuildShardedRts(units, shards, /*threads=*/1,
                                /*clustered=*/units <= 16384);
  sgl_bench::WarmupSteadyState(engine.get());
  int64_t query_us = 0, merge_us = 0, update_us = 0, allocs = 0;
  int64_t cross = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    query_us += engine->last_stats().query_effect_micros;
    merge_us += engine->last_stats().merge_micros;
    update_us += engine->last_stats().update_micros;
    allocs += engine->last_stats().allocs_per_tick;
    if (engine->sharded()) {
      cross += static_cast<int64_t>(
          engine->shard_executor().last_cross_shard_records());
    }
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["units"] = units;
  state.counters["shards"] = shards;
  state.counters["query_ms"] = static_cast<double>(query_us) / n / 1000.0;
  state.counters["merge_ms"] = static_cast<double>(merge_us) / n / 1000.0;
  state.counters["update_ms"] = static_cast<double>(update_us) / n / 1000.0;
  state.counters["allocs_per_tick"] = static_cast<double>(allocs) / n;
  state.counters["cross_records"] = static_cast<double>(cross) / n;
  state.counters["hw_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

BENCHMARK(BM_ShardedRtsTick)
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->Args({16384, 8})
    ->Args({65536, 1})
    ->Args({65536, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

// Traffic at 16k vehicles: lane-local interactions under a block
// partition mean almost no cross-shard records — the workload sharding is
// supposed to love.
void BM_ShardedTrafficTick(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  sgl::TrafficConfig config;
  config.num_vehicles = 16384;
  config.num_lanes = 32;
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kCostBased, false, /*threads=*/1);
  options.exec.num_shards = shards;
  auto engine = sgl::TrafficWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::WarmupSteadyState(engine->get());
  int64_t allocs = 0;
  for (auto _ : state) {
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
    allocs += (*engine)->last_stats().allocs_per_tick;
  }
  state.counters["shards"] = shards;
  state.counters["allocs_per_tick"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_ShardedTrafficTick)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

// Columnar bulk migration: move a random 25% of 16k units to new shards
// in one batch (one slice rebuild per class) and undo it, vs what the
// boxed path would do row-at-a-time.
void BM_MigrateBatch(benchmark::State& state) {
  const int units = 16384;
  auto engine = BuildShardedRts(units, /*shards=*/4, /*threads=*/1);
  if (!engine->Tick().ok()) std::abort();  // builds the partition
  sgl::Rng rng(17);
  std::vector<sgl::ShardMove> there, back;
  for (sgl::EntityId id = 1; id <= units; ++id) {
    if (rng.Next() % 4 != 0) continue;
    there.push_back(
        sgl::ShardMove{id, static_cast<int>(rng.Next() % 4)});
    back.push_back(sgl::ShardMove{
        id, engine->sharded_world().ShardOfEntity(id)});
  }
  for (auto _ : state) {
    if (!engine->sharded_world().MigrateNow(there).ok()) {
      state.SkipWithError("migrate failed");
    }
    if (!engine->sharded_world().MigrateNow(back).ok()) {
      state.SkipWithError("migrate failed");
    }
  }
  state.counters["moved_per_batch"] = static_cast<double>(there.size());
}

BENCHMARK(BM_MigrateBatch)->Unit(benchmark::kMillisecond)->MinTime(0.2);

// Columnar bulk spawn vs one-at-a-time boxed spawns, 4k rows into a
// 16k-unit 4-shard world.
void BM_SpawnBatchColumnar(benchmark::State& state) {
  auto engine = BuildShardedRts(16384, 4, 1);
  if (!engine->Tick().ok()) std::abort();
  const sgl::ClassId unit = engine->catalog().Find("Unit");
  std::vector<sgl::EntityId> ids;
  for (auto _ : state) {
    ids.clear();
    if (!engine->sharded_world().SpawnBatch(unit, 4096, 1, &ids).ok()) {
      state.SkipWithError("spawn failed");
    }
    state.PauseTiming();
    if (!engine->sharded_world().DespawnBatch(ids).ok()) {
      state.SkipWithError("despawn failed");
    }
    state.ResumeTiming();
  }
  state.counters["rows_per_batch"] = 4096;
}

BENCHMARK(BM_SpawnBatchColumnar)->Unit(benchmark::kMillisecond)->MinTime(0.2);

// The boxed comparison: one-at-a-time spawns into the *same* target shard
// (each pays a per-row default round-trip plus its own slide-into-range
// move), vs the batch's single columnar rebuild above.
void BM_SpawnSingles(benchmark::State& state) {
  auto engine = BuildShardedRts(16384, 4, 1);
  if (!engine->Tick().ok()) std::abort();
  std::vector<sgl::EntityId> ids;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 4096; ++i) {
      auto id = engine->sharded_world().Spawn("Unit", {}, /*shard=*/1);
      if (!id.ok()) state.SkipWithError("spawn failed");
      ids.push_back(*id);
    }
    state.PauseTiming();
    if (!engine->sharded_world().DespawnBatch(ids).ok()) {
      state.SkipWithError("despawn failed");
    }
    state.ResumeTiming();
  }
  state.counters["rows_per_batch"] = 4096;
}

BENCHMARK(BM_SpawnSingles)->Unit(benchmark::kMillisecond)->MinTime(0.2);

}  // namespace

BENCHMARK_MAIN();
