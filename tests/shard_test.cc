// Tests for the sharded world partition (src/shard/): checksum parity of
// the sharded pipeline against the single-world executor across shard
// count × thread count × morsel size, cross-shard effect routing, the
// partition-independence of transaction admission under sharding, bulk
// columnar spawn/despawn, and the migration property (random migration
// batches move state without changing it, and migrated runs stay
// bit-identical across thread counts at a fixed shard count).

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

constexpr int kTicks = 30;

EngineOptions ShardOpts(PlanMode mode, int shards, int threads = 1,
                        size_t morsel = 2048, bool interpreted = false) {
  EngineOptions options;
  options.exec.planner.mode = mode;
  options.exec.num_shards = shards;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  options.exec.interpreted = interpreted;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;  // dense joins: heavy cross-shard damage traffic
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

uint64_t RunRts(const EngineOptions& options, int units = 300,
                int ticks = kTicks) {
  auto engine = BuildRts(units, options);
  EXPECT_TRUE(engine->RunTicks(ticks).ok());
  return WorldChecksum(engine->world());
}

// --- E1: checksum-parity sweep -------------------------------------------

TEST(ShardParity, RtsShardCountThreadCountMorselSweep) {
  const uint64_t baseline = RunRts(ShardOpts(PlanMode::kStaticGrid, 1));
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 2, 4}) {
      for (size_t morsel : {size_t{64}, size_t{2048}}) {
        EngineOptions options =
            ShardOpts(PlanMode::kStaticGrid, shards, threads, morsel);
        EXPECT_EQ(RunRts(options), baseline)
            << "shards=" << shards << " threads=" << threads
            << " morsel=" << morsel;
      }
    }
  }
}

TEST(ShardParity, RtsMatchesAcrossPlanModes) {
  const uint64_t baseline = RunRts(ShardOpts(PlanMode::kStaticGrid, 1));
  EXPECT_EQ(RunRts(ShardOpts(PlanMode::kStaticRangeTree, 4)), baseline);
  EXPECT_EQ(RunRts(ShardOpts(PlanMode::kCostBased, 4)), baseline);
  EXPECT_EQ(RunRts(ShardOpts(PlanMode::kStaticNL, 3, 1, 2048,
                             /*interpreted=*/true)),
            baseline);
}

TEST(ShardParity, CrossShardEffectsActuallyFlow) {
  // Clustered RTS battles damage enemies everywhere in the arena; with 4
  // block shards a large share of those writes must cross shards.
  auto engine = BuildRts(300, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(5).ok());
  EXPECT_GT(engine->shard_executor().last_cross_shard_records(), 0u);
  EXPECT_EQ(engine->sharded_world().epoch(), 5u);
}

// --- E3: transactional market under sharding ------------------------------

MarketConfig MarketCfg() {
  MarketConfig config;
  config.num_traders = 128;
  config.num_items = 256;
  config.contention = 6;
  config.active_fraction = 0.25;
  return config;
}

uint64_t RunMarket(int shards, int threads, int64_t* committed = nullptr) {
  MarketConfig config = MarketCfg();
  EngineOptions options = ShardOpts(PlanMode::kCostBased, shards, threads,
                                    /*morsel=*/64);
  auto engine = MarketWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Rng rng(1234);
  int64_t total_committed = 0;
  for (int t = 0; t < kTicks; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    EXPECT_TRUE((*engine)->Tick().ok());
    total_committed += (*engine)->last_stats().txn.committed;
  }
  EXPECT_GT(total_committed, 0);
  EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
  EXPECT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
  if (committed != nullptr) *committed = total_committed;
  return WorldChecksum((*engine)->world());
}

// Admission must be independent of the shard-of-owner dimension: the same
// intent multiset partitioned across 1, 2, or 4 per-shard logs (serial and
// parallel) commits the same transactions — PR 3's partition-independence
// property, re-proven through the sharded pipeline.
TEST(ShardParity, MarketAdmissionIndependentOfShardPartitioning) {
  int64_t committed1 = 0;
  const uint64_t baseline = RunMarket(1, 1, &committed1);
  for (int shards : {2, 4}) {
    for (int threads : {1, 4}) {
      int64_t committed = 0;
      EXPECT_EQ(RunMarket(shards, threads, &committed), baseline)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(committed, committed1);
    }
  }
}

// --- E8: traffic ----------------------------------------------------------

uint64_t RunTraffic(int shards, int threads) {
  TrafficConfig config;
  config.num_vehicles = 1500;
  config.num_lanes = 16;
  EngineOptions options =
      ShardOpts(PlanMode::kCostBased, shards, threads, /*morsel=*/512);
  auto engine = TrafficWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(kTicks).ok());
  EXPECT_TRUE(
      TrafficWorkload::PositionsInBounds(engine->get(), config.road_length));
  return WorldChecksum((*engine)->world());
}

TEST(ShardParity, TrafficMatchesSingleShard) {
  const uint64_t baseline = RunTraffic(1, 1);
  EXPECT_EQ(RunTraffic(4, 1), baseline);
  EXPECT_EQ(RunTraffic(4, 4), baseline);
}

// --- Migration ------------------------------------------------------------

TEST(Migration, RandomBatchesPreserveWorldChecksum) {
  MarketConfig config = MarketCfg();
  auto engine =
      MarketWorkload::Build(config, ShardOpts(PlanMode::kCostBased, 4));
  ASSERT_TRUE(engine.ok());
  Rng rng(99);
  ASSERT_TRUE((*engine)->RunTicks(3).ok());  // build partition + some churn

  ShardedWorld& sharded = (*engine)->sharded_world();
  World& world = (*engine)->world();
  for (int round = 0; round < 20; ++round) {
    const uint64_t before = CanonicalWorldChecksum(world);
    std::vector<ShardMove> moves;
    const int batch = 1 + static_cast<int>(rng.Next() % 40);
    for (int i = 0; i < batch; ++i) {
      // Ids are dense from 1 (traders then items).
      EntityId id = 1 + static_cast<EntityId>(
                            rng.Next() %
                            (config.num_traders + config.num_items));
      moves.push_back(ShardMove{id, static_cast<int>(rng.Next() % 4)});
    }
    ASSERT_TRUE(sharded.MigrateNow(moves).ok());
    EXPECT_TRUE(sharded.PartitionConsistent());
    // Migration moves state; it must not change it.
    EXPECT_EQ(CanonicalWorldChecksum(world), before);
    EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
  }
}

// At a fixed shard count, runs with identical migration schedules are
// bit-identical for any thread count — migrations resolve at the barrier
// from an explicit queue, never concurrently with the query phase.
TEST(Migration, MigratedRunsBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    RtsConfig config;
    config.num_units = 200;
    config.clustered = true;
    auto engine = RtsWorkload::Build(
        config, ShardOpts(PlanMode::kStaticGrid, 4, threads));
    EXPECT_TRUE(engine.ok());
    Rng rng(7);
    for (int t = 0; t < 20; ++t) {
      if (t % 3 == 1) {
        for (int i = 0; i < 10; ++i) {
          EntityId id = 1 + static_cast<EntityId>(rng.Next() % 200);
          EXPECT_TRUE((*engine)
                          ->sharded_world()
                          .QueueMigration(
                              id, static_cast<int>(rng.Next() % 4))
                          .ok());
        }
      }
      EXPECT_TRUE((*engine)->Tick().ok());
    }
    return WorldChecksum((*engine)->world());
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Bulk columnar spawn / despawn ---------------------------------------

TEST(BulkRows, SpawnBatchMatchesSingleSpawns) {
  auto a = BuildRts(64, ShardOpts(PlanMode::kStaticGrid, 4));
  auto b = BuildRts(64, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(a->Tick().ok());
  ASSERT_TRUE(b->Tick().ok());

  const ClassId unit = a->catalog().Find("Unit");
  ASSERT_NE(unit, kInvalidClass);

  // a: columnar batch into shard 1; b: singles into shard 1.
  std::vector<EntityId> batch_ids;
  ASSERT_TRUE(
      a->sharded_world().SpawnBatch(unit, 33, /*shard=*/1, &batch_ids).ok());
  ASSERT_EQ(batch_ids.size(), 33u);
  for (int i = 0; i < 33; ++i) {
    auto id = b->sharded_world().Spawn("Unit", {}, /*shard=*/1);
    ASSERT_TRUE(id.ok());
  }
  EXPECT_TRUE(a->sharded_world().PartitionConsistent());
  EXPECT_TRUE(b->sharded_world().PartitionConsistent());
  EXPECT_EQ(CanonicalWorldChecksum(a->world()),
            CanonicalWorldChecksum(b->world()));
  for (EntityId id : batch_ids) {
    EXPECT_EQ(a->sharded_world().ShardOfEntity(id), 1);
  }
  // The engine keeps ticking correctly over the grown partition.
  ASSERT_TRUE(a->RunTicks(3).ok());
  ASSERT_TRUE(b->RunTicks(3).ok());
  EXPECT_EQ(WorldChecksum(a->world()), WorldChecksum(b->world()));
}

TEST(BulkRows, DespawnBatchDropsExactlyTheVictims) {
  auto engine = BuildRts(100, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->Tick().ok());
  ShardedWorld& sharded = engine->sharded_world();

  std::vector<EntityId> victims;
  for (EntityId id = 5; id <= 95; id += 5) victims.push_back(id);
  ASSERT_TRUE(sharded.DespawnBatch(victims).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());
  EXPECT_EQ(engine->world().TotalEntities(), 100u - victims.size());
  for (EntityId id : victims) {
    EXPECT_EQ(engine->world().Find(id), nullptr);
  }
  EXPECT_NE(engine->world().Find(1), nullptr);
  ASSERT_TRUE(engine->RunTicks(3).ok());  // still ticks cleanly
}

// --- Directory (open-addressing World::Find) ------------------------------

TEST(EntityDirectoryTest, InsertFindEraseChurn) {
  EntityDirectory dir;
  Rng rng(5);
  std::vector<EntityId> live;
  for (int round = 0; round < 5000; ++round) {
    if (live.empty() || rng.Next() % 3 != 0) {
      EntityId id = 1 + static_cast<EntityId>(rng.Next() % 100000);
      if (dir.Find(id) == nullptr) {
        dir.Insert(id, static_cast<ClassId>(id % 3),
                   static_cast<RowIdx>(id % 977));
        live.push_back(id);
      }
    } else {
      size_t pick = rng.Next() % live.size();
      EntityId id = live[pick];
      EXPECT_TRUE(dir.Erase(id));
      EXPECT_EQ(dir.Find(id), nullptr);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(dir.size(), live.size());
  for (EntityId id : live) {
    const EntityLocator* loc = dir.Find(id);
    ASSERT_NE(loc, nullptr);
    EXPECT_EQ(loc->cls, static_cast<ClassId>(id % 3));
    EXPECT_EQ(loc->row, static_cast<RowIdx>(id % 977));
  }
  dir.Clear();
  EXPECT_EQ(dir.size(), 0u);
  for (EntityId id : live) {
    EXPECT_EQ(dir.Find(id), nullptr);
  }
}

// --- Checkpoint round-trip under sharding ---------------------------------

TEST(ShardParity, CheckpointRestoreResumesShardedRun) {
  auto engine = BuildRts(120, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(10).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(120, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_EQ(resumed->tick(), cp.tick);
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// Sharded checkpoints persist the partition: a run that migrated entities
// resumes with the exact post-migration ranges (not a fresh re-blocking),
// so restored runs are bit-identical to the uninterrupted one — including
// the cross-shard traffic pattern.
TEST(ShardParity, CheckpointRestoresMigratedPartitionExactly) {
  const int units = 150;
  auto engine = BuildRts(units, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(5).ok());

  // Shuffle a third of the units across shards, then run a few more ticks
  // so the migrated partition is the live one.
  Rng rng(23);
  std::vector<ShardMove> moves;
  for (EntityId id = 1; id <= units; id += 3) {
    moves.push_back(ShardMove{id, static_cast<int>(rng.Next() % 4)});
  }
  ASSERT_TRUE(engine->sharded_world().MigrateNow(moves).ok());
  ASSERT_TRUE(engine->RunTicks(3).ok());

  Checkpoint cp = engine->TakeCheckpoint();
  EXPECT_FALSE(cp.shard_partition.empty());

  // Record the live partition, then continue the original run.
  std::vector<int> shard_of;
  for (EntityId id = 1; id <= units; ++id) {
    shard_of.push_back(engine->sharded_world().ShardOfEntity(id));
  }
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());
  const size_t final_cross = engine->shard_executor().last_cross_shard_records();

  auto resumed = BuildRts(units, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_TRUE(resumed->sharded_world().PartitionConsistent());
  for (EntityId id = 1; id <= units; ++id) {
    EXPECT_EQ(resumed->sharded_world().ShardOfEntity(id),
              shard_of[static_cast<size_t>(id - 1)])
        << "entity " << id << " restored into a different shard";
  }
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
  // Same partition => same cross-shard routing, tick for tick.
  EXPECT_EQ(resumed->shard_executor().last_cross_shard_records(),
            final_cross);
}

// A checkpoint taken under one shard count restored under another cannot
// reuse the partition blob; restore falls back to fresh block ranges and
// still resumes with correct state.
TEST(ShardParity, CheckpointShardCountMismatchFallsBackToBlock) {
  auto engine = BuildRts(90, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(5).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(90, ShardOpts(PlanMode::kStaticGrid, 2));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_TRUE(resumed->sharded_world().PartitionConsistent());
  ASSERT_TRUE(resumed->RunTicks(8).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// Direct round-trip of the partition blob, including the reject paths.
TEST(ShardedWorldTest, PartitionSerializeRestoreRoundTrip) {
  auto engine = BuildRts(64, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->Tick().ok());
  ShardedWorld& sharded = engine->sharded_world();

  std::string blob;
  sharded.SerializePartition(&blob);
  EXPECT_TRUE(sharded.RestorePartition(blob).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());

  std::string truncated = blob.substr(0, blob.size() - 3);
  EXPECT_FALSE(sharded.RestorePartition(truncated).ok());
  std::string garbage = blob;
  garbage[0] ^= 0x5a;  // magic
  EXPECT_FALSE(sharded.RestorePartition(garbage).ok());
  // Rejects must leave the good partition usable.
  EXPECT_TRUE(sharded.RestorePartition(blob).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());
}

}  // namespace
}  // namespace sgl
