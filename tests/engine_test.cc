// Engine facade: construction errors, entity lifecycle, option plumbing,
// and misuse reporting — the surface a downstream user touches first.

#include <gtest/gtest.h>

#include "src/common/alloc_hook.h"
#include "src/engine/engine.h"

namespace sgl {
namespace {

const char* kMinimal = R"sgl(
class A {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
}
script S for A { d <- 1; }
)sgl";

TEST(Engine, CreateReportsParseErrorsWithPosition) {
  auto engine = Engine::Create("class { broken");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kParseError, engine.status().code());
}

TEST(Engine, CreateReportsSemanticErrors) {
  auto engine = Engine::Create("class A { state: number x = 0; }\n"
                               "script S for A { x <- 1; }");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kSemanticError, engine.status().code());
}

TEST(Engine, SpawnUnknownClassFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(StatusCode::kNotFound,
            (*engine)->Spawn("Nope", {}).status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            (*engine)
                ->Spawn("A", {{"nope", Value::Number(1)}})
                .status()
                .code());
}

TEST(Engine, GetSetRoundTripAndErrors) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("A", {{"x", Value::Number(7)}});
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(7.0, (*engine)->Get(*id, "x")->AsNumber());
  EXPECT_TRUE((*engine)->Set(*id, "x", Value::Number(9)).ok());
  EXPECT_DOUBLE_EQ(9.0, (*engine)->Get(*id, "x")->AsNumber());
  EXPECT_FALSE((*engine)->Get(*id, "missing").ok());
  EXPECT_FALSE((*engine)->Get(12345, "x").ok());
  EXPECT_FALSE((*engine)->Set(*id, "x", Value::Bool(true)).ok());
}

TEST(Engine, DespawnTwiceFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("A", {});
  EXPECT_TRUE((*engine)->Despawn(*id).ok());
  EXPECT_EQ(StatusCode::kNotFound, (*engine)->Despawn(*id).code());
}

TEST(Engine, TickCounterAdvances) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(0, (*engine)->tick());
  ASSERT_TRUE((*engine)->RunTicks(5).ok());
  EXPECT_EQ(5, (*engine)->tick());
}

TEST(Engine, SpawnMidSimulationJoinsNextTick) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto a = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
  auto b = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->RunTicks(2).ok());
  EXPECT_DOUBLE_EQ(5.0, (*engine)->Get(*a, "x")->AsNumber());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*b, "x")->AsNumber());
}

TEST(Engine, MultipleScriptsPerClassRunInProgramOrder) {
  const char* src = R"sgl(
class A {
  state:
    number first_val = 0;
  effects:
    number e : first;
  update:
    first_val = e;
}
script One for A { e <- 1; }
script Two for A { e <- 2; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  // kFirst resolves by canonical program order: script One wins.
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "first_val")->AsNumber());
}

TEST(Engine, MultipleClassesCoexist) {
  const char* src = R"sgl(
class A {
  state:
    number n = 0;
  effects:
    number d : sum;
  update:
    n = n + d;
}
class B {
  state:
    number n = 0;
  effects:
    number d : sum;
  update:
    n = n + d;
}
script SA for A { d <- 1; }
script SB for B { d <- 10; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto a = (*engine)->Spawn("A", {});
  auto b = (*engine)->Spawn("B", {});
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
  EXPECT_DOUBLE_EQ(3.0, (*engine)->Get(*a, "n")->AsNumber());
  EXPECT_DOUBLE_EQ(30.0, (*engine)->Get(*b, "n")->AsNumber());
}

TEST(Engine, OptionsArePluumbedThrough) {
  EngineOptions options;
  options.exec.num_threads = 2;
  options.exec.planner.mode = PlanMode::kAdaptive;
  options.layout = LayoutStrategy::kPerField;
  auto engine = Engine::Create(kMinimal, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(2, (*engine)->executor().options().num_threads);
  EXPECT_EQ(PlanMode::kAdaptive,
            (*engine)->executor().controller().mode());
  ClassId cls = (*engine)->catalog().Find("A");
  EXPECT_EQ(1u, (*engine)->world().table(cls).grouping().groups.size());
  ASSERT_TRUE((*engine)->RunTicks(2).ok());
}

// --- Option validation ------------------------------------------------------
// Values that would fault mid-tick (divide by zero, a morsel loop that never
// advances, a shard id that does not fit a byte) are refused up front. One
// exec thread throughout: none of these cases needs a pool.

TEST(Engine, ZeroMorselSizeIsRejected) {
  for (int shards : {1, 3}) {
    EngineOptions options;
    options.exec.num_threads = 1;
    options.exec.num_shards = shards;
    options.exec.morsel_size = 0;
    auto engine = Engine::Create(kMinimal, options);
    ASSERT_FALSE(engine.ok()) << "shards=" << shards;
    EXPECT_EQ(StatusCode::kInvalidArgument, engine.status().code());
  }
}

TEST(Engine, ShardCountAboveByteRangeIsRejected) {
  for (int shards : {255, 300}) {
    EngineOptions options;
    options.exec.num_threads = 1;
    options.exec.num_shards = shards;
    auto engine = Engine::Create(kMinimal, options);
    ASSERT_FALSE(engine.ok()) << "shards=" << shards;
    EXPECT_EQ(StatusCode::kInvalidArgument, engine.status().code());
  }
}

TEST(Engine, LargestShardCountAndSmallestMorselTick) {
  EngineOptions options;
  options.exec.num_threads = 1;
  options.exec.num_shards = 254;
  options.exec.morsel_size = 1;
  auto engine = Engine::Create(kMinimal, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*engine)->RunTicks(2).ok());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*id, "x")->AsNumber());
}

// --- One executor in every layout ----------------------------------------

// Trucks write their depot's effects through a ref; a handler and an
// index-able range accum ride along. Nothing the selections or joins see
// changes from tick to tick, so every buffer reaches its high-water mark
// during warm-up.
const char* kDepots = R"sgl(
class Depot {
  state:
    number stock = 0;
  effects:
    number inflow : sum;
  update:
    stock = stock + inflow;
}
class Truck {
  state:
    number x = 0;
    number near = 0;
    ref<Depot> depot = null;
  effects:
    number n_near : last;
  update:
    near = n_near;
}
script Deliver for Truck {
  if (depot != null) { depot.inflow <- x / 7; }
  accum number n with sum over Truck t from Truck {
    if (t.x >= x - 2 && t.x <= x + 2) { n <- 1; }
  } in { n_near <- n; }
}
when Truck Rush (x > 40) { depot.inflow <- 1; }
)sgl";

std::unique_ptr<Engine> BuildDepots(int threads, int shards) {
  EngineOptions options;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  options.exec.morsel_size = 64;
  auto engine = Engine::Create(kDepots, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  std::vector<EntityId> depots;
  for (int d = 0; d < 4; ++d) {
    depots.push_back(*(*engine)->Spawn("Depot", {}));
  }
  for (int i = 0; i < 600; ++i) {
    EXPECT_TRUE((*engine)
                    ->Spawn("Truck", {{"x", Value::Number(i % 97)},
                                      {"depot", Value::Ref(depots[i % 4])}})
                    .ok());
  }
  return std::move(engine).value();
}

TEST(Engine, ExecutorIsValidInEveryLayout) {
  auto sharded = BuildDepots(/*threads=*/1, /*shards=*/3);
  ASSERT_TRUE(sharded->sharded());
  EXPECT_EQ(&sharded->executor(), &sharded->shard_executor());
  ASSERT_TRUE(sharded->RunTicks(2).ok());
  EXPECT_EQ(&sharded->executor().last_stats(), &sharded->last_stats());
  EXPECT_GT(sharded->executor().last_cross_shard_records(), 0u);

  auto single = BuildDepots(/*threads=*/1, /*shards=*/1);
  ASSERT_FALSE(single->sharded());
  ASSERT_TRUE(single->RunTicks(2).ok());
  EXPECT_EQ(0u, single->executor().last_cross_shard_records());
}

TEST(Engine, OneExecutorTicksAllocationFreeInEveryLayout) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  struct Layout {
    int threads;
    int shards;
  };
  for (const Layout& layout : {Layout{1, 1}, Layout{4, 1}, Layout{1, 3}}) {
    auto engine = BuildDepots(layout.threads, layout.shards);
    ASSERT_TRUE(engine->RunTicks(12).ok());
    for (int t = 0; t < 6; ++t) {
      ASSERT_TRUE(engine->Tick().ok());
      EXPECT_EQ(0, engine->executor().last_stats().allocs_per_tick)
          << "threads=" << layout.threads << " shards=" << layout.shards
          << " " << DescribeTickStats(engine->executor().last_stats());
    }
  }
}

TEST(Engine, PhysicsOnUnknownClassFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  PhysicsConfig config;
  config.cls = "Ghost";
  EXPECT_EQ(StatusCode::kNotFound, (*engine)->AddPhysics(config).code());
}

TEST(Engine, ScriptForMissingClassFails) {
  auto engine = Engine::Create("script S for Nothing { }");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kNotFound, engine.status().code());
}

}  // namespace
}  // namespace sgl
