// Tick-pipeline semantics: state-effect discipline (§2), combinators, update
// rules, multi-tick PC dispatch (§3.2), reactive handlers + restart (§3.2),
// cross-entity effects, and update components' interplay.

#include <gtest/gtest.h>

#include "src/common/cpu_features.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"

namespace sgl {
namespace {

// --- Combinator semantics through a full tick -----------------------------

TEST(Exec, SumCombinatorAccumulates) {
  const char* src = R"sgl(
class A {
  state:
    number total = 0;
  effects:
    number d : sum;
  update:
    total = total + d;
}
script S for A { d <- 2; d <- 3; d <- 5; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(10.0, (*engine)->Get(*id, "total")->AsNumber());
}

TEST(Exec, AvgMinMaxCombinators) {
  const char* src = R"sgl(
class A {
  state:
    number a = 0;
    number mn = 0;
    number mx = 0;
  effects:
    number ea : avg;
    number emn : min;
    number emx : max;
  update:
    a = ea;
    mn = emn;
    mx = emx;
}
script S for A {
  ea <- 1; ea <- 2; ea <- 9;
  emn <- 5; emn <- -2; emn <- 8;
  emx <- 5; emx <- -2; emx <- 8;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(4.0, (*engine)->Get(*id, "a")->AsNumber());
  EXPECT_DOUBLE_EQ(-2.0, (*engine)->Get(*id, "mn")->AsNumber());
  EXPECT_DOUBLE_EQ(8.0, (*engine)->Get(*id, "mx")->AsNumber());
}

TEST(Exec, FirstLastResolveInStatementOrder) {
  const char* src = R"sgl(
class A {
  state:
    number f = 0;
    number l = 0;
  effects:
    number ef : first;
    number el : last;
  update:
    f = ef;
    l = el;
}
script S for A { ef <- 10; ef <- 20; el <- 10; el <- 20; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(10.0, (*engine)->Get(*id, "f")->AsNumber());
  EXPECT_DOUBLE_EQ(20.0, (*engine)->Get(*id, "l")->AsNumber());
}

TEST(Exec, BoolAndSetCombinators) {
  const char* src = R"sgl(
class A {
  state:
    bool any = false;
    bool all = true;
    set<A> seen;
  effects:
    bool eany : or;
    bool eall : and;
    set<A> eseen : union;
  update:
    any = eany;
    all = eall;
    seen = eseen;
}
script S for A {
  eany <- false; eany <- true;
  eall <- true; eall <- false;
  eseen <- self;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_TRUE((*engine)->Get(*id, "any")->AsBool());
  EXPECT_FALSE((*engine)->Get(*id, "all")->AsBool());
  EXPECT_TRUE((*engine)->Get(*id, "seen")->AsSet().Contains(*id));
}

// Set-typed update rules read the merged union effect.
TEST(Exec, UnassignedEffectReadsAsZero) {
  const char* src = R"sgl(
class A {
  state:
    number x = 7;
    number touched = 0;
  effects:
    number d : sum;
  update:
    x = x - d;
    touched = if(assigned(d), 1, 0);
}
script S for A { if (x > 100) { d <- 1; } }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(7.0, (*engine)->Get(*id, "x")->AsNumber());
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*id, "touched")->AsNumber());
}

// --- State read-only within a tick ----------------------------------------

TEST(Exec, AllReadsSeeTickStartState) {
  // Both A-entities bump each other's counter; each must read the OLD value
  // of the other, so after one tick both are 1 (not 1 and 2).
  const char* src = R"sgl(
class A {
  state:
    number n = 0;
    ref<A> other = null;
  effects:
    number d : sum;
  update:
    n = n + d;
}
script S for A {
  if (other != null && other.n == 0) { other.d <- 1; }
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto a = (*engine)->Spawn("A", {});
  auto b = (*engine)->Spawn("A", {{"other", Value::Ref(*a)}});
  ASSERT_TRUE((*engine)->Set(*a, "other", Value::Ref(*b)).ok());
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*a, "n")->AsNumber());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*b, "n")->AsNumber());
}

// --- Multi-tick scripts (§3.2) ----------------------------------------------

TEST(Exec, WaitNextTickAdvancesPhases) {
  const char* src = R"sgl(
class A {
  state:
    number log = 0;
  effects:
    number set_log : last;
  update:
    log = if(assigned(set_log), set_log, log);
}
script March for A {
  set_log <- 1;
  waitNextTick;
  set_log <- 2;
  waitNextTick;
  set_log <- 3;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "log")->AsNumber());
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*id, "log")->AsNumber());
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(3.0, (*engine)->Get(*id, "log")->AsNumber());
  // Wraps around to phase 0.
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "log")->AsNumber());
}

TEST(Exec, EntitiesProgressPhasesIndependently) {
  const char* src = R"sgl(
class A {
  state:
    number log = 0;
  effects:
    number set_log : last;
  update:
    log = if(assigned(set_log), set_log, log);
}
script March for A {
  set_log <- 1;
  waitNextTick;
  set_log <- 2;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto a = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  auto b = (*engine)->Spawn("A", {});  // joins one tick later
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*a, "log")->AsNumber());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*b, "log")->AsNumber());
}

TEST(Exec, RestartResetsProgramCounter) {
  const char* src = R"sgl(
class A {
  state:
    number log = 0;
    bool alarm = false;
  effects:
    number set_log : last;
  update:
    log = if(assigned(set_log), set_log, log);
}
script March for A {
  set_log <- 1;
  waitNextTick;
  set_log <- 2;
  waitNextTick;
  set_log <- 3;
}
when A Interrupt (alarm) {
  restart March;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());  // phase 0: log=1
  ASSERT_TRUE((*engine)->Set(*id, "alarm", Value::Bool(true)).ok());
  ASSERT_TRUE((*engine)->Tick().ok());  // phase 1 runs, but handler restarts
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*id, "log")->AsNumber());
  ASSERT_TRUE((*engine)->Set(*id, "alarm", Value::Bool(false)).ok());
  ASSERT_TRUE((*engine)->Tick().ok());  // back to phase 0
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "log")->AsNumber());
}

// --- Handlers (§3.2) ---------------------------------------------------------

TEST(Exec, HandlerFiresOnlyWhenConditionHolds) {
  const char* src = R"sgl(
class A {
  state:
    number hp = 100;
    number fled = 0;
  effects:
    number d : sum;
    number flee : sum;
  update:
    hp = hp - d;
    fled = fled + flee;
}
script Hurt for A { d <- 30; }
when A Flee (hp < 50) { flee <- 1; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());  // hp 100 -> 70, no flee
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*id, "fled")->AsNumber());
  ASSERT_TRUE((*engine)->Tick().ok());  // hp 70 -> 40, handler sees 70: no
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*id, "fled")->AsNumber());
  ASSERT_TRUE((*engine)->Tick().ok());  // handler sees 40: flee
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "fled")->AsNumber());
}

// --- Cross-entity and cross-class effects ----------------------------------

TEST(Exec, CrossClassEffectDelivery) {
  const char* src = R"sgl(
class Tower {
  state:
    ref<Creep> target = null;
    number power = 7;
}
class Creep {
  state:
    number hp = 20;
  effects:
    number d : sum;
  update:
    hp = hp - d;
}
script Shoot for Tower {
  if (target != null) { target.d <- power; }
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto creep = (*engine)->Spawn("Creep", {});
  auto t1 = (*engine)->Spawn("Tower", {{"target", Value::Ref(*creep)}});
  auto t2 = (*engine)->Spawn("Tower", {{"target", Value::Ref(*creep)}});
  (void)t1;
  (void)t2;
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(6.0, (*engine)->Get(*creep, "hp")->AsNumber());
}

TEST(Exec, DanglingRefEffectIsDropped) {
  const char* src = R"sgl(
class Tower {
  state:
    ref<Creep> target = null;
}
class Creep {
  state:
    number hp = 20;
  effects:
    number d : sum;
  update:
    hp = hp - d;
}
script Shoot for Tower {
  if (target != null) { target.d <- 5; }
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto creep = (*engine)->Spawn("Creep", {});
  auto tower = (*engine)->Spawn("Tower", {{"target", Value::Ref(*creep)}});
  (void)tower;
  ASSERT_TRUE((*engine)->Despawn(*creep).ok());
  ASSERT_TRUE((*engine)->Tick().ok());  // must not crash or misfire
  SUCCEED();
}

// --- Locals, let bindings, builtins ------------------------------------------

TEST(Exec, LetBindingsAndBuiltins) {
  const char* src = R"sgl(
class A {
  state:
    number x = 3;
    number y = 4;
    number out = 0;
  effects:
    number r : last;
  update:
    out = r;
}
script S for A {
  let number d = dist(0, 0, x, y);
  let number c = clamp(d, 0, 4.5);
  r <- c + min(x, y) + abs(0 - 2) + floor(2.9) + pow(2, 3);
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  // 4.5 + 3 + 2 + 2 + 8 = 19.5
  EXPECT_DOUBLE_EQ(19.5, (*engine)->Get(*id, "out")->AsNumber());
}

TEST(Exec, EmptyWorldTicksFine) {
  auto engine = Engine::Create(R"sgl(
class A {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
}
script S for A { d <- 1; }
)sgl");
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(5).ok());
}

TEST(Exec, TickStatsArePopulated) {
  auto engine = Engine::Create(R"sgl(
class A {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
}
script S for A {
  accum number c with sum over A w from A {
    if (w.x >= x - 1 && w.x <= x + 1) { c <- 1; }
  } in { d <- c; }
}
)sgl");
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*engine)->Spawn("A", {}).ok());
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  const TickStats& stats = (*engine)->last_stats();
  EXPECT_GT(stats.total_micros, 0);
  ASSERT_EQ(1u, stats.sites.size());
  EXPECT_EQ(50, stats.sites[0].outer_rows);
  EXPECT_EQ(50 * 50, stats.sites[0].matches);  // all within ±1 of x=0
}

// A serial tick runs its selection in morsel_size chunks, in order: the
// morsels a multi-thread tick deals out round-robin. The world comes out
// the same, and so do the SIMD-lane counts of the bytecode VM's per-morsel
// kernel calls — which a single whole-selection pass would change, since
// an AVX2 body counts only the multiple-of-4 prefix of each call's rows.
TEST(Exec, SerialTickRunsMorselSizedChunks) {
  constexpr char kSource[] = R"sgl(
class A {
  state:
    number x = 0;
    number y = 0;
  effects:
    number d : sum;
  update:
    y = y + d;
}
script S for A {
  accum number c with sum over A w from A {
    if (w.x >= x - 2 && w.x <= x + 2) { c <- w.x / 7; }
  } in { d <- c * 0.5 + x / 3; }
}
)sgl";
  auto run = [&](int threads, size_t morsel, int64_t* lanes) {
    EngineOptions options;
    options.exec.num_threads = threads;
    options.exec.morsel_size = morsel;
    options.exec.eval_mode = EvalMode::kBytecode;
    auto engine = Engine::Create(kSource, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE((*engine)
                      ->Spawn("A", {{"x", Value::Number(i % 37)}})
                      .ok());
    }
    *lanes = 0;
    for (int t = 0; t < 3; ++t) {
      EXPECT_TRUE((*engine)->Tick().ok());
      *lanes += (*engine)->last_stats().simd_lanes_used;
    }
    return WorldChecksum((*engine)->world());
  };
  int64_t serial_lanes = 0, parallel_lanes = 0, whole_lanes = 0;
  const uint64_t serial = run(1, 6, &serial_lanes);
  EXPECT_EQ(serial, run(4, 6, &parallel_lanes));
  EXPECT_EQ(serial, run(1, 2048, &whole_lanes));
  EXPECT_EQ(serial_lanes, parallel_lanes);
  if (ActiveKernelDispatch() == KernelDispatch::kAvx2) {
    EXPECT_NE(serial_lanes, whole_lanes);
  }
}

}  // namespace
}  // namespace sgl
