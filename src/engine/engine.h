// Engine: the public facade of the SGL system.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto engine = sgl::Engine::Create(source_text).value();
//   auto id = engine->Spawn("Unit", {{"x", sgl::Value::Number(3)}}).value();
//   engine->RunTicks(100);
//   double hp = engine->Get(id, "health")->AsNumber();
//
// Create() parses + compiles the program (schema generation, §2.1), builds
// the World with the chosen storage layout (partitioned into shards when
// exec.num_shards > 1), and wires the one TickExecutor with the built-in
// update components (transaction engine + expression updater).
// Physics / pathfinding components attach via AddPhysics / AddPathfinder
// (§2.2). Debugging (§3.3) is exposed through inspector/tracer/checkpoint
// accessors.

#ifndef SGL_ENGINE_ENGINE_H_
#define SGL_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/async/async_pathfind.h"
#include "src/debug/checkpoint.h"
#include "src/debug/inspector.h"
#include "src/debug/tracer.h"
#include "src/exec/tick_executor.h"
#include "src/lang/compiler.h"
#include "src/shard/sharded_world.h"
#include "src/update/pathfind.h"
#include "src/update/physics.h"

namespace sgl {

/// Engine construction options.
struct EngineOptions {
  /// exec.num_shards > 1 partitions the world into row-range shards with
  /// cross-shard effect routing (src/shard/); the same TickExecutor runs
  /// every layout and the remaining exec fields keep their meaning.
  ExecOptions exec;
  /// Storage layout for numeric state columns (§2.1). kAffinity uses the
  /// attribute co-occurrence mined by the compiler.
  LayoutStrategy layout = LayoutStrategy::kUnified;
};

class Engine {
 public:
  /// Compiles `source` and builds a ready-to-tick engine. InvalidArgument
  /// when exec.morsel_size is 0 or exec.num_shards exceeds 254.
  static StatusOr<std::unique_ptr<Engine>> Create(
      const std::string& source, const EngineOptions& options = {});

  World& world() { return *world_; }
  const Catalog& catalog() const { return *program_->catalog; }
  const CompiledProgram& program() const { return *program_; }
  /// The tick executor, whatever the shard layout.
  TickExecutor& executor() { return *executor_; }
  /// True when exec.num_shards > 1.
  bool sharded() const { return sharded_world_ != nullptr; }
  ShardedWorld& sharded_world() {
    SGL_CHECK(sharded() && "engine is not sharded");
    return *sharded_world_;
  }
  /// executor(), asserted to run a sharded world.
  TickExecutor& shard_executor() {
    SGL_CHECK(sharded() && "engine is not sharded");
    return *executor_;
  }

  /// Attaches a physics component (§2.2). Call before the first tick.
  Status AddPhysics(const PhysicsConfig& config);
  /// Attaches an A* pathfinding component (§2.2).
  Status AddPathfinder(const PathfinderConfig& config, GridMap map);
  /// Attaches the asynchronous (tick-spanning) pathfinder: searches run on
  /// the executor's JobService workers (options.exec.jobs) and results
  /// install deterministically at submit + latency ticks (src/async/).
  Status AddAsyncPathfinder(const AsyncPathfinderConfig& config, GridMap map);
  /// Attaches any custom update component.
  Status AddComponent(std::unique_ptr<UpdateComponent> component);

  // --- Update-component ordering vs async completions ---------------------
  //
  // Update components run in registration order (transaction engine, then
  // the expression updater, then everything added through the Add*
  // methods). Field ownership is disjoint, but components *read* each
  // other's freshly-written state within the same update phase — e.g. the
  // canonical `x = waypoint_x` update rule runs before a pathfinder
  // updates the waypoint, so movement follows the waypoint computed the
  // previous tick. Register order is therefore part of a program's
  // semantics and must be kept stable across runs being compared.
  //
  // Asynchronous results do NOT change this picture: JobService
  // completions install at the tick barrier *before any* component runs
  // (TickExecutor calls InstallDue first, in every layout), in an order
  // fixed at submission time. A component observes a job's result at
  // exactly tick `submit + latency`, regardless of worker count, shard
  // count, thread count, or registration order — async completion is a
  // scheduled event in the deterministic tick timeline, not a racy
  // callback.

  /// Entity management (tick-boundary operations).
  StatusOr<EntityId> Spawn(
      const std::string& cls,
      const std::vector<std::pair<std::string, Value>>& init = {});
  Status Despawn(EntityId id);

  StatusOr<Value> Get(EntityId id, const std::string& field) const;
  Status Set(EntityId id, const std::string& field, const Value& v);

  /// Runs one tick / n ticks.
  Status Tick();
  Status RunTicks(int n);
  sgl::Tick tick() const { return executor_->tick(); }

  const TickStats& last_stats() const { return executor_->last_stats(); }

  // --- Debugging (§3.3) ---------------------------------------------------

  /// EXPLAIN: the compiled relational plans of every script/handler.
  std::string ExplainPlans() const { return program_->Explain(); }
  Inspector inspector() const { return Inspector(world_.get()); }
  /// Attaches a tracer (null detaches).
  void SetTracer(EffectTracer* tracer) { executor_->set_trace(tracer); }
  /// Snapshot / resume. Sharded engines also capture the shard partition,
  /// so Restore resumes the exact post-migration ranges. Checkpoints are
  /// tick-boundary snapshots that also capture async jobs still in flight
  /// (with their snapshots and contracted install ticks) and every
  /// component's private cross-tick state: Restore re-creates the jobs so
  /// each installs at its original tick and reloads the component caches,
  /// making the restored run bit-identical to one that never stopped. A
  /// checkpoint missing those sections (or failing to match this engine's
  /// configuration) falls back to the legacy recovery — cancel in-flight
  /// work, drop caches, re-request — which is deterministic going forward
  /// but may briefly re-stall on results the original run already had.
  Checkpoint TakeCheckpoint() const;
  Status Restore(const Checkpoint& cp);

 private:
  Engine() = default;

  std::unique_ptr<CompiledProgram> program_;
  std::unique_ptr<World> world_;
  std::unique_ptr<ShardedWorld> sharded_world_;  ///< exec.num_shards > 1
  /// Declared after the worlds it borrows, so it is destroyed first.
  std::unique_ptr<TickExecutor> executor_;
};

}  // namespace sgl

#endif  // SGL_ENGINE_ENGINE_H_
