#include "src/engine/engine.h"

#include "src/telemetry/flight_recorder.h"

namespace sgl {

StatusOr<std::unique_ptr<Engine>> Engine::Create(
    const std::string& source, const EngineOptions& options) {
  // Reject options that would fault later: a zero morsel divides by zero
  // (or never advances), and shard ids must fit a byte.
  if (options.exec.morsel_size < 1) {
    return Status::InvalidArgument("exec.morsel_size must be >= 1");
  }
  if (options.exec.num_shards > 254) {
    return Status::InvalidArgument("exec.num_shards must be <= 254, got " +
                                   std::to_string(options.exec.num_shards));
  }
  auto engine = std::unique_ptr<Engine>(new Engine());
  SGL_ASSIGN_OR_RETURN(engine->program_, CompileSource(source));
  engine->world_ = std::make_unique<World>(engine->program_->catalog.get());
  if (options.layout != LayoutStrategy::kUnified) {
    for (ClassId c = 0; c < engine->program_->catalog->num_classes(); ++c) {
      const AffinityMatrix* affinity =
          options.layout == LayoutStrategy::kAffinity
              ? &engine->program_->affinity[static_cast<size_t>(c)]
              : nullptr;
      SGL_RETURN_IF_ERROR(
          engine->world_->SetLayout(c, options.layout, affinity));
    }
  }
  if (options.exec.num_shards > 1) {
    engine->sharded_world_ = std::make_unique<ShardedWorld>(
        engine->world_.get(), options.exec.num_shards);
  }
  engine->executor_ = std::make_unique<TickExecutor>(
      engine->world_.get(), engine->sharded_world_.get(),
      engine->program_.get(), options.exec);
  SGL_RETURN_IF_ERROR(engine->executor_->Init());
  return engine;
}

Status Engine::AddPhysics(const PhysicsConfig& config) {
  SGL_ASSIGN_OR_RETURN(auto comp,
                       PhysicsComponent::Create(catalog(), config));
  return AddComponent(std::move(comp));
}

Status Engine::AddPathfinder(const PathfinderConfig& config, GridMap map) {
  SGL_ASSIGN_OR_RETURN(
      auto comp, PathfinderComponent::Create(catalog(), config,
                                             std::move(map)));
  return AddComponent(std::move(comp));
}

Status Engine::AddAsyncPathfinder(const AsyncPathfinderConfig& config,
                                  GridMap map) {
  JobService& jobs = executor_->jobs();
  SGL_ASSIGN_OR_RETURN(
      auto comp,
      AsyncPathfindComponent::Create(catalog(), config, std::move(map),
                                     &jobs, sharded_world_.get()));
  return AddComponent(std::move(comp));
}

Status Engine::AddComponent(std::unique_ptr<UpdateComponent> component) {
  return executor_->RegisterComponent(std::move(component));
}

StatusOr<EntityId> Engine::Spawn(
    const std::string& cls,
    const std::vector<std::pair<std::string, Value>>& init) {
  if (sharded_world_ != nullptr) return sharded_world_->Spawn(cls, init);
  return world_->Spawn(cls, init);
}

Status Engine::Despawn(EntityId id) {
  // The sharded path must not swap-remove: ranges stay contiguous.
  if (sharded_world_ != nullptr) return sharded_world_->Despawn(id);
  return world_->Despawn(id);
}

StatusOr<Value> Engine::Get(EntityId id, const std::string& field) const {
  return world_->Get(id, field);
}

Status Engine::Set(EntityId id, const std::string& field, const Value& v) {
  return world_->Set(id, field, v);
}

Status Engine::Tick() {
  return executor_->RunTick();
}

Status Engine::RunTicks(int n) {
  for (int i = 0; i < n; ++i) {
    SGL_RETURN_IF_ERROR(Tick());
  }
  return Status::OK();
}

Checkpoint Engine::TakeCheckpoint() const {
  Checkpoint cp = sgl::TakeCheckpoint(*world_, tick());
  if (sharded_world_ != nullptr) {
    sharded_world_->SerializePartition(&cp.shard_partition);
  }
  JobService* jobs = executor_->jobs_or_null();
  if (jobs != nullptr) jobs->SerializeInFlight(&cp.jobs);
  executor_->components().SerializeState(&cp.components);
  return cp;
}

Status Engine::Restore(const Checkpoint& cp) {
  // In-flight jobs belong to the pre-restore trajectory: cancel them
  // before the world changes underneath their submissions. Whether they
  // come back depends on the checkpoint's fidelity sections below.
  JobService* jobs = executor_->jobs_or_null();
  if (jobs != nullptr) jobs->CancelAll();
  SGL_RETURN_IF_ERROR(RestoreCheckpoint(cp, world_.get()));
  if (sharded_world_ != nullptr) {
    // Moves queued against the pre-restore world must not replay here.
    sharded_world_->ClearPendingMigrations();
    if (!cp.shard_partition.empty()) {
      // Resume the exact partition the checkpoint was taken under
      // (including migration history). Only a shard-count mismatch
      // (InvalidArgument) legitimately falls back to fresh block ranges;
      // a corrupt blob must surface, not silently re-block.
      Status st = sharded_world_->RestorePartition(cp.shard_partition);
      if (!st.ok()) {
        if (st.code() != StatusCode::kInvalidArgument) return st;
        sharded_world_->PartitionBlock();
      }
    } else {
      sharded_world_->PartitionBlock();
    }
  }
  executor_->set_tick(cp.tick);
  ComponentRegistry& components = executor_->components();
  // Fidelity path: re-create in-flight jobs at their contracted install
  // ticks and reload the components' cross-tick caches — the restored run
  // then replays bit-identically to one that never stopped. Any section
  // that is absent or does not match this engine degrades to the legacy
  // path: cancelled jobs, dropped caches, components re-request.
  bool fidelity = true;
  if (!cp.jobs.empty()) {
    if (jobs == nullptr) {
      fidelity = false;
    } else {
      Status st = jobs->RestoreInFlight(cp.jobs, cp.tick);
      if (!st.ok()) fidelity = false;
    }
  }
  if (fidelity && !cp.components.empty()) {
    Status st = components.RestoreState(cp.components);
    if (!st.ok()) fidelity = false;
  }
  if (!fidelity) {
    // The jobs may have been restored before the component section was
    // rejected; the two travel together or not at all.
    if (jobs != nullptr) jobs->CancelAll();
    components.NotifyRestore();
  } else if (cp.components.empty()) {
    // Legacy checkpoint with no component section: caches still refer to
    // the pre-restore trajectory and must drop.
    components.NotifyRestore();
  }
  executor_->ResetStatsAfterRestore();
  // The flight recorder's ring describes the abandoned timeline: give it a
  // chance to dump the pre-crash window ("crash.restore"), then clear it
  // so the recovered run's frames never mix with stale ones.
  FlightRecorder* recorder = executor_->options().recorder;
  if (recorder != nullptr) recorder->NotifyRestore(cp.tick, world_.get());
  return Status::OK();
}

}  // namespace sgl
