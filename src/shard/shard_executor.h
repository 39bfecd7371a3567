// ShardExecutor: the sharded QUERY → MERGE → UPDATE pipeline (src/shard/).
//
// The per-tick shape mirrors TickExecutor, with the parallel grain moved
// from morsels to world shards:
//
//   A SELECT      each shard computes its phase/handler selections over its
//                 own row ranges (reads only prior state — parallel)
//   P PREPARE     access paths (indexes, hashes, composed filters) are
//                 prepared once, globally: the read view is shared by
//                 construction, so per-shard index builds would be
//                 redundant replicas
//   B QUERY+EFFECT each shard runs every script phase and handler over its
//                 selections, single-threadedly, in morsel-sized chunks;
//                 effects route through its ShardRouter (local dense buffer
//                 or cross-shard mailbox), intents land in its per-shard
//                 TxnIntentLog (parallel across shards)
//   C BARRIER     mailboxes flip; shards merge source-major into the
//                 world's effect buffers; set logs canonicalize
//                 (FinalizeSets); queued migrations apply; epoch bumps
//   D UPDATE      the shared update components run over the whole world:
//                 transaction admission is global on purpose — intents
//                 keep a shard-of-owner dimension, and admission is proven
//                 independent of how intents are partitioned across shards
//
// Because each shard's work is self-contained (own router, scratch, intent
// log, feedback) and the barrier merges in shard order, the result is
// bit-identical for any thread count and any morsel size at a fixed shard
// count; see README.md for the cross-shard-count contract.

#ifndef SGL_SHARD_SHARD_EXECUTOR_H_
#define SGL_SHARD_SHARD_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/exec/tick_executor.h"
#include "src/shard/shard_router.h"
#include "src/shard/sharded_world.h"

namespace sgl {

class ShardExecutor {
 public:
  /// `world`, `sharded`, and `program` must outlive the executor.
  /// `options.num_shards` is the shard count; threads/morsels/planner/
  /// interpreted mean what they mean for TickExecutor.
  ShardExecutor(World* world, ShardedWorld* sharded,
                const CompiledProgram* program, ExecOptions options);
  ~ShardExecutor();

  /// Registers the built-in components (transaction engine + expression
  /// updater). Must run before the first tick.
  Status Init();

  /// Registers an engine update component (physics, pathfinding, custom).
  Status RegisterComponent(std::unique_ptr<UpdateComponent> component);

  /// Executes one sharded tick.
  Status RunTick();

  Tick tick() const { return tick_; }
  void set_tick(Tick tick) { tick_ = tick; }
  /// Zeroes the job counters of last_stats() after a checkpoint restore
  /// (jobs_in_flight re-reads the service); see TickExecutor.
  void ResetStatsAfterRestore();
  const TickStats& last_stats() const { return last_; }
  const ExecOptions& options() const { return options_; }

  AdaptiveController& controller() { return controller_; }
  IndexManager& indexes() { return indexes_; }
  TxnEngine& txn() { return txn_; }
  StatsManager& table_stats() { return stats_mgr_; }
  ComponentRegistry& components() { return components_; }
  ShardedWorld& sharded() { return *sharded_; }

  /// The out-of-band JobService (created on first use from
  /// options().jobs). Jobs are submitted shard-tagged by the components;
  /// completions ride the barrier: InstallDue runs after the mailbox merge,
  /// before the update components (src/async/job_service.h).
  JobService& jobs() {
    if (jobs_ == nullptr) {
      JobServiceOptions jo = options_.jobs;
      jo.fault = options_.fault;  // worker stall/death sites share the plan
      jo.telemetry = options_.telemetry;  // worker-run spans, same lifetime
      jobs_ = std::make_unique<JobService>(jo);
    }
    return *jobs_;
  }
  /// Null if no component ever asked for the service.
  JobService* jobs_or_null() { return jobs_.get(); }

  void set_trace(EffectTracer* tracer) { trace_ = tracer; }

  /// Effect records routed across shards last tick (stats / tests).
  size_t last_cross_shard_records() const { return cross_records_; }

 private:
  /// One world shard's pipeline state: its router (local effect buffers +
  /// mailboxes), eval scratch, selections, and feedback. The shard's
  /// *tables* are its row ranges of the world's class arenas.
  struct WorldShard {
    int id = 0;
    ExecEnv env;
    ExecScratch scratch;
    std::unique_ptr<ShardRouter> router;
    /// Per script, per phase: selected rows of this shard's ranges.
    std::vector<std::vector<std::vector<RowIdx>>> script_selections;
    /// Per handler: cached range iota and this tick's selection.
    std::vector<std::vector<RowIdx>> handler_rows;
    std::vector<std::vector<RowIdx>> handler_selections;
    std::vector<uint8_t> handler_keep;
    std::vector<SiteFeedback> feedback;
    std::vector<RowIdx> slice;  ///< morsel chunk buffer
    /// Wall time of this shard's B-phase last tick; the barrier derives
    /// the stall (max−min) and imbalance gauges from these.
    int64_t query_micros = 0;
  };

  void EnsureShards();
  void ComputeSelections(WorldShard& ws);
  void PrepareAllSites();
  void PrepareUnitSites(const std::vector<std::unique_ptr<PlanOp>>& ops,
                        size_t outer_rows);
  void RunShard(WorldShard& ws);
  void RunUnitShard(WorldShard& ws,
                    const std::vector<std::unique_ptr<PlanOp>>& ops,
                    ClassId cls, const std::vector<RowIdx>& selection,
                    LocalColumns* locals);

  World* world_;
  ShardedWorld* sharded_;
  const CompiledProgram* program_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  IndexManager indexes_;
  StatsManager stats_mgr_;
  AdaptiveController controller_;
  TxnEngine txn_;
  ComponentRegistry components_;
  /// Compiled bytecode programs (eval_mode == kBytecode); null otherwise.
  std::unique_ptr<VmProgramCache> vm_cache_;
  std::unique_ptr<JobService> jobs_;  ///< lazily created, see jobs()
  EffectTracer* trace_ = nullptr;
  /// The flight recorder's capture sink for this tick; refreshed at tick
  /// start (null when no recorder is attached or it is disarmed).
  EffectTracer* recorder_sink_ = nullptr;
  Tick tick_ = 0;
  TickStats last_;
  bool initialized_ = false;
  size_t cross_records_ = 0;

  std::vector<std::unique_ptr<WorldShard>> shards_;
  std::vector<SiteCache> site_cache_;   ///< by site id
  std::vector<PreparedSite> prepared_;  ///< by site id
  std::vector<LocalColumns> script_locals_;
  std::vector<LocalColumns> handler_locals_;
};

}  // namespace sgl

#endif  // SGL_SHARD_SHARD_EXECUTOR_H_
