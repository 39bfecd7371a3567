// TickExecutor: drives the state-effect pattern (§2) each tick, for every
// world layout. The layout is an input to one tick pipeline, not a second
// engine: a world with no ShardedWorld is the 1-shard layout.
//
//   0 SETUP         effect buffers, tracers, intent logs, and per-worker
//                   state reset for the tick
//   1 SELECT        each shard computes its phase/handler selections over
//                   its row ranges (multi-phase scripts dispatch on their PC
//                   column, handlers evaluate their conditions; reads only
//                   prior state)
//   2 PREPARE       access paths (indexes, hashes, composed filters) are
//                   prepared once per site for all shards: the read view is
//                   shared, so per-shard builds would be redundant replicas
//   3 QUERY+EFFECT  compiled plans run set-at-a-time over the selections;
//                   the phases only read state, so no synchronization (§4.2)
//   4 MERGE         worker effects fold into the world's effect buffers in
//                   a fixed order; set logs canonicalize; per-site feedback
//                   reaches the adaptive controller
//   5 UPDATE        due async jobs install, then the update components run
//                   over their disjoint state partitions: transaction
//                   admission, declared update rules, registered components
//   6 BOOKKEEPING   statistics, migrations + epoch (S > 1), tick++
//   7 CAPTURE       an armed flight recorder seals the tick's frame
//                   (src/telemetry/flight_recorder.h), inside tick time
//
// Only the work decomposition and the effect sink depend on the layout:
//
//   S > 1   shard s covers [shard_begin, shard_end) of every class and
//           runs its morsels in order on one pool worker, writing through
//           its ShardRouter (local dense buffer or cross-shard mailbox);
//           the barrier flips the mailboxes and merges source-shard-major,
//           then applies queued migrations and bumps the epoch
//           (src/shard/README.md)
//   S = 1   the one shard covers [0, size); its morsels are dealt round-
//           robin (morsel m to lane m % T, each lane's in increasing
//           order). With T > 1 each lane writes its own full-size effect
//           buffers, merged in lane order; with T = 1 effects go straight
//           into the world's buffers
//
// Either way the result is a pure function of the layout (S, and T when
// S = 1) and the morsel size, never of scheduling.
//
// Setting ExecOptions::interpreted runs the identical program object-at-a-
// time (per-entity scalar evaluation, full scans in accum loops) — the
// baseline that traditional game engines implement and bench E1 compares
// against.
//
// Steady-state ticks are allocation-free on both halves of the tick: every
// selection vector, local column, prepared site, effect buffer, and
// evaluation temporary lives in executor-owned scratch with high-water
// reuse (reads), and the write path — per-worker flat intent logs, the
// dense epoch StateOverlay, CSR-pooled set effects, mailbox lanes — never
// boxes per row (see txn/txn_engine.h, storage/effect_buffer.h).
// TickStats reports the residual via allocs_per_tick / bytes_per_tick (see
// common/alloc_hook.h).

#ifndef SGL_EXEC_TICK_EXECUTOR_H_
#define SGL_EXEC_TICK_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/async/job_service.h"
#include "src/common/thread_pool.h"
#include "src/exec/op_exec.h"
#include "src/update/update_component.h"

namespace sgl {

class FaultInjector;
class FlightRecorder;
class ShardRouter;
class ShardedWorld;
class Telemetry;

/// Executor configuration.
struct ExecOptions {
  int num_threads = 1;
  /// > 1 partitions the world into that many row-range shards with
  /// cross-shard effect routing (src/shard/); the same TickExecutor runs
  /// that layout, and the remaining fields keep their meaning. At most
  /// 254 (shard ids fit a byte); Engine::Create rejects more.
  int num_shards = 1;
  /// Rows per morsel, the unit of query-phase work (>= 1; Engine::Create
  /// rejects 0).
  size_t morsel_size = 2048;
  AdaptiveController::Options planner;
  bool interpreted = false;  ///< object-at-a-time baseline mode
  /// Expression backend of the vectorized path: tree-walking interpreter
  /// or register bytecode with fused filter pipelines (src/vm/). Programs
  /// are compiled once at executor construction and per prepared site;
  /// both modes produce bit-identical world state. Ignored when
  /// `interpreted` is set (the scalar baseline has no vectorized spans).
  /// kAuto compiles everything up front and asks the cost controller per
  /// site per tick which backend to run.
  EvalMode eval_mode = EvalMode::kInterpret;
  /// Index-probe style of range-indexed accum sites: one virtual Query per
  /// outer row (kSingle), one QueryBatch per morsel (kBatched, default), or
  /// a per-site measured choice (kAuto). All bit-identical.
  ProbeMode probe_mode = ProbeMode::kBatched;
  /// Out-of-band job execution (src/async/): worker count, ordering-key
  /// seed. The JobService is created lazily, when a component first asks
  /// for it (Engine::AddAsyncPathfinder / executor jobs()).
  JobServiceOptions jobs;
  /// Armed fault plan (src/fault/): threaded into the executor's crash
  /// sites, the transaction admission path, and the lazily-created
  /// JobService. Null = all sites disarmed. Must outlive the executor —
  /// deliberately so, since crash-recovery rebuilds the executor while the
  /// injector's fire counts carry across (max_fires crash-once semantics).
  FaultInjector* fault = nullptr;
  /// Observability sink (src/telemetry/): span tracing across every tick
  /// phase, the standard latency histograms (p50/p95/p99 via Snapshot()),
  /// and per-site attribution. Null = disarmed, one branch per span — the
  /// same borrowed-pointer lifetime contract as `fault`; must outlive the
  /// executor. Shared with the lazily-created JobService and the VM
  /// program cache.
  Telemetry* telemetry = nullptr;
  /// Flight recorder (src/telemetry/flight_recorder.h): a pooled ring of
  /// the last K ticks' provenance-tagged effect records, stats, and
  /// per-site rows, with black-box dump triggers. Null or disarmed = no
  /// capture (one branch per tick plus one null check per effect write).
  /// Same borrowed-pointer lifetime contract as `fault` / `telemetry`:
  /// must outlive the executor.
  FlightRecorder* recorder = nullptr;
};

/// Timings and counters for the last tick.
struct TickStats {
  Tick tick = 0;
  int64_t query_effect_micros = 0;
  int64_t merge_micros = 0;
  int64_t update_micros = 0;
  int64_t index_build_micros = 0;  ///< portion of query phase spent building
  /// Heap bytes resident in the spatial indices after the tick. The flat
  /// index layouts make this an O(#indices) capacity sum, cheap enough to
  /// sample every tick.
  int64_t index_memory_bytes = 0;
  /// Wall time of the whole tick: from RunTick entry through the armed
  /// flight recorder's capture (TickFrame::total_micros is the same
  /// figure). Only the alloc-counter read and telemetry publication after
  /// capture fall outside it.
  int64_t total_micros = 0;
  /// Heap traffic during the tick, across all threads (0 when the counting
  /// hook is compiled out). Steady-state ticks should report ~0.
  int64_t allocs_per_tick = 0;
  int64_t bytes_per_tick = 0;
  /// Bytecode backend (0 when eval_mode == kInterpret): programs resident
  /// in the executor's cache, expressions that fell back to the tree
  /// walker, and one-time lowering cost (paid at construction, not per
  /// tick).
  int64_t vm_programs = 0;
  int64_t vm_fallbacks = 0;
  int64_t vm_compile_micros = 0;
  /// Time inside batched QueryBatch calls, summed over sites and shards
  /// (0 when no site probed batched this tick).
  int64_t probe_micros = 0;
  /// Double lanes processed by AVX2 kernel bodies this tick (0 under
  /// scalar dispatch — see common/cpu_features.h).
  int64_t simd_lanes_used = 0;
  /// Per-tick backend decisions across prepared accum sites: how many ran
  /// their expressions on the VM vs the tree walker, and how many probed
  /// their index batched vs per row (kAuto makes these vary tick to tick).
  int64_t sites_bytecode = 0;
  int64_t sites_interpreted = 0;
  int64_t sites_probe_batched = 0;
  int64_t sites_probe_single = 0;
  /// Out-of-band job activity (src/async/; all 0 with no JobService).
  int64_t jobs_submitted = 0;
  int64_t jobs_installed = 0;
  int64_t jobs_in_flight = 0;
  /// Barrier time spent blocked on jobs whose declared latency elapsed
  /// before their worker finished (the async pipeline's only stall).
  int64_t job_wait_micros = 0;
  std::vector<SiteFeedback> sites;  ///< per accum site, aggregated
  TxnStats txn;

  /// Zeroes every scalar field for a new tick, keeping `sites`' capacity.
  void Reset(Tick now);
};

class TickExecutor {
 public:
  /// `world`, `program`, and `sharded` (when not null) must outlive the
  /// executor. Null `sharded` runs the world as one shard; otherwise its
  /// shard count must equal options.num_shards, which must be > 1.
  TickExecutor(World* world, ShardedWorld* sharded,
               const CompiledProgram* program, ExecOptions options);
  ~TickExecutor();

  /// Registers the built-in components (transaction engine + expression
  /// updater). Must run before the first tick; additional components
  /// (physics, pathfinding) may be registered after.
  Status Init();

  /// Registers an engine update component (ownership checked, §2.2).
  Status RegisterComponent(std::unique_ptr<UpdateComponent> component);

  /// Executes one tick.
  Status RunTick();

  Tick tick() const { return tick_; }
  /// Repositions the tick counter (checkpoint restore, §3.3).
  void set_tick(Tick tick) { tick_ = tick; }
  /// Zeroes the job counters of last_stats() after a checkpoint restore
  /// (jobs_in_flight re-reads the service) so the pre-restore tick's
  /// numbers never leak into the restored timeline.
  void ResetStatsAfterRestore();
  const TickStats& last_stats() const { return last_; }
  const ExecOptions& options() const { return options_; }

  AdaptiveController& controller() { return controller_; }
  IndexManager& indexes() { return indexes_; }
  TxnEngine& txn() { return txn_; }
  StatsManager& table_stats() { return stats_mgr_; }
  ComponentRegistry& components() { return components_; }

  /// The out-of-band JobService (created on first use from
  /// options().jobs). Completions install at the tick barrier, after the
  /// effect merge and before the update components run; components submit
  /// shard-tagged jobs when the world is sharded.
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

  /// Attaches / detaches the effect tracer (§3.3). Null = off.
  void set_trace(EffectTracer* tracer) { trace_ = tracer; }

  /// Effect records routed across shards last tick (0 with one shard).
  size_t last_cross_shard_records() const { return cross_records_; }

 private:
  /// One worker slot. When S > 1, slot s runs shard s's units and writes
  /// through its router; when S = 1, slot t runs the morsels m with
  /// m % T == t and writes its own effect buffers (T > 1) or the world's
  /// (T = 1). Slots [0, S) also hold their shard's selections.
  struct Worker {
    ExecEnv env;
    ExecScratch scratch;
    std::vector<RowIdx> slice;  ///< morsel chunk buffer
    std::vector<SiteFeedback> feedback;
    std::unique_ptr<ShardRouter> router;  ///< S > 1
    /// S = 1, T > 1: this lane's full-size effect buffers, by class.
    std::vector<std::unique_ptr<EffectBuffer>> effects;
    /// Per script, per phase: selected rows of this shard's ranges.
    std::vector<std::vector<std::vector<RowIdx>>> script_selections;
    /// Per handler: cached range iota and this tick's selection.
    std::vector<std::vector<RowIdx>> handler_rows;
    std::vector<std::vector<RowIdx>> handler_selections;
    std::vector<uint8_t> handler_keep;
    /// Wall time of this shard's query phase last tick (S > 1); the
    /// barrier derives the stall (max - min) and imbalance gauges.
    int64_t query_micros = 0;
  };

  void ComputeSelections(int shard);
  void PrepareSites();
  void PrepareUnitSites(const std::vector<std::unique_ptr<PlanOp>>& ops,
                        size_t outer_rows);
  /// Runs every unit of `shard` on worker slots [shard, shard + lanes).
  void RunShard(int shard, int lanes);
  void RunUnit(const std::vector<std::unique_ptr<PlanOp>>& ops, ClassId cls,
               const std::vector<RowIdx>& selection, LocalColumns* locals,
               int first, int lanes);
  /// Folds the workers' effects into the world's buffers (barrier crash
  /// and stall sites included).
  Status MergeEffects();

  World* world_;
  ShardedWorld* sharded_;  ///< null = 1 shard
  const CompiledProgram* program_;
  ExecOptions options_;
  int num_shards_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  IndexManager indexes_;
  StatsManager stats_mgr_;
  AdaptiveController controller_;
  TxnEngine txn_;
  ComponentRegistry components_;
  /// Compiled bytecode programs (eval_mode == kBytecode); null otherwise.
  /// Built once in the constructor; prepared-site filters compile into
  /// SiteCache separately (they are composed, not program-owned, Exprs).
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

  // --- Steady-state scratch (high-water reuse, see header comment) ------
  std::vector<std::unique_ptr<Worker>> workers_;  ///< one per slot
  std::vector<SiteCache> site_cache_;    ///< by site id
  std::vector<PreparedSite> prepared_;   ///< by site id, refreshed per tick
  std::vector<LocalColumns> script_locals_;   ///< by script index
  std::vector<LocalColumns> handler_locals_;  ///< by handler index
};

}  // namespace sgl

#endif  // SGL_EXEC_TICK_EXECUTOR_H_
