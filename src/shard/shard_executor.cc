#include "src/shard/shard_executor.h"

#include <algorithm>

#include "src/common/alloc_hook.h"
#include "src/common/stopwatch.h"
#include "src/fault/fault_injector.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/update/expr_updater.h"
#include "src/vm/compile.h"
#include "src/vm/kernels.h"

namespace sgl {

ShardExecutor::ShardExecutor(World* world, ShardedWorld* sharded,
                             const CompiledProgram* program,
                             ExecOptions options)
    : world_(world),
      sharded_(sharded),
      program_(program),
      options_(options),
      controller_(options.planner, program->num_sites),
      txn_(program) {
  txn_.set_fault(options_.fault);
  if (options_.telemetry != nullptr) {
    options_.telemetry->EnsureSites(program_->num_sites);
  }
  if (options_.eval_mode != EvalMode::kInterpret && !options_.interpreted) {
    vm_cache_ = std::make_unique<VmProgramCache>();
    vm_cache_->set_telemetry(options_.telemetry);
    vm_cache_->CompileProgram(*program_);
  }
  SGL_CHECK(options_.num_shards == sharded_->num_shards());
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  site_cache_.resize(static_cast<size_t>(program_->num_sites));
  prepared_.resize(static_cast<size_t>(program_->num_sites));
  script_locals_.resize(program_->scripts.size());
  handler_locals_.resize(program_->handlers.size());
}

ShardExecutor::~ShardExecutor() = default;

Status ShardExecutor::Init() {
  SGL_CHECK(!initialized_);
  Catalog* catalog = program_->catalog.get();
  SGL_RETURN_IF_ERROR(
      components_.Register(catalog, MakeTxnComponent(&txn_, program_)));
  SGL_RETURN_IF_ERROR(components_.Register(
      catalog, std::make_unique<ExprUpdater>(program_)));
  initialized_ = true;
  return Status::OK();
}

Status ShardExecutor::RegisterComponent(
    std::unique_ptr<UpdateComponent> component) {
  SGL_CHECK(initialized_ && "call Init() first");
  return components_.Register(program_->catalog.get(), std::move(component));
}

void ShardExecutor::EnsureShards() {
  const int S = options_.num_shards;
  if (shards_.size() == static_cast<size_t>(S)) return;
  shards_.clear();
  for (int s = 0; s < S; ++s) {
    auto ws = std::make_unique<WorldShard>();
    ws->id = s;
    ws->router = std::make_unique<ShardRouter>(sharded_, s);
    ws->env.world = world_;
    ws->env.router = ws->router.get();
    ws->env.scratch = &ws->scratch;
    ws->env.vm = vm_cache_.get();
    ws->env.telemetry = options_.telemetry;
    // Chrome pid s+1: pid 0 stays the barrier thread's "world" track.
    ws->env.tel_track = static_cast<uint8_t>(s + 1);
    ws->env.trace_lane = s;
    ws->script_selections.resize(program_->scripts.size());
    ws->handler_rows.resize(program_->handlers.size());
    ws->handler_selections.resize(program_->handlers.size());
    shards_.push_back(std::move(ws));
  }
}

void ShardExecutor::ComputeSelections(WorldShard& ws) {
  // Scripts: the shard's slice of every class extent, dispatched on the PC
  // column for multi-phase scripts (§3.2).
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    const EntityTable& table = world_->table(script.cls);
    auto& selections = ws.script_selections[si];
    if (selections.size() != static_cast<size_t>(script.num_phases())) {
      selections.resize(static_cast<size_t>(script.num_phases()));
    }
    const RowIdx begin = sharded_->shard_begin(script.cls, ws.id);
    const RowIdx end = sharded_->shard_end(script.cls, ws.id);
    if (script.num_phases() == 1) {
      // Range iota: a pure function of [begin, end) — rebuilt only when
      // the partition moved (the same hoist TickExecutor applies).
      auto& all = selections[0];
      if (all.size() != static_cast<size_t>(end - begin) ||
          (!all.empty() && all[0] != begin)) {
        all.resize(end - begin);
        for (RowIdx r = begin; r < end; ++r) {
          all[static_cast<size_t>(r - begin)] = r;
        }
      }
    } else {
      for (auto& sel : selections) sel.clear();
      ConstNumberColumn pc = table.Num(script.pc_state);
      for (RowIdx r = begin; r < end; ++r) {
        int phase = static_cast<int>(pc[r]);
        if (phase < 0 || phase >= script.num_phases()) phase = 0;
        selections[static_cast<size_t>(phase)].push_back(r);
      }
    }
  }

  // Handlers: evaluate the condition over the shard's range. Conditions
  // only read prior state and zeroed locals, both unchanged throughout the
  // query phase, so evaluating them before the scripts run is equivalent
  // to TickExecutor's scripts-then-handlers order.
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    const EntityTable& table = world_->table(handler.cls);
    const RowIdx begin = sharded_->shard_begin(handler.cls, ws.id);
    const RowIdx end = sharded_->shard_end(handler.cls, ws.id);
    auto& rows = ws.handler_rows[hi];
    if (rows.size() != static_cast<size_t>(end - begin) ||
        (!rows.empty() && rows[0] != begin)) {
      rows.resize(end - begin);
      for (RowIdx r = begin; r < end; ++r) {
        rows[static_cast<size_t>(r - begin)] = r;
      }
    }
    auto& selection = ws.handler_selections[hi];
    selection.clear();
    if (rows.empty()) continue;
    if (options_.interpreted) {
      ScalarContext ctx;
      ctx.world = world_;
      ctx.outer_cls = handler.cls;
      ctx.locals = &handler_locals_[hi];
      for (RowIdx row : rows) {
        ctx.outer_row = row;
        if (EvalScalarBool(*handler.cond, ctx)) selection.push_back(row);
      }
    } else {
      VecContext ctx;
      ctx.world = world_;
      ctx.outer = &table;
      ctx.outer_rows = &rows;
      ctx.locals = &handler_locals_[hi];
      ctx.scratch = &ws.scratch;
      const VmProgram* cond_vm =
          vm_cache_ != nullptr ? vm_cache_->Value(handler.cond.get())
                               : nullptr;
      if (cond_vm != nullptr) {
        VmEvalBool(*cond_vm, ctx, &ws.scratch.vm, nullptr, 0,
                   &ws.handler_keep);
      } else {
        EvalBool(*handler.cond, ctx, &ws.handler_keep);
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        if (ws.handler_keep[i]) selection.push_back(rows[i]);
      }
    }
  }
}

void ShardExecutor::PrepareUnitSites(
    const std::vector<std::unique_ptr<PlanOp>>& ops, size_t outer_rows) {
  for (const auto& op : ops) {
    if (op->kind != PlanOp::Kind::kAccum) continue;
    const auto* accum = static_cast<const AccumOp*>(op.get());
    JoinStrategy strategy;
    if (options_.interpreted) {
      strategy = JoinStrategy::kNestedLoop;
    } else {
      const TableStats* inner_stats =
          stats_mgr_.has_stats() ? &stats_mgr_.Get(accum->inner_cls) : nullptr;
      strategy = controller_.Choose(*accum, tick_, inner_stats, outer_rows);
    }
    // Backend axes, resolved once per tick so every shard sees the same
    // PreparedSite (mirrors TickExecutor::PrepareSites).
    bool use_vm = false;
    bool probe_batched = false;
    if (!options_.interpreted) {
      use_vm = options_.eval_mode == EvalMode::kBytecode ||
               (options_.eval_mode == EvalMode::kAuto &&
                controller_.ChooseEvalBytecode(accum->site_id, tick_));
      probe_batched = options_.probe_mode == ProbeMode::kBatched ||
                      (options_.probe_mode == ProbeMode::kAuto &&
                       controller_.ChooseProbeBatched(accum->site_id, tick_));
    }
    if (use_vm) ++last_.sites_bytecode; else ++last_.sites_interpreted;
    if (probe_batched) {
      ++last_.sites_probe_batched;
    } else {
      ++last_.sites_probe_single;
    }
    if (options_.telemetry != nullptr && options_.telemetry->armed()) {
      options_.telemetry->RecordSiteDecision(accum->site_id, tick_,
                                             JoinStrategyName(strategy),
                                             use_vm, probe_batched);
    }
    PrepareSite(*accum, strategy, *world_, &indexes_, tick_,
                /*compile_vm=*/vm_cache_ != nullptr, use_vm, probe_batched,
                &site_cache_[static_cast<size_t>(accum->site_id)],
                &prepared_[static_cast<size_t>(accum->site_id)]);
  }
}

void ShardExecutor::PrepareAllSites() {
  // Site ids are program-unique, so one pass over every unit prepares each
  // site exactly once; the controller sees the same global outer-row count
  // the single-shard executor feeds it.
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      size_t total = 0;
      for (const auto& ws : shards_) {
        total += ws->script_selections[si][static_cast<size_t>(k)].size();
      }
      if (total == 0) continue;
      PrepareUnitSites(script.phases[static_cast<size_t>(k)], total);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    size_t total = 0;
    for (const auto& ws : shards_) {
      total += ws->handler_selections[hi].size();
    }
    if (total == 0) continue;
    PrepareUnitSites(program_->handlers[hi].ops, total);
  }
}

void ShardExecutor::RunUnitShard(
    WorldShard& ws, const std::vector<std::unique_ptr<PlanOp>>& ops,
    ClassId cls, const std::vector<RowIdx>& selection,
    LocalColumns* locals) {
  ExecEnv& env = ws.env;
  env.tick = tick_;
  env.outer_cls = cls;
  env.outer = &world_->table(cls);
  env.txn_sink = txn_.shard(ws.id);
  env.locals = locals;
  env.prepared = &prepared_;
  env.feedback = &ws.feedback;
  env.trace = trace_;
  env.recorder_sink = recorder_sink_;
  if (options_.interpreted) {
    RunOpsScalar(ops, selection, env);
    return;
  }
  const size_t morsel = options_.morsel_size;
  if (selection.size() <= morsel) {
    RunOpsVectorized(ops, selection, env);
    return;
  }
  // Sequential morsel chunks bound the per-unit pair scratch exactly like
  // the morsel-parallel executor's per-thread slices.
  for (size_t b = 0; b < selection.size(); b += morsel) {
    const size_t e = std::min(selection.size(), b + morsel);
    ws.slice.assign(selection.begin() + static_cast<ptrdiff_t>(b),
                    selection.begin() + static_cast<ptrdiff_t>(e));
    RunOpsVectorized(ops, ws.slice, env);
  }
}

void ShardExecutor::RunShard(WorldShard& ws) {
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      const auto& selection =
          ws.script_selections[si][static_cast<size_t>(k)];
      if (selection.empty()) continue;
      RunUnitShard(ws, script.phases[static_cast<size_t>(k)], script.cls,
                   selection, &script_locals_[si]);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    const auto& selection = ws.handler_selections[hi];
    if (selection.empty()) continue;
    RunUnitShard(ws, handler.ops, handler.cls, selection,
                 &handler_locals_[hi]);
  }
}

Status ShardExecutor::RunTick() {
  SGL_CHECK(initialized_ && "call Init() first");
  const AllocCounts alloc_before = AllocCountersNow();
  Stopwatch total;
  Telemetry* const tel = options_.telemetry;
  SGL_TRACE_SPAN(tel, kSpanTickTotal, tick_, 0, 0);
  last_.Reset(tick_);
  const int num_classes = world_->catalog().num_classes();
  const int S = options_.num_shards;
  const int64_t index_micros_before = indexes_.build_micros();
  const int64_t simd_lanes_before = SimdLanesNow();

  // --- Setup -----------------------------------------------------------
  sharded_->EnsurePartition();
  world_->ResetEffects();
  if (!options_.interpreted) stats_mgr_.MaybeRefresh(*world_, tick_);
  recorder_sink_ = options_.recorder != nullptr
                       ? options_.recorder->capture_sink()
                       : nullptr;
  for (EffectTracer* t : {trace_, recorder_sink_}) {
    if (t != nullptr) t->ReserveLanes(S);  // one lane per world shard
  }
  txn_.set_fault_tick(tick_);
  txn_.set_prov_sink(recorder_sink_);
  txn_.BeginTick(S);
  EnsureShards();
  for (auto& ws : shards_) {
    ws->router->BeginTick();
    ws->feedback.assign(static_cast<size_t>(program_->num_sites),
                        SiteFeedback());
  }
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    AllocateLocalColumns(program_->scripts[si].local_types,
                         world_->table(program_->scripts[si].cls).size(),
                         &script_locals_[si]);
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    AllocateLocalColumns(program_->handlers[hi].local_types,
                         world_->table(program_->handlers[hi].cls).size(),
                         &handler_locals_[hi]);
  }

  // --- A. Selections + P. site preparation -----------------------------
  Stopwatch query_timer;
  auto for_each_shard = [&](auto&& fn) {
    if (pool_ != nullptr) {
      pool_->ParallelFor(S, [&](int s) { fn(*shards_[static_cast<size_t>(s)]); });
    } else {
      for (int s = 0; s < S; ++s) fn(*shards_[static_cast<size_t>(s)]);
    }
  };
  for_each_shard([&](WorldShard& ws) {
    SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_,
                   static_cast<uint8_t>(ws.id + 1), 0);
    ComputeSelections(ws);
  });
  {
    SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0, 0);
    PrepareAllSites();
  }

  // --- B. Query + effect phase (parallel across shards) -----------------
  for_each_shard([&](WorldShard& ws) {
    Stopwatch shard_timer;
    {
      SGL_TRACE_SPAN(tel, kSpanShardRun, tick_,
                     static_cast<uint8_t>(ws.id + 1), 0);
      RunShard(ws);
    }
    ws.query_micros = shard_timer.ElapsedMicros();
  });
  last_.query_effect_micros = query_timer.ElapsedMicros();

  // --- C. Barrier: route, merge, canonicalize ---------------------------
  Stopwatch merge_timer;
  {
    SGL_TRACE_SPAN(tel, kSpanTickBarrier, tick_, 0, 0);
    if (options_.fault != nullptr) {
      // Latency fault at the barrier entrance: every shard's query work is
      // done, nothing has merged. Must be state-neutral — the stall-parity
      // test holds the checksum to the no-fault run's.
      options_.fault->MaybeStall(kFaultShardBarrierStall, tick_);
    }
    {
      SGL_TRACE_SPAN(tel, kSpanMailboxFlip, tick_, 0, 0);
      for (auto& ws : shards_) {
        for (int d = 0; d < S; ++d) ws->router->lane(d).Flip();
      }
    }
    if (options_.fault != nullptr) {
      // Crash after the mailbox flip but before any shard merges: routed
      // records are stranded in flipped lanes and die with the process.
      SGL_RETURN_IF_ERROR(
          options_.fault->MaybeCrash(kFaultShardCrashPremerge, tick_));
    }
    cross_records_ = 0;
    {
      SGL_TRACE_SPAN(tel, kSpanMailboxReplay, tick_, 0, 0);
      for (auto& ws : shards_) {  // source-major: reproduces serial ⊕ order
        ws->router->MergeInto(world_);
        cross_records_ += ws->router->OutboundRecords();
      }
    }
    {
      SGL_TRACE_SPAN(tel, kSpanTickFinalize, tick_, 0, 0);
      for (ClassId c = 0; c < num_classes; ++c) {
        world_->effects(c).FinalizeSets();
      }
    }
    last_.sites.assign(static_cast<size_t>(program_->num_sites),
                       SiteFeedback());
    for (const auto& ws : shards_) {
      for (size_t i = 0; i < ws->feedback.size(); ++i) {
        if (ws->feedback[i].site < 0) continue;
        SiteFeedback& agg = last_.sites[i];
        agg.site = ws->feedback[i].site;
        agg.strategy = ws->feedback[i].strategy;
        agg.outer_rows += ws->feedback[i].outer_rows;
        agg.candidates += ws->feedback[i].candidates;
        agg.matches += ws->feedback[i].matches;
        agg.micros += ws->feedback[i].micros;
        agg.probe_micros += ws->feedback[i].probe_micros;
        agg.effects += ws->feedback[i].effects;
        last_.probe_micros += ws->feedback[i].probe_micros;
      }
    }
    for (const SiteFeedback& fb : last_.sites) {
      if (fb.site >= 0) controller_.Feedback(fb);
    }
  }
  last_.merge_micros = merge_timer.ElapsedMicros();

  // --- D. Update phase --------------------------------------------------
  Stopwatch update_timer;
  // Out-of-band completions ride the barrier (after the mailbox merge,
  // before the update components read them); see src/async/job_service.h.
  if (jobs_ != nullptr) {
    SGL_TRACE_SPAN(tel, kSpanTickInstall, tick_, 0, 0);
    jobs_->InstallDue(tick_);
  }
  {
    SGL_TRACE_SPAN(tel, kSpanTickUpdate, tick_, 0, 0);
    components_.RunAll(world_, tick_);
  }
  last_.update_micros = update_timer.ElapsedMicros();
  if (txn_.ConsumeInjectedCrash()) {
    // Torn update phase (see TickExecutor::RunTick): recovery only.
    return Status::Internal(std::string(kFaultCrashPrefix) +
                            " at txn.admit.crash tick " +
                            std::to_string(tick_));
  }
  if (options_.fault != nullptr) {
    // Crash after updates but before migrations/epoch/tick commit.
    SGL_RETURN_IF_ERROR(
        options_.fault->MaybeCrash(kFaultShardCrashPostUpdate, tick_));
  }

  // --- Barrier tail: migrations + epoch ---------------------------------
  if (sharded_->has_pending_migrations()) {
    SGL_TRACE_SPAN(tel, kSpanTickMigrate, tick_, 0, 0);
    SGL_RETURN_IF_ERROR(sharded_->ApplyPendingMigrations());
  }
  sharded_->BumpEpoch();

  // --- Bookkeeping ------------------------------------------------------
  if (jobs_ != nullptr) {
    JobTickStats js;
    jobs_->SampleTick(&js);
    last_.jobs_submitted = js.submitted;
    last_.jobs_installed = js.installed;
    last_.jobs_in_flight = js.in_flight;
    last_.job_wait_micros = js.wait_micros;
  }
  last_.txn = txn_.last_tick();
  if (vm_cache_ != nullptr) {
    last_.vm_programs = vm_cache_->programs_compiled();
    last_.vm_fallbacks = vm_cache_->fallbacks();
    last_.vm_compile_micros = vm_cache_->compile_micros();
  }
  last_.index_build_micros = indexes_.build_micros() - index_micros_before;
  last_.index_memory_bytes = static_cast<int64_t>(indexes_.MemoryBytes());
  last_.simd_lanes_used = SimdLanesNow() - simd_lanes_before;
  // Shard skew: slowest-minus-fastest B phase approximates the time the
  // barrier sat waiting on the straggler; imbalance is (max/mean − 1) in
  // basis points. Computed outside the armed-telemetry branch because the
  // flight recorder's anomaly triggers consume it too.
  int64_t q_max = 0, q_min = INT64_MAX, q_sum = 0;
  for (const auto& ws : shards_) {
    q_max = std::max(q_max, ws->query_micros);
    q_min = std::min(q_min, ws->query_micros);
    q_sum += ws->query_micros;
  }
  const int64_t barrier_stall_us = q_min == INT64_MAX ? 0 : q_max - q_min;
  const int64_t imbalance_bp =
      q_sum > 0 ? (q_max * S - q_sum) * 10000 / q_sum : 0;
  // Recorder capture: part of the tick (see TickExecutor::RunTick), and
  // before the alloc-count read below.
  if (recorder_sink_ != nullptr) {
    SGL_TRACE_SPAN(tel, kSpanTickCapture, tick_, 0, 0);
    FlightRecorder::FrameInput fin;
    fin.tick = tick_;
    fin.stats = &last_;
    fin.world = world_;
    fin.tick_clock = &total;
    fin.barrier_stall_us = barrier_stall_us;
    fin.imbalance_bp = imbalance_bp;
    fin.cross_shard_records = static_cast<int64_t>(cross_records_);
    last_.total_micros = options_.recorder->CaptureTick(fin);
  } else {
    last_.total_micros = total.ElapsedMicros();
  }
  const AllocCounts alloc_after = AllocCountersNow();
  last_.allocs_per_tick = alloc_after.count - alloc_before.count;
  last_.bytes_per_tick = alloc_after.bytes - alloc_before.bytes;
  if (tel != nullptr && tel->armed()) {
    for (const SiteFeedback& fb : last_.sites) {
      if (fb.site < 0) continue;
      tel->RecordSiteTick(fb.site, fb.micros, fb.probe_micros, fb.outer_rows,
                          fb.candidates, fb.matches, fb.effects);
      const AdaptiveController::BackendBeliefs b =
          controller_.Beliefs(fb.site);
      tel->RecordSiteBeliefs(fb.site, b.eval_us_per_outer[0],
                             b.eval_us_per_outer[1], b.probe_us_per_outer[0],
                             b.probe_us_per_outer[1]);
    }
    for (const auto& ws : shards_) {
      tel->metrics().Record(tel->series().shard_query_us, ws->query_micros);
    }
    Telemetry::TickSample s;
    s.total_us = last_.total_micros;
    s.query_us = last_.query_effect_micros;
    s.merge_us = last_.merge_micros;
    s.update_us = last_.update_micros;
    s.probe_us = last_.probe_micros;
    s.job_wait_us = jobs_ != nullptr ? last_.job_wait_micros : -1;
    s.barrier_stall_us = barrier_stall_us;
    s.shard_imbalance_bp = imbalance_bp;
    s.cross_shard_records = static_cast<int64_t>(cross_records_);
    s.jobs_submitted = last_.jobs_submitted;
    s.jobs_installed = last_.jobs_installed;
    s.jobs_in_flight = last_.jobs_in_flight;
    s.vm_programs = last_.vm_programs;
    tel->RecordTick(s);
  }
  ++tick_;
  return Status::OK();
}

void ShardExecutor::ResetStatsAfterRestore() {
  last_.jobs_submitted = 0;
  last_.jobs_installed = 0;
  last_.job_wait_micros = 0;
  last_.jobs_in_flight =
      jobs_ != nullptr ? static_cast<int64_t>(jobs_->in_flight()) : 0;
  if (jobs_ != nullptr) jobs_->ResetStatsWindow();
}

}  // namespace sgl
