#include "src/exec/tick_executor.h"

#include <algorithm>

#include "src/common/alloc_hook.h"
#include "src/common/stopwatch.h"
#include "src/fault/fault_injector.h"
#include "src/shard/shard_router.h"
#include "src/shard/sharded_world.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/update/expr_updater.h"
#include "src/vm/compile.h"
#include "src/vm/kernels.h"

namespace sgl {

void TickStats::Reset(Tick now) {
  // Field-wise so `sites` keeps its capacity across ticks.
  tick = now;
  query_effect_micros = 0;
  merge_micros = 0;
  update_micros = 0;
  index_build_micros = 0;
  index_memory_bytes = 0;
  total_micros = 0;
  allocs_per_tick = 0;
  bytes_per_tick = 0;
  vm_programs = 0;
  vm_fallbacks = 0;
  vm_compile_micros = 0;
  probe_micros = 0;
  simd_lanes_used = 0;
  sites_bytecode = 0;
  sites_interpreted = 0;
  sites_probe_batched = 0;
  sites_probe_single = 0;
  jobs_submitted = 0;
  jobs_installed = 0;
  jobs_in_flight = 0;
  job_wait_micros = 0;
  txn = TxnStats();
}

TickExecutor::TickExecutor(World* world, ShardedWorld* sharded,
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
  if (sharded_ != nullptr) {
    // One shard needs no ShardedWorld: that layout is sharded_ == null.
    SGL_CHECK(options_.num_shards == sharded_->num_shards() &&
              options_.num_shards > 1);
    num_shards_ = sharded_->num_shards();
  } else {
    SGL_CHECK(options_.num_shards <= 1);
  }
  const int threads = options_.num_threads > 1 ? options_.num_threads : 1;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  site_cache_.resize(static_cast<size_t>(program_->num_sites));
  prepared_.resize(static_cast<size_t>(program_->num_sites));
  script_locals_.resize(program_->scripts.size());
  handler_locals_.resize(program_->handlers.size());

  // Worker slots: one per shard, or one per thread when S = 1.
  const int num_workers = num_shards_ > 1 ? num_shards_ : threads;
  const int num_classes = world_->catalog().num_classes();
  for (int w = 0; w < num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    ExecEnv& env = worker->env;
    env.world = world_;
    if (sharded_ != nullptr) {
      worker->router = std::make_unique<ShardRouter>(sharded_, w);
      env.router = worker->router.get();
    } else {
      env.effect_sinks.resize(static_cast<size_t>(num_classes));
      for (ClassId c = 0; c < num_classes; ++c) {
        EffectBuffer* sink = &world_->effects(c);
        if (num_workers > 1) {
          worker->effects.push_back(
              std::make_unique<EffectBuffer>(&world_->catalog().Get(c)));
          sink = worker->effects.back().get();
        }
        env.effect_sinks[static_cast<size_t>(c)] = sink;
      }
    }
    env.prepared = &prepared_;
    env.feedback = &worker->feedback;
    env.scratch = &worker->scratch;
    env.vm = vm_cache_.get();
    env.telemetry = options_.telemetry;
    // Chrome pid: 0 is the "world" track (the barrier thread and every
    // unsharded span), s + 1 is world shard s.
    env.tel_track = static_cast<uint8_t>(num_shards_ > 1 ? w + 1 : 0);
    env.trace_lane = w;
    for (const CompiledScript& script : program_->scripts) {
      worker->script_selections.emplace_back(
          static_cast<size_t>(script.num_phases()));
    }
    worker->handler_rows.resize(program_->handlers.size());
    worker->handler_selections.resize(program_->handlers.size());
    workers_.push_back(std::move(worker));
  }
}

TickExecutor::~TickExecutor() = default;

Status TickExecutor::Init() {
  SGL_CHECK(!initialized_);
  Catalog* catalog = program_->catalog.get();
  SGL_RETURN_IF_ERROR(
      components_.Register(catalog, MakeTxnComponent(&txn_, program_)));
  SGL_RETURN_IF_ERROR(components_.Register(
      catalog, std::make_unique<ExprUpdater>(program_)));
  initialized_ = true;
  return Status::OK();
}

Status TickExecutor::RegisterComponent(
    std::unique_ptr<UpdateComponent> component) {
  SGL_CHECK(initialized_ && "call Init() first");
  return components_.Register(program_->catalog.get(), std::move(component));
}

void TickExecutor::ComputeSelections(int shard) {
  Worker& ws = *workers_[static_cast<size_t>(shard)];
  auto range_of = [&](ClassId cls, RowIdx* begin, RowIdx* end) {
    *begin = sharded_ != nullptr ? sharded_->shard_begin(cls, shard) : 0;
    *end = sharded_ != nullptr
               ? sharded_->shard_end(cls, shard)
               : static_cast<RowIdx>(world_->table(cls).size());
  };
  // Range iota: a pure function of [begin, end), rebuilt only when the
  // range moved (spawns, despawns, migrations).
  auto iota = [](RowIdx begin, RowIdx end, std::vector<RowIdx>* rows) {
    if (rows->size() == static_cast<size_t>(end - begin) &&
        (rows->empty() || (*rows)[0] == begin)) {
      return;
    }
    rows->resize(end - begin);
    for (RowIdx r = begin; r < end; ++r) {
      (*rows)[static_cast<size_t>(r - begin)] = r;
    }
  };

  // Scripts: the shard's slice of every class extent, dispatched on the PC
  // column for multi-phase scripts (§3.2).
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    auto& selections = ws.script_selections[si];
    RowIdx begin, end;
    range_of(script.cls, &begin, &end);
    if (script.num_phases() == 1) {
      iota(begin, end, &selections[0]);
    } else {
      for (auto& sel : selections) sel.clear();
      ConstNumberColumn pc = world_->table(script.cls).Num(script.pc_state);
      for (RowIdx r = begin; r < end; ++r) {
        int phase = static_cast<int>(pc[r]);
        if (phase < 0 || phase >= script.num_phases()) phase = 0;
        selections[static_cast<size_t>(phase)].push_back(r);
      }
    }
  }

  // Handlers (§3.2): evaluate the condition over the shard's range.
  // Conditions only read prior state and their own zeroed locals, both
  // unchanged throughout the query phase, so evaluating them before the
  // scripts run is the same as evaluating them after.
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    RowIdx begin, end;
    range_of(handler.cls, &begin, &end);
    auto& rows = ws.handler_rows[hi];
    iota(begin, end, &rows);
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
      ctx.outer = &world_->table(handler.cls);
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

void TickExecutor::PrepareSites() {
  // Site ids are program-unique, so one pass over every unit prepares each
  // site exactly once, for every shard, with the global outer-row count
  // (slots past the shard count hold empty selections).
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (size_t k = 0; k < script.phases.size(); ++k) {
      size_t total = 0;
      for (const auto& ws : workers_) {
        total += ws->script_selections[si][k].size();
      }
      if (total == 0) continue;
      PrepareUnitSites(script.phases[k], total);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    size_t total = 0;
    for (const auto& ws : workers_) total += ws->handler_selections[hi].size();
    if (total == 0) continue;
    PrepareUnitSites(program_->handlers[hi].ops, total);
  }
}

void TickExecutor::PrepareUnitSites(
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
    // Backend axes (orthogonal to the join strategy): per-site bytecode
    // and batched-probe decisions, resolved here once per tick so every
    // worker sees the same PreparedSite.
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

void TickExecutor::RunShard(int shard, int lanes) {
  const Worker& ws = *workers_[static_cast<size_t>(shard)];
  // One tick.query span per unit with one shard; shard.run covers S > 1.
  Telemetry* const unit_tel = num_shards_ == 1 ? options_.telemetry : nullptr;
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (size_t k = 0; k < script.phases.size(); ++k) {
      const auto& selection = ws.script_selections[si][k];
      if (selection.empty()) continue;
      SGL_TRACE_SPAN(unit_tel, kSpanTickQuery, tick_, 0,
                     static_cast<uint16_t>(si));
      RunUnit(script.phases[k], script.cls, selection, &script_locals_[si],
              shard, lanes);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    const auto& selection = ws.handler_selections[hi];
    if (selection.empty()) continue;
    SGL_TRACE_SPAN(unit_tel, kSpanTickQuery, tick_, 0,
                   static_cast<uint16_t>(hi));
    RunUnit(handler.ops, handler.cls, selection, &handler_locals_[hi], shard,
            lanes);
  }
}

void TickExecutor::RunUnit(const std::vector<std::unique_ptr<PlanOp>>& ops,
                           ClassId cls, const std::vector<RowIdx>& selection,
                           LocalColumns* locals, int first, int lanes) {
  // Static morsel -> lane assignment: morsel m runs on lane m % lanes, each
  // lane's morsels in increasing order — deterministic regardless of
  // scheduling. A single lane runs every morsel in order, so its scratch
  // and probe batches stay morsel-sized either way.
  const size_t morsel = options_.morsel_size;
  const size_t num_morsels = (selection.size() + morsel - 1) / morsel;
  auto run_lane = [&](int t) {
    Worker& w = *workers_[static_cast<size_t>(first + t)];
    ExecEnv& env = w.env;
    env.outer_cls = cls;
    env.outer = &world_->table(cls);
    env.locals = locals;
    if (options_.interpreted) {
      RunOpsScalar(ops, selection, env);
      return;
    }
    if (num_morsels == 1) {  // the whole selection is one morsel: no copy
      RunOpsVectorized(ops, selection, env);
      return;
    }
    for (size_t m = static_cast<size_t>(t); m < num_morsels;
         m += static_cast<size_t>(lanes)) {
      const size_t begin = m * morsel;
      const size_t end = std::min(selection.size(), begin + morsel);
      w.slice.assign(selection.begin() + static_cast<ptrdiff_t>(begin),
                     selection.begin() + static_cast<ptrdiff_t>(end));
      RunOpsVectorized(ops, w.slice, env);
    }
  };
  if (lanes > 1 && num_morsels > 1) {
    pool_->ParallelFor(lanes, run_lane);
  } else {
    run_lane(0);
  }
}

Status TickExecutor::MergeEffects() {
  Telemetry* const tel = options_.telemetry;
  const bool sharded = num_shards_ > 1;
  if (sharded) {
    if (options_.fault != nullptr) {
      // Latency fault at the barrier entrance: every shard's query work is
      // done, nothing has merged. Must be state-neutral — the stall-parity
      // test holds the checksum to the no-fault run's.
      options_.fault->MaybeStall(kFaultShardBarrierStall, tick_);
    }
    SGL_TRACE_SPAN(tel, kSpanMailboxFlip, tick_, 0, 0);
    for (auto& ws : workers_) {
      for (int d = 0; d < num_shards_; ++d) ws->router->lane(d).Flip();
    }
  }
  if (options_.fault != nullptr) {
    // Crash between query and merge: issued effects/intents (and routed
    // records, stranded in flipped lanes) die with the process; state
    // columns are still pre-tick. Recovery restores the last checkpoint
    // and replays.
    SGL_RETURN_IF_ERROR(options_.fault->MaybeCrash(
        sharded ? kFaultShardCrashPremerge : kFaultExecCrashPostQuery,
        tick_));
  }
  if (!sharded) {
    // Lane order; a serial tick wrote the world's buffers directly.
    const int num_classes = world_->catalog().num_classes();
    for (const auto& ws : workers_) {
      if (ws->effects.empty()) continue;
      for (ClassId c = 0; c < num_classes; ++c) {
        world_->effects(c).MergeFrom(*ws->effects[static_cast<size_t>(c)]);
      }
    }
    return Status::OK();
  }
  SGL_TRACE_SPAN(tel, kSpanMailboxReplay, tick_, 0, 0);
  cross_records_ = 0;
  for (auto& ws : workers_) {  // source-major: reproduces serial ⊕ order
    ws->router->MergeInto(world_);
    cross_records_ += ws->router->OutboundRecords();
  }
  return Status::OK();
}

Status TickExecutor::RunTick() {
  SGL_CHECK(initialized_ && "call Init() first");
  const AllocCounts alloc_before = AllocCountersNow();
  Stopwatch total;
  Telemetry* const tel = options_.telemetry;
  SGL_TRACE_SPAN(tel, kSpanTickTotal, tick_, 0, 0);
  last_.Reset(tick_);
  const int num_classes = world_->catalog().num_classes();
  const int S = num_shards_;
  const int num_workers = static_cast<int>(workers_.size());
  const int64_t index_micros_before = indexes_.build_micros();
  const int64_t simd_lanes_before = SimdLanesNow();

  // --- 0. Setup --------------------------------------------------------
  if (sharded_ != nullptr) sharded_->EnsurePartition();
  world_->ResetEffects();
  if (!options_.interpreted) stats_mgr_.MaybeRefresh(*world_, tick_);
  recorder_sink_ = options_.recorder != nullptr
                       ? options_.recorder->capture_sink()
                       : nullptr;
  for (EffectTracer* t : {trace_, recorder_sink_}) {
    if (t != nullptr) t->ReserveLanes(num_workers);  // one per worker slot
  }
  txn_.set_fault_tick(tick_);
  txn_.set_prov_sink(recorder_sink_);
  txn_.BeginTick(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    if (worker.router != nullptr) worker.router->BeginTick();
    for (size_t c = 0; c < worker.effects.size(); ++c) {
      worker.effects[c]->Reset(world_->table(static_cast<ClassId>(c)).size());
    }
    worker.feedback.assign(static_cast<size_t>(program_->num_sites),
                           SiteFeedback());
    ExecEnv& env = worker.env;
    env.tick = tick_;
    env.txn_sink = txn_.shard(w);
    env.trace = trace_;
    env.recorder_sink = recorder_sink_;
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

  // --- 1-3. Select, prepare, query + effect ------------------------------
  Stopwatch query_timer;
  // Shards fan out on the pool; one shard runs on the calling thread.
  auto for_each_shard = [&](auto&& fn) {
    if (S > 1 && pool_ != nullptr) {
      pool_->ParallelFor(S, fn);
    } else {
      for (int s = 0; s < S; ++s) fn(s);
    }
  };
  for_each_shard([&](int s) {
    SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_,
                   workers_[static_cast<size_t>(s)]->env.tel_track, 0);
    ComputeSelections(s);
  });
  {
    SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0, 0);
    PrepareSites();
  }
  if (S > 1) {
    for_each_shard([&](int s) {
      Worker& ws = *workers_[static_cast<size_t>(s)];
      Stopwatch shard_timer;
      {
        SGL_TRACE_SPAN(tel, kSpanShardRun, tick_, ws.env.tel_track, 0);
        RunShard(s, 1);
      }
      ws.query_micros = shard_timer.ElapsedMicros();
    });
  } else {
    // The scalar baseline runs whole selections on lane 0.
    RunShard(0, options_.interpreted ? 1 : num_workers);
  }
  last_.query_effect_micros = query_timer.ElapsedMicros();

  // --- 4. Merge ---------------------------------------------------------
  Stopwatch merge_timer;
  {
    SGL_TRACE_SPAN(tel, S > 1 ? kSpanTickBarrier : kSpanTickMerge, tick_, 0,
                   0);
    SGL_RETURN_IF_ERROR(MergeEffects());
    // Canonicalize set-effect logs (sort + dedup + pooled materialization)
    // now that every worker has merged; update-phase reads require it.
    {
      SGL_TRACE_SPAN(tel, kSpanTickFinalize, tick_, 0, 0);
      for (ClassId c = 0; c < num_classes; ++c) {
        world_->effects(c).FinalizeSets();
      }
    }
    // Aggregate per-site feedback across workers and inform the controller.
    last_.sites.assign(static_cast<size_t>(program_->num_sites),
                       SiteFeedback());
    for (const auto& ws : workers_) {
      for (size_t i = 0; i < ws->feedback.size(); ++i) {
        const SiteFeedback& fb = ws->feedback[i];
        if (fb.site < 0) continue;
        SiteFeedback& agg = last_.sites[i];
        agg.site = fb.site;
        agg.strategy = fb.strategy;
        agg.outer_rows += fb.outer_rows;
        agg.candidates += fb.candidates;
        agg.matches += fb.matches;
        agg.micros += fb.micros;
        agg.probe_micros += fb.probe_micros;
        agg.effects += fb.effects;
        last_.probe_micros += fb.probe_micros;
      }
    }
    for (const SiteFeedback& fb : last_.sites) {
      if (fb.site >= 0) controller_.Feedback(fb);
    }
  }
  last_.merge_micros = merge_timer.ElapsedMicros();

  // --- 5. Update phase --------------------------------------------------
  Stopwatch update_timer;
  // Out-of-band completions ride the barrier: results whose declared
  // latency elapses this tick install now, after the merge and in
  // deterministic order, so the components below read them no matter which
  // tick a worker finished on (src/async/job_service.h).
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
    // Mid-admission crash left a torn update phase (partial commits
    // written back, later issuers unprocessed). Surface it as the crash
    // it models — the tick counter does NOT advance past a torn tick.
    return Status::Internal(std::string(kFaultCrashPrefix) +
                            " at txn.admit.crash tick " +
                            std::to_string(tick_));
  }
  if (options_.fault != nullptr) {
    // Crash after the update phase but before the tick commits (migrations,
    // epoch, counter bump): the torn-tick window a checkpoint must mend.
    SGL_RETURN_IF_ERROR(options_.fault->MaybeCrash(
        S > 1 ? kFaultShardCrashPostUpdate : kFaultExecCrashPostUpdate,
        tick_));
  }

  // --- 6. Bookkeeping ----------------------------------------------------
  if (sharded_ != nullptr) {
    if (sharded_->has_pending_migrations()) {
      SGL_TRACE_SPAN(tel, kSpanTickMigrate, tick_, 0, 0);
      SGL_RETURN_IF_ERROR(sharded_->ApplyPendingMigrations());
    }
    sharded_->BumpEpoch();
  }
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
  // Shard skew (S > 1): slowest-minus-fastest query phase approximates the
  // time the barrier sat waiting on the straggler; imbalance is
  // (max/mean − 1) in basis points. Computed outside the armed-telemetry
  // branch because the flight recorder's anomaly triggers consume it too.
  int64_t barrier_stall_us = -1;  // -1 = no shard barrier
  int64_t imbalance_bp = 0;
  if (S > 1) {
    int64_t q_max = 0, q_min = INT64_MAX, q_sum = 0;
    for (const auto& ws : workers_) {
      q_max = std::max(q_max, ws->query_micros);
      q_min = std::min(q_min, ws->query_micros);
      q_sum += ws->query_micros;
    }
    barrier_stall_us = q_max - q_min;
    imbalance_bp = q_sum > 0 ? (q_max * S - q_sum) * 10000 / q_sum : 0;
  }

  // --- 7. Recorder capture ----------------------------------------------
  // Part of the tick: total_micros runs to the end of capture (the
  // recorder seals its frame with the same figure). Before the alloc-count
  // read below, so frame assembly is held to allocs_per_tick == 0.
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
    if (S > 1) {
      for (const auto& ws : workers_) {
        tel->metrics().Record(tel->series().shard_query_us, ws->query_micros);
      }
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

void TickExecutor::ResetStatsAfterRestore() {
  last_.jobs_submitted = 0;
  last_.jobs_installed = 0;
  last_.job_wait_micros = 0;
  last_.jobs_in_flight =
      jobs_ != nullptr ? static_cast<int64_t>(jobs_->in_flight()) : 0;
  if (jobs_ != nullptr) jobs_->ResetStatsWindow();
}

}  // namespace sgl
