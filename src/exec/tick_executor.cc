#include "src/exec/tick_executor.h"

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

TickExecutor::TickExecutor(World* world, const CompiledProgram* program,
                           ExecOptions options)
    : world_(world),
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
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  site_cache_.resize(static_cast<size_t>(program_->num_sites));
  prepared_.resize(static_cast<size_t>(program_->num_sites));
  script_locals_.resize(program_->scripts.size());
  script_selections_.resize(program_->scripts.size());
  handler_locals_.resize(program_->handlers.size());
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

void TickExecutor::EnsureWorkers(int shards) {
  const int num_classes = world_->catalog().num_classes();
  if (shards > 1 && shard_effects_.size() != static_cast<size_t>(shards)) {
    shard_effects_.clear();
    shard_effects_.resize(static_cast<size_t>(shards));
    for (auto& per_class : shard_effects_) {
      for (ClassId c = 0; c < num_classes; ++c) {
        per_class.push_back(
            std::make_unique<EffectBuffer>(&world_->catalog().Get(c)));
      }
    }
    workers_.clear();  // sink tables must be rebuilt
  }
  if (workers_.size() == static_cast<size_t>(shards)) return;
  workers_.clear();
  for (int s = 0; s < shards; ++s) {
    auto w = std::make_unique<WorkerState>();
    ExecEnv& env = w->env;
    env.world = world_;
    env.effect_sinks.resize(static_cast<size_t>(num_classes));
    for (ClassId c = 0; c < num_classes; ++c) {
      env.effect_sinks[static_cast<size_t>(c)] =
          shards == 1 ? &world_->effects(c)
                      : shard_effects_[static_cast<size_t>(s)]
                                      [static_cast<size_t>(c)].get();
    }
    env.scratch = &w->scratch;
    env.vm = vm_cache_.get();
    env.telemetry = options_.telemetry;
    env.tel_track = 0;  // unsharded: every span renders under pid "world"
    env.trace_lane = s;
    workers_.push_back(std::move(w));
  }
}

void TickExecutor::PrepareSites(
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
    // worker thread sees the same PreparedSite.
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

void TickExecutor::RunUnit(
    const std::vector<std::unique_ptr<PlanOp>>& ops, ClassId cls,
    const std::vector<RowIdx>& selection, LocalColumns* locals) {
  auto configure = [&](int shard) -> ExecEnv& {
    ExecEnv& env = workers_[static_cast<size_t>(shard)]->env;
    env.tick = tick_;
    env.outer_cls = cls;
    env.outer = &world_->table(cls);
    env.txn_sink = txn_.shard(shard);
    env.locals = locals;
    env.prepared = &prepared_;
    env.feedback = &feedback_shards_[static_cast<size_t>(shard)];
    env.trace = trace_;
    env.recorder_sink = recorder_sink_;
    return env;
  };

  if (options_.interpreted) {
    RunOpsScalar(ops, selection, configure(0));
    return;
  }
  // Static morsel -> shard assignment: morsel m runs on shard m % T,
  // each shard's morsels in increasing order — deterministic for a fixed
  // thread count regardless of scheduling. A serial tick runs the same
  // morsels in order, so its scratch and probe batches stay morsel-sized.
  const size_t morsel = options_.morsel_size;
  const int T = options_.num_threads > 1 ? options_.num_threads : 1;
  const size_t num_morsels = (selection.size() + morsel - 1) / morsel;
  auto run_morsels = [&](int t) {
    ExecEnv& env = configure(t);
    std::vector<RowIdx>& slice = workers_[static_cast<size_t>(t)]->slice;
    for (size_t m = static_cast<size_t>(t); m < num_morsels;
         m += static_cast<size_t>(T)) {
      size_t begin = m * morsel;
      size_t end = std::min(selection.size(), begin + morsel);
      slice.assign(selection.begin() + static_cast<ptrdiff_t>(begin),
                   selection.begin() + static_cast<ptrdiff_t>(end));
      RunOpsVectorized(ops, slice, env);
    }
  };
  if (T > 1) {
    pool_->ParallelFor(T, run_morsels);
  } else {
    run_morsels(0);
  }
}

Status TickExecutor::RunTick() {
  SGL_CHECK(initialized_ && "call Init() first");
  const AllocCounts alloc_before = AllocCountersNow();
  Stopwatch total;
  Telemetry* const tel = options_.telemetry;
  SGL_TRACE_SPAN(tel, kSpanTickTotal, tick_, 0, 0);
  last_.Reset(tick_);
  const int num_classes = world_->catalog().num_classes();
  const int shards = options_.num_threads > 1 ? options_.num_threads : 1;
  const int64_t index_micros_before = indexes_.build_micros();
  const int64_t simd_lanes_before = SimdLanesNow();

  // --- Setup -----------------------------------------------------------
  world_->ResetEffects();
  if (!options_.interpreted) stats_mgr_.MaybeRefresh(*world_, tick_);
  recorder_sink_ = options_.recorder != nullptr
                       ? options_.recorder->capture_sink()
                       : nullptr;
  for (EffectTracer* t : {trace_, recorder_sink_}) {
    if (t != nullptr) t->ReserveLanes(shards);  // one lane per worker slot
  }
  txn_.set_fault_tick(tick_);
  txn_.set_prov_sink(recorder_sink_);
  txn_.BeginTick(shards);
  EnsureWorkers(shards);
  if (shards > 1) {
    for (auto& per_class : shard_effects_) {
      for (ClassId c = 0; c < num_classes; ++c) {
        per_class[static_cast<size_t>(c)]->Reset(world_->table(c).size());
      }
    }
  }
  if (feedback_shards_.size() != static_cast<size_t>(shards)) {
    feedback_shards_.resize(static_cast<size_t>(shards));
  }
  for (auto& shard : feedback_shards_) {
    shard.assign(static_cast<size_t>(program_->num_sites), SiteFeedback());
  }

  // --- 1. Query + effect phase ------------------------------------------
  Stopwatch query_timer;
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    EntityTable& table = world_->table(script.cls);
    if (table.empty()) continue;
    LocalColumns& locals = script_locals_[si];
    AllocateLocalColumns(script.local_types, table.size(), &locals);

    // Phase dispatch on the PC column (§3.2).
    auto& selections = script_selections_[si];
    if (selections.size() != static_cast<size_t>(script.num_phases())) {
      selections.resize(static_cast<size_t>(script.num_phases()));
    }
    {
      SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_, 0,
                     static_cast<uint16_t>(si));
      if (script.num_phases() == 1) {
        // The whole-extent selection is a pure function of the table size
        // (iota); rebuild it only when spawns/despawns resized the class.
        auto& all = selections[0];
        if (all.size() != table.size()) {
          all.resize(table.size());
          for (size_t i = 0; i < table.size(); ++i) {
            all[i] = static_cast<RowIdx>(i);
          }
        }
      } else {
        for (auto& sel : selections) sel.clear();
        ConstNumberColumn pc = table.Num(script.pc_state);
        for (size_t i = 0; i < table.size(); ++i) {
          int phase = static_cast<int>(pc[i]);
          if (phase < 0 || phase >= script.num_phases()) phase = 0;
          selections[static_cast<size_t>(phase)].push_back(
              static_cast<RowIdx>(i));
        }
      }
    }
    for (int k = 0; k < script.num_phases(); ++k) {
      const auto& selection = selections[static_cast<size_t>(k)];
      if (selection.empty()) continue;
      {
        SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0,
                       static_cast<uint16_t>(si));
        PrepareSites(script.phases[static_cast<size_t>(k)], selection.size());
      }
      SGL_TRACE_SPAN(tel, kSpanTickQuery, tick_, 0,
                     static_cast<uint16_t>(si));
      RunUnit(script.phases[static_cast<size_t>(k)], script.cls, selection,
              &locals);
    }
  }

  // Reactive handlers (§3.2): conditions over current state, set-at-a-time.
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    EntityTable& table = world_->table(handler.cls);
    if (table.empty()) continue;
    if (handler_all_.size() != table.size()) {  // iota; see script selections
      handler_all_.resize(table.size());
      for (size_t i = 0; i < table.size(); ++i) {
        handler_all_[i] = static_cast<RowIdx>(i);
      }
    }
    LocalColumns& locals = handler_locals_[hi];
    AllocateLocalColumns(handler.local_types, table.size(), &locals);
    handler_selection_.clear();
    {
      SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_, 0,
                     static_cast<uint16_t>(hi));
      if (options_.interpreted) {
        ScalarContext ctx;
        ctx.world = world_;
        ctx.outer_cls = handler.cls;
        ctx.locals = &locals;
        for (RowIdx row : handler_all_) {
          ctx.outer_row = row;
          if (EvalScalarBool(*handler.cond, ctx)) {
            handler_selection_.push_back(row);
          }
        }
      } else {
        VecContext ctx;
        ctx.world = world_;
        ctx.outer = &table;
        ctx.outer_rows = &handler_all_;
        ctx.locals = &locals;
        ctx.scratch = &workers_[0]->scratch;
        const VmProgram* cond_vm =
            vm_cache_ != nullptr ? vm_cache_->Value(handler.cond.get())
                                 : nullptr;
        if (cond_vm != nullptr) {
          VmEvalBool(*cond_vm, ctx, &workers_[0]->scratch.vm, nullptr, 0,
                     &handler_keep_);
        } else {
          EvalBool(*handler.cond, ctx, &handler_keep_);
        }
        for (size_t i = 0; i < handler_all_.size(); ++i) {
          if (handler_keep_[i]) handler_selection_.push_back(handler_all_[i]);
        }
      }
    }
    if (handler_selection_.empty()) continue;
    {
      SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0,
                     static_cast<uint16_t>(hi));
      PrepareSites(handler.ops, handler_selection_.size());
    }
    SGL_TRACE_SPAN(tel, kSpanTickQuery, tick_, 0, static_cast<uint16_t>(hi));
    RunUnit(handler.ops, handler.cls, handler_selection_, &locals);
  }
  last_.query_effect_micros = query_timer.ElapsedMicros();
  if (options_.fault != nullptr) {
    // Crash between query and merge: issued effects/intents die with the
    // process, state columns are still pre-tick. Recovery restores the
    // last checkpoint and replays.
    SGL_RETURN_IF_ERROR(
        options_.fault->MaybeCrash(kFaultExecCrashPostQuery, tick_));
  }

  // --- 2. Merge ---------------------------------------------------------
  Stopwatch merge_timer;
  {
    SGL_TRACE_SPAN(tel, kSpanTickMerge, tick_, 0, 0);
    if (shards > 1) {
      for (int s = 0; s < shards; ++s) {
        for (ClassId c = 0; c < num_classes; ++c) {
          world_->effects(c).MergeFrom(
              *shard_effects_[static_cast<size_t>(s)][static_cast<size_t>(c)]);
        }
      }
    }
    // Canonicalize set-effect logs (sort + dedup + pooled materialization)
    // now that the last shard has merged; update-phase reads require it.
    {
      SGL_TRACE_SPAN(tel, kSpanTickFinalize, tick_, 0, 0);
      for (ClassId c = 0; c < num_classes; ++c) {
        world_->effects(c).FinalizeSets();
      }
    }
    // Aggregate per-site feedback across shards and inform the controller.
    last_.sites.assign(static_cast<size_t>(program_->num_sites),
                       SiteFeedback());
    for (const auto& shard : feedback_shards_) {
      for (size_t i = 0; i < shard.size(); ++i) {
        if (shard[i].site < 0) continue;
        SiteFeedback& agg = last_.sites[i];
        agg.site = shard[i].site;
        agg.strategy = shard[i].strategy;
        agg.outer_rows += shard[i].outer_rows;
        agg.candidates += shard[i].candidates;
        agg.matches += shard[i].matches;
        agg.micros += shard[i].micros;
        agg.probe_micros += shard[i].probe_micros;
        agg.effects += shard[i].effects;
        last_.probe_micros += shard[i].probe_micros;
      }
    }
    for (const SiteFeedback& fb : last_.sites) {
      if (fb.site >= 0) controller_.Feedback(fb);
    }
  }
  last_.merge_micros = merge_timer.ElapsedMicros();

  // --- 3. Update phase ----------------------------------------------------
  Stopwatch update_timer;
  // Out-of-band completions ride the barrier: results whose declared
  // latency elapses this tick install now, in deterministic order, so the
  // components below read them no matter which tick a worker finished on.
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
    // Crash after the update phase but before the tick commits (counter
    // bump): the classic torn-tick window a checkpoint must mend.
    SGL_RETURN_IF_ERROR(
        options_.fault->MaybeCrash(kFaultExecCrashPostUpdate, tick_));
  }

  // --- 4. Bookkeeping ----------------------------------------------------
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
  // --- 5. Recorder capture ----------------------------------------------
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
    Telemetry::TickSample s;
    s.total_us = last_.total_micros;
    s.query_us = last_.query_effect_micros;
    s.merge_us = last_.merge_micros;
    s.update_us = last_.update_micros;
    s.probe_us = last_.probe_micros;
    s.job_wait_us = jobs_ != nullptr ? last_.job_wait_micros : -1;
    s.barrier_stall_us = -1;  // no shard barrier in the unsharded pipeline
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
