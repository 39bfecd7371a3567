// E10 — debugging overhead (§3.3).
//
// Series: ms/tick for the 4k-unit RTS battle with each debug facility
// enabled — none / effect tracer (one watched NPC) / per-tick checksum
// replay log / per-tick full checkpoint. Expected shape: tracer ≈ baseline
// (pay-as-you-go pointer check), checksum a small linear add-on, full
// checkpointing the most expensive (state-size-proportional copy) — which
// is why the replay log only snapshots periodically. The telemetry (PR 9)
// and flight-recorder (PR 10) series extend the ladder: disarmed attached
// sinks must sit within noise of detached, armed shows the full capture
// cost. Armed phases Reset() the metrics registry at the warmup boundary
// so reported percentiles cover the measured window only.

#include "bench/bench_util.h"
#include "src/debug/checkpoint.h"
#include "src/debug/tracer.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace {

constexpr int kUnits = 4096;

void BM_DebugOff(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kStaticRangeTree);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_TracerOneEntity(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kStaticRangeTree);
  sgl::EffectTracer tracer;
  tracer.Watch(engine->world().table(0).id_at(0));
  engine->SetTracer(&tracer);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["records"] = static_cast<double>(tracer.size());
}

void BM_ReplayChecksum(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kStaticRangeTree);
  sgl::ReplayLog log;
  sgl_bench::Warmup(engine.get());
  sgl::Tick t = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    log.Record(engine->world(), t++);
  }
}

void BM_CheckpointEveryTick(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kStaticRangeTree);
  sgl_bench::Warmup(engine.get());
  size_t bytes = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    sgl::Checkpoint cp = engine->TakeCheckpoint();
    bytes = cp.state.size();
    benchmark::DoNotOptimize(cp);
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}

void BM_CheckpointRestoreRoundTrip(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kStaticRangeTree);
  sgl_bench::Warmup(engine.get());
  sgl::Checkpoint cp = engine->TakeCheckpoint();
  for (auto _ : state) {
    if (!engine->Restore(cp).ok()) state.SkipWithError("restore failed");
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

// --- Telemetry overhead (PR 9) -------------------------------------------
// Armed-vs-disarmed series at 16k units: a disarmed attached Telemetry must
// sit within noise of no telemetry at all (one branch per span site), and
// the armed delta is the full span+histogram record path. Counters report
// spans/tick and the tick-time percentiles the armed registry accumulated.

constexpr int kTelemetryUnits = 16384;
// Ticks per repetition of every 16k-unit series. At 40-55 ms/tick a time
// budget would settle for 3-4 ticks, too few to judge a 10% armed/disarmed
// gap; a fixed count times the same window in every series.
constexpr int kTelemetryTicks = 24;

std::unique_ptr<sgl::Engine> BuildTelemetryRts(int units,
                                               sgl::Telemetry* tel) {
  sgl::RtsConfig config;
  config.num_units = units;
  sgl::EngineOptions options;
  options.exec.planner.mode = sgl::PlanMode::kStaticRangeTree;
  options.exec.telemetry = tel;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

void BM_TelemetryDetached(benchmark::State& state) {
  auto engine = BuildTelemetryRts(kTelemetryUnits, nullptr);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_TelemetryDisarmed(benchmark::State& state) {
  sgl::Telemetry tel;
  auto engine = BuildTelemetryRts(kTelemetryUnits, &tel);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["spans_per_tick"] = 0;  // disarmed records nothing
}

void BM_TelemetryArmed(benchmark::State& state) {
  sgl::Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildTelemetryRts(kTelemetryUnits, &tel);
  sgl_bench::Warmup(engine.get());
  // Phase boundary: drop the warmup's samples so the reported percentiles
  // describe the measured window only.
  tel.metrics().Reset();
  const int64_t spans_before = tel.total_spans();
  int64_t ticks = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    ++ticks;
  }
  state.counters["spans_per_tick"] =
      ticks > 0 ? static_cast<double>(tel.total_spans() - spans_before) /
                      static_cast<double>(ticks)
                : 0;
  const sgl::MetricsSnapshot snap = tel.metrics().Snapshot();
  if (const sgl::HistogramSnapshot* h = snap.Find("tick.total_us")) {
    state.counters["tick_p50_us"] = h->Percentile(50);
    state.counters["tick_p95_us"] = h->Percentile(95);
    state.counters["tick_p99_us"] = h->Percentile(99);
  }
}

// Flight-recorder overhead (PR 10): the armed capture path — watch-all
// effect fan-out, per-tick pooled drain + canonical sort + after-value
// resolution — against the same workload with the recorder disarmed.
// Counters report the per-frame record volume the armed ring sustained.
void BM_FlightRecorderDisarmed(benchmark::State& state) {
  sgl::FlightRecorder rec;  // attached, never armed: one branch per tick
  sgl::RtsConfig config;
  config.num_units = kTelemetryUnits;
  sgl::EngineOptions options;
  options.exec.planner.mode = sgl::PlanMode::kStaticRangeTree;
  options.exec.recorder = &rec;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::Warmup(engine->get());
  for (auto _ : state) {
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_FlightRecorderArmed(benchmark::State& state) {
  sgl::Telemetry tel;
  tel.set_armed(true);
  sgl::FlightRecorder rec;
  rec.set_armed(true);
  rec.set_telemetry(&tel);
  sgl::RtsConfig config;
  config.num_units = kTelemetryUnits;
  sgl::EngineOptions options;
  options.exec.planner.mode = sgl::PlanMode::kStaticRangeTree;
  options.exec.telemetry = &tel;
  options.exec.recorder = &rec;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::Warmup(engine->get());
  tel.metrics().Reset();  // phase boundary: measured window only
  for (auto _ : state) {
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
  }
  const sgl::TickFrame* newest = rec.frame(rec.newest_tick());
  state.counters["records_per_frame"] =
      newest != nullptr ? static_cast<double>(newest->num_records) : 0;
  state.counters["frames_captured"] =
      static_cast<double>(rec.frames_captured());
  const sgl::MetricsSnapshot snap = tel.metrics().Snapshot();
  if (const sgl::HistogramSnapshot* h = snap.Find("tick.total_us")) {
    state.counters["tick_p50_us"] = h->Percentile(50);
  }
}

// Isolated span-record cost: an armed ScopedSpan begin/end pair with
// nothing else on the loop body. real_time/iteration is ns per span.
void BM_SpanRecordArmed(benchmark::State& state) {
  sgl::Telemetry tel;
  tel.set_armed(true);
  uint16_t arg = 0;
  for (auto _ : state) {
    SGL_TRACE_SPAN(&tel, sgl::kSpanTickQuery, 1, 0, arg++);
  }
  // kIsRate divides by elapsed seconds, kInvert flips to seconds per
  // iteration; pre-dividing by 1e9 makes the reported value nanoseconds.
  state.counters["ns_per_span"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_DebugOff)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_TracerOneEntity)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_ReplayChecksum)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_CheckpointEveryTick)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK(BM_CheckpointRestoreRoundTrip)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK(BM_TelemetryDetached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kTelemetryTicks);
BENCHMARK(BM_TelemetryDisarmed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kTelemetryTicks);
BENCHMARK(BM_TelemetryArmed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kTelemetryTicks);
BENCHMARK(BM_FlightRecorderDisarmed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kTelemetryTicks);
BENCHMARK(BM_FlightRecorderArmed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kTelemetryTicks);
BENCHMARK(BM_SpanRecordArmed)->MinTime(0.1);

}  // namespace

BENCHMARK_MAIN();
