// End-to-end tick benchmark: runs one game workload the way a game server
// does — a closed loop in which the next Engine::Tick() starts only after
// the previous one returned — and measures it from outside the engine.
//
// A run is a sequence of *episodes*. Each episode builds a fresh world from
// the seed (timed: the setup sample), runs warm-up ticks, then a fixed
// number of timed ticks, then the correctness gate and the final
// CanonicalWorldChecksum. Episodes repeat until --seconds of wall time have
// passed (at least kMinEpisodes, and at least kMinTimedTicks pooled ticks),
// so every episode covers the same tick trajectory and a faster engine runs
// more episodes rather than a different mix of ticks. Episodes of one run
// share the seed, so their checksums must agree.
//
// With --trace 1, untraced and traced episodes alternate. Traced episodes
// arm a Telemetry (ExecOptions::telemetry) for their timed window only and
// attribute span self time per span site; untraced ones supply the
// TickStats-based layer metrics and the baseline for the tracing overhead.
//
// Output: one JSON object on the last line of stdout (perfbench/run.py
// formats it). See perfbench/README.md for the metric definitions.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/common/cpu_features.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"
#include "src/lang/compiler.h"
#include "src/lang/parser.h"
#include "src/sim/armies.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

#ifndef SGL_BENCH_BUILD_TYPE
#define SGL_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Returns the heap a destroyed world freed to the OS, so every episode and
// set-up build starts from the same heap state and the process stays near
// one world's footprint. (MarketWorkload pre-sizes every trader's inventory
// to num_items slots: ~4 GB of address space, of which each episode touches
// different pages; without the trim RSS grows by ~70 MB per episode.)
void ReleaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A run needs >= 200 timed ticks so that p95 has >= 10 samples beyond it.
constexpr int kMinTimedTicks = 200;
// Same-seed episodes per run, whose final checksums must agree.
constexpr int kMinEpisodes = 2;
// Build() timings per run; setup_s is their median.
constexpr size_t kSetupSamples = 15;

// The span sites whose self time the traced run reports (all spans the
// engine records except tick.total, whose self time is folded into
// trace.unattributed_ms, and vm.compile, which is one-time).
const char* const kTraceSites[] = {
    "tick.select",        "tick.siteprep",        "tick.query",
    "tick.merge",         "tick.finalize_sets",   "tick.install",
    "tick.update",        "tick.migrate",         "tick.barrier",
    "shard.run",          "shard.mailbox.flip",   "shard.mailbox.replay",
    "exec.site.query",    "exec.site.probe",      "async.worker.run",
};

// ---------------------------------------------------------------------------
// Workloads

struct Shape {
  int threads = 1;
  int shards = 1;
  int job_workers = 0;
};

/// One workload: how to build it, what the host feeds it between ticks,
/// and what must hold after every tick.
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual const char* name() const = 0;
  virtual Shape shape() const = 0;
  virtual int64_t entities() const = 0;
  virtual int warmup_ticks() const = 0;
  virtual int timed_ticks() const = 0;
  /// Whether episodes run with an armed FlightRecorder.
  virtual bool arms_recorder() const { return false; }
  virtual std::string Source() const = 0;
  /// Builds the world; `options` carries the thread/shard/worker counts and
  /// the optional telemetry/recorder attachments.
  virtual sgl::StatusOr<std::unique_ptr<sgl::Engine>> Build(
      const sgl::EngineOptions& options) = 0;
  /// Host-side input before tick `t` of the episode (0-based, warm-up
  /// included).
  virtual void Input(sgl::Engine* engine, int t) = 0;
  /// Correctness gate after a tick; false on violation (`why` says what).
  /// `full` marks the episode's last tick (and the gate self-test), where
  /// checks too costly for every tick run as well.
  virtual bool Check(sgl::Engine* engine, bool full, std::string* why) = 0;
  /// Corrupts the world so that Check() must fail (gate self-test).
  virtual void Corrupt(sgl::Engine* engine) = 0;
  /// Called before each Build(): resets the config and the host-side input
  /// stream to the run's seed.
  virtual void Reset(uint64_t seed) = 0;
};

sgl::EntityId FirstEntity(sgl::Engine* engine, const char* cls) {
  const sgl::ClassId c = engine->catalog().Find(cls);
  return engine->world().table(c).id_at(0);
}

// rts_battle: read-heavy 2-D range self-joins. Every kPeriod ticks all units
// are repositioned (battle, battle, exploration, repeating; positions from
// the seed). Without the repositioning, units drift to the arena centre and
// tick time climbs without settling; a battle-heavy cycle keeps the median
// tick inside the battle population instead of between the two modes.
class RtsScenario : public Scenario {
 public:
  static constexpr int kPeriod = 20;

  const char* name() const override { return "rts_battle"; }
  Shape shape() const override { return {4, 1, 0}; }
  int64_t entities() const override { return config_.num_units; }
  int warmup_ticks() const override { return 3 * kPeriod; }
  int timed_ticks() const override { return 6 * kPeriod; }
  std::string Source() const override { return sgl::RtsWorkload::Source(); }

  void Reset(uint64_t seed) override {
    config_ = sgl::RtsConfig();
    config_.num_units = 16384;
    config_.num_clusters = 4;
    config_.cluster_radius = 150.0;
    config_.seed = seed;
    rng_.Seed(seed ^ 0x7274735f6d6f6465ULL);
    last_health_ = -1.0;
  }
  sgl::StatusOr<std::unique_ptr<sgl::Engine>> Build(
      const sgl::EngineOptions& options) override {
    return sgl::RtsWorkload::Build(config_, options);
  }
  void Input(sgl::Engine* engine, int t) override {
    if (t == 0 || t % kPeriod != 0) return;
    const bool battle = (t / kPeriod) % 3 != 2;
    sgl::RtsWorkload::RepositionMode(engine, config_, battle, rng_.Next());
  }
  bool Check(sgl::Engine* engine, bool, std::string* why) override {
    sgl::World& world = engine->world();
    const sgl::ClassId cls = engine->catalog().Find("Unit");
    const sgl::EntityTable& table = world.table(cls);
    sgl::ConstNumberColumn health =
        table.Num(engine->catalog().Get(cls).FindState("health"));
    double total = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      if (!(health[i] >= 0.0 && health[i] <= 100.0)) {
        *why = "unit health outside [0, 100]";
        return false;
      }
      total += health[i];
    }
    if (last_health_ >= 0.0 && total > last_health_) {
      *why = "total health increased";
      return false;
    }
    last_health_ = total;
    return true;
  }
  void Corrupt(sgl::Engine* engine) override {
    (void)engine->Set(FirstEntity(engine, "Unit"), "health",
                      sgl::Value::Number(150.0));
  }

 private:
  sgl::RtsConfig config_;
  sgl::Rng rng_;
  double last_health_ = -1.0;
};

// traffic_sharded: the only workload on ShardExecutor (router, mailboxes,
// barrier) with a 1-D lane-keyed range/hash join over a working set larger
// than the caches. No host input: the ring road circulates forever.
class TrafficScenario : public Scenario {
 public:
  const char* name() const override { return "traffic_sharded"; }
  Shape shape() const override { return {4, 4, 0}; }
  int64_t entities() const override { return config_.num_vehicles; }
  int warmup_ticks() const override { return 10; }
  int timed_ticks() const override { return 40; }
  std::string Source() const override {
    return sgl::TrafficWorkload::Source();
  }

  void Reset(uint64_t seed) override {
    config_ = sgl::TrafficConfig();
    config_.num_vehicles = 100000;
    config_.seed = seed;
  }
  sgl::StatusOr<std::unique_ptr<sgl::Engine>> Build(
      const sgl::EngineOptions& options) override {
    return sgl::TrafficWorkload::Build(config_, options);
  }
  void Input(sgl::Engine*, int) override {}
  bool Check(sgl::Engine* engine, bool, std::string* why) override {
    if (!sgl::TrafficWorkload::PositionsInBounds(engine,
                                                 config_.road_length)) {
      *why = "vehicle position outside the road";
      return false;
    }
    return true;
  }
  void Corrupt(sgl::Engine* engine) override {
    (void)engine->Set(FirstEntity(engine, "Vehicle"), "x",
                      sgl::Value::Number(-1.0));
  }

 private:
  sgl::TrafficConfig config_;
};

// market_txn: write-heavy. Contended purchases go through transaction
// admission and set-effect write-back, with the flight recorder armed (a
// trading server keeps its black box on for disputed trades).
class MarketScenario : public Scenario {
 public:
  const char* name() const override { return "market_txn"; }
  Shape shape() const override { return {4, 1, 0}; }
  int64_t entities() const override {
    return config_.num_traders + config_.num_items;
  }
  int warmup_ticks() const override { return 20; }
  int timed_ticks() const override { return 100; }
  bool arms_recorder() const override { return true; }
  std::string Source() const override {
    return sgl::MarketWorkload::Source();
  }

  void Reset(uint64_t seed) override {
    config_ = sgl::MarketConfig();
    config_.num_traders = 16384;
    config_.num_items = 32768;
    config_.contention = 4;
    config_.seed = seed;
    rng_.Seed(seed ^ 0x6d61726b65745f77ULL);
    initial_gold_ = -1.0;
    checks_ = 0;
  }
  sgl::StatusOr<std::unique_ptr<sgl::Engine>> Build(
      const sgl::EngineOptions& options) override {
    auto engine = sgl::MarketWorkload::Build(config_, options);
    if (engine.ok()) {
      initial_gold_ = sgl::MarketWorkload::TotalGold(engine.value().get());
    }
    return engine;
  }
  void Input(sgl::Engine* engine, int) override {
    sgl::MarketWorkload::AssignWants(engine, config_, &rng_);
  }
  bool Check(sgl::Engine* engine, bool full, std::string* why) override {
    // Gold and prices are whole numbers, so conservation is exact.
    if (sgl::MarketWorkload::TotalGold(engine) != initial_gold_) {
      *why = "total gold not conserved";
      return false;
    }
    if (!sgl::MarketWorkload::NoNegativeGold(engine)) {
      *why = "a trader has negative gold";
      return false;
    }
    // The ownership scan costs about as much as a tick: every
    // kOwnershipEvery ticks and at the end of the episode.
    if ((full || ++checks_ % kOwnershipEvery == 0) &&
        !sgl::MarketWorkload::OwnershipConsistent(engine)) {
      *why = "item ownership inconsistent";
      return false;
    }
    return true;
  }
  void Corrupt(sgl::Engine* engine) override {
    const sgl::EntityId id = FirstEntity(engine, "Trader");
    const double gold = engine->Get(id, "gold").value().AsNumber();
    (void)engine->Set(id, "gold", sgl::Value::Number(gold + 1.0));
  }

 private:
  static constexpr int kOwnershipEvery = 10;

  sgl::MarketConfig config_;
  sgl::Rng rng_;
  double initial_gold_ = -1.0;
  int checks_ = 0;
};

// armies_async: update components and async pathfinding dominate; the
// query phase is near zero. Retarget on a fixed period forces repathing.
class ArmiesScenario : public Scenario {
 public:
  static constexpr int kPeriod = 50;

  const char* name() const override { return "armies_async"; }
  Shape shape() const override { return {1, 1, 3}; }
  int64_t entities() const override { return config_.num_units; }
  int warmup_ticks() const override { return 8 * kPeriod; }
  int timed_ticks() const override { return 4 * kPeriod; }
  std::string Source() const override {
    return sgl::ArmiesWorkload::Source();
  }

  void Reset(uint64_t seed) override {
    config_ = sgl::ArmiesConfig();
    config_.num_units = 16384;
    config_.map_w = 128;
    config_.map_h = 128;
    config_.num_armies = 32;
    config_.num_rally = 32;
    config_.seed = seed;
  }
  sgl::StatusOr<std::unique_ptr<sgl::Engine>> Build(
      const sgl::EngineOptions& options) override {
    return sgl::ArmiesWorkload::Build(config_, options);
  }
  void Input(sgl::Engine* engine, int t) override {
    if (t == 0 || t % kPeriod != 0) return;
    sgl::ArmiesWorkload::Retarget(engine, config_, t / kPeriod);
  }
  bool Check(sgl::Engine* engine, bool, std::string* why) override {
    if (!std::isfinite(sgl::ArmiesWorkload::MeanGoalDistance(engine))) {
      *why = "mean goal distance is not finite";
      return false;
    }
    return true;
  }
  void Corrupt(sgl::Engine* engine) override {
    (void)engine->Set(FirstEntity(engine, "Soldier"), "x",
                      sgl::Value::Number(std::nan("")));
  }

 private:
  sgl::ArmiesConfig config_;
};

std::unique_ptr<Scenario> MakeScenario(const std::string& name) {
  if (name == "rts_battle") return std::make_unique<RtsScenario>();
  if (name == "traffic_sharded") return std::make_unique<TrafficScenario>();
  if (name == "market_txn") return std::make_unique<MarketScenario>();
  if (name == "armies_async") return std::make_unique<ArmiesScenario>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Measurement

/// What one timed tick reported (untraced episodes).
struct TickSample {
  double wall_us = 0;
  double input_us = 0;
  sgl::TickStats stats;  // `sites` is cleared; scalar fields only
  int64_t cross_records = 0;
  int64_t recorder_records = 0;
};

struct Episode {
  bool traced = false;
  double setup_s = 0;
  double lang_compile_ms = 0;
  int64_t plan_switches = 0;
  int64_t drift_resets = 0;
  int64_t recorder_dropped = 0;
  uint64_t checksum = 0;
  std::vector<double> walls_us;  // timed ticks
  // Traced episodes: per-site self time (µs, summed over the timed window)
  // and the tick-thread time no phase span covers.
  std::map<std::string, double> self_us;
  double unattributed_us = 0;
  int64_t dropped_spans = 0;
};

struct Run {
  std::vector<Episode> episodes;
  std::vector<TickSample> samples;  // untraced timed ticks, pooled
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t gate_checks = 0;
  std::vector<double> setups;  // Build() wall times, seconds
  // Process peak RSS when the first untraced episode ends, so it does not
  // depend on how many episodes the run fits.
  double peak_rss_mb = 0;
  bool correct = true;
  std::string failure;
};

/// Per-site span self time: a span's duration minus the part covered by
/// spans nested inside it on the same thread. Spans on other threads are
/// attributed to their own sites (busy time, summed over threads).
void SelfTimes(const std::vector<sgl::SpanView>& spans,
               std::map<std::string, double>* self_us,
               double* tick_total_covered_us) {
  std::map<int, std::vector<const sgl::SpanView*>> by_lane;
  for (const auto& s : spans) by_lane[s.lane].push_back(&s);
  for (auto& [lane, list] : by_lane) {
    std::sort(list.begin(), list.end(),
              [](const sgl::SpanView* a, const sgl::SpanView* b) {
                if (a->begin_ns != b->begin_ns) return a->begin_ns < b->begin_ns;
                return a->end_ns > b->end_ns;
              });
    std::vector<const sgl::SpanView*> stack;
    for (const sgl::SpanView* s : list) {
      while (!stack.empty() && stack.back()->end_ns <= s->begin_ns) {
        stack.pop_back();
      }
      const double dur = static_cast<double>(s->end_ns - s->begin_ns) / 1e3;
      (*self_us)[s->name] += dur;
      if (!stack.empty() && stack.back()->end_ns >= s->end_ns) {
        (*self_us)[stack.back()->name] -= dur;
        if (std::strcmp(stack.back()->name, "tick.total") == 0) {
          *tick_total_covered_us += dur;
        }
      }
      stack.push_back(s);
    }
  }
}

sgl::EngineOptions MakeOptions(const Shape& shape) {
  sgl::EngineOptions options;
  options.exec.num_threads = shape.threads;
  options.exec.num_shards = shape.shards;
  options.exec.jobs.num_workers = shape.job_workers;
  return options;
}

sgl::AdaptiveController& Controller(sgl::Engine* engine) {
  return engine->sharded() ? engine->shard_executor().controller()
                           : engine->executor().controller();
}

/// Builds the scenario's world with its thread/shard/worker counts, the
/// optional telemetry, and (when the scenario arms one) a fresh flight
/// recorder; `setup_s` receives the wall time of the Build() call.
sgl::StatusOr<std::unique_ptr<sgl::Engine>> BuildTimed(
    Scenario* sc, sgl::Telemetry* tel,
    std::unique_ptr<sgl::FlightRecorder>* recorder, double* setup_s) {
  if (sc->arms_recorder()) {
    *recorder = std::make_unique<sgl::FlightRecorder>();
    (*recorder)->set_armed(true);
  }
  sgl::EngineOptions options = MakeOptions(sc->shape());
  options.exec.telemetry = tel;
  options.exec.recorder = recorder->get();
  const auto t0 = Clock::now();
  auto built = sc->Build(options);
  *setup_s = SecondsSince(t0);
  return built;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string artifacts;  // directory for the Chrome trace / sites JSON
};

/// Runs one episode; appends untraced tick samples to `run`. `episode_no`
/// counts the run's earlier episodes of the same kind (traced or not).
/// Returns false when the episode failed (tick error or correctness
/// violation).
bool RunEpisode(Scenario* sc, const Args& args, bool traced, int episode_no,
                Run* run) {
  Episode ep;
  ep.traced = traced;
  sc->Reset(args.seed);
  const int warmup = args.smoke ? 3 : sc->warmup_ticks();
  const int timed = args.smoke ? 6 : sc->timed_ticks();

  {
    const auto t0 = Clock::now();
    auto ast = sgl::ParseProgram(sc->Source());
    if (!ast.ok() || !sgl::Compile(ast.value()).ok()) {
      run->correct = false;
      run->failure = "workload source failed to compile";
      return false;
    }
    ep.lang_compile_ms = SecondsSince(t0) * 1e3;
  }

  std::unique_ptr<sgl::Telemetry> tel;
  if (traced) {
    sgl::TelemetryOptions to;
    to.max_lanes = 16;
    to.ring_spans = size_t{1} << 17;
    tel = std::make_unique<sgl::Telemetry>(to);
  }
  std::unique_ptr<sgl::FlightRecorder> recorder;
  auto built = BuildTimed(sc, tel.get(), &recorder, &ep.setup_s);
  if (!built.ok()) {
    run->correct = false;
    run->failure = "build failed: " + built.status().ToString();
    return false;
  }
  std::unique_ptr<sgl::Engine> engine = std::move(built).value();

  auto fail = [&](const std::string& why, int64_t failed_ticks) {
    run->attempted += failed_ticks;
    run->failed += failed_ticks;
    run->correct = false;
    if (run->failure.empty()) run->failure = why;
    return false;
  };

  int64_t switches0 = 0, drift0 = 0, dropped0 = 0;
  std::vector<TickSample> samples;
  samples.reserve(static_cast<size_t>(timed));
  std::string why;
  for (int t = 0; t < warmup + timed; ++t) {
    const bool timing = t >= warmup;
    if (t == warmup) {
      switches0 = Controller(engine.get()).switches();
      drift0 = Controller(engine.get()).drift_resets();
      if (recorder) dropped0 = recorder->dropped_records();
      if (tel) tel->set_armed(true);
    }
    const auto in0 = Clock::now();
    sc->Input(engine.get(), t);
    const double input_us = SecondsSince(in0) * 1e6;

    const auto t0 = Clock::now();
    const sgl::Status st = engine->Tick();
    const double wall_us = SecondsSince(t0) * 1e6;
    if (!st.ok()) return fail("tick failed: " + st.ToString(), timed);

    // Outside the timed window: copy the counters, then the gate.
    if (timing) {
      TickSample s;
      s.wall_us = wall_us;
      s.input_us = input_us;
      s.stats = engine->last_stats();
      s.stats.sites.clear();
      if (engine->sharded()) {
        s.cross_records = static_cast<int64_t>(
            engine->shard_executor().last_cross_shard_records());
      }
      if (recorder) {
        const sgl::TickFrame* f = recorder->frame(engine->tick() - 1);
        if (f != nullptr) {
          s.recorder_records = static_cast<int64_t>(f->num_records);
        }
      }
      samples.push_back(std::move(s));
      ep.walls_us.push_back(wall_us);
    }
    ++run->gate_checks;
    if (!sc->Check(engine.get(), t + 1 == warmup + timed, &why)) {
      return fail("correctness gate: " + why + " at tick " + std::to_string(t),
                  timed);
    }
  }
  if (tel) tel->set_armed(false);
  if (!traced && run->peak_rss_mb == 0) run->peak_rss_mb = PeakRssMb();
  ep.plan_switches = Controller(engine.get()).switches() - switches0;
  ep.drift_resets = Controller(engine.get()).drift_resets() - drift0;
  if (recorder) ep.recorder_dropped = recorder->dropped_records() - dropped0;
  ep.checksum = sgl::CanonicalWorldChecksum(engine->world());

  if (tel) {
    double covered = 0;
    SelfTimes(tel->CollectSpans(), &ep.self_us, &covered);
    double walls = 0;
    for (double w : ep.walls_us) walls += w;
    // Tick-thread time outside every phase span: the wall time around
    // tick.total plus tick.total's own self time.
    ep.unattributed_us = walls - covered;
    ep.dropped_spans = tel->dropped_spans() + tel->dropped_threads();
    if (!args.artifacts.empty() && episode_no == 0) {
      (void)tel->WriteChromeTrace(args.artifacts + "/trace.json");
      std::ofstream(args.artifacts + "/sites.json") << tel->DescribeSitesJson();
    }
  }

  if (args.smoke) {
    // Gate self-test: a deliberately corrupted world must be refused.
    std::string ignored;
    sc->Corrupt(engine.get());
    if (sc->Check(engine.get(), true, &ignored)) {
      return fail("correctness gate accepted a corrupted world", 0);
    }
  }

  run->attempted += timed;
  run->setups.push_back(ep.setup_s);
  if (!traced) {
    run->samples.insert(run->samples.end(),
                        std::make_move_iterator(samples.begin()),
                        std::make_move_iterator(samples.end()));
  }
  run->episodes.push_back(std::move(ep));
  return true;
}

// ---------------------------------------------------------------------------
// Reporting

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

class Json {
 public:
  void Num(const std::string& key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void Int(const std::string& key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
  }
  void Bool(const std::string& key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Open(const std::string& key) {
    Key(key);
    out_ += '{';
    first_ = true;
  }
  void Close() {
    out_ += '}';
    first_ = false;
  }
  std::string Finish() { return "{" + out_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"' + key + "\":";
  }
  std::string out_;
  bool first_ = true;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Report(Scenario* sc, const Args& args, const Run& run) {
  const Shape shape = sc->shape();
  const sgl::EngineOptions defaults = MakeOptions(shape);
  Json j;
  j.Str("workload", sc->name());
  j.Bool("correct", run.correct);
  j.Str("failure", run.failure);
  j.Int("attempted", run.attempted);
  j.Int("failed", run.failed);
  j.Int("gate_checks", run.gate_checks);

  std::vector<double> walls, compiles;
  std::vector<double> traced_walls;
  int untraced_eps = 0, traced_eps = 0;
  double switches = 0, drifts = 0, rec_dropped = 0;
  double unattributed_us = 0;
  int64_t dropped_spans = 0;
  std::map<std::string, double> self_us;
  j.Open("checksums");
  for (size_t i = 0; i < run.episodes.size(); ++i) {
    const Episode& ep = run.episodes[i];
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(ep.checksum));
    j.Str(std::to_string(i), hex);
    compiles.push_back(ep.lang_compile_ms);
    if (ep.traced) {
      ++traced_eps;
      traced_walls.insert(traced_walls.end(), ep.walls_us.begin(),
                          ep.walls_us.end());
      for (const auto& [k, v] : ep.self_us) self_us[k] += v;
      unattributed_us += ep.unattributed_us;
      dropped_spans += ep.dropped_spans;
    } else {
      ++untraced_eps;
      walls.insert(walls.end(), ep.walls_us.begin(), ep.walls_us.end());
      switches += static_cast<double>(ep.plan_switches);
      drifts += static_cast<double>(ep.drift_resets);
      rec_dropped += static_cast<double>(ep.recorder_dropped);
    }
  }
  j.Close();

  j.Open("info");
  j.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  j.Str("cpu_model", CpuModel());
  j.Str("build_type", SGL_BENCH_BUILD_TYPE);
  j.Bool("count_allocs", sgl::AllocCountingEnabled());
  j.Str("kernel_dispatch",
        sgl::KernelDispatchName(sgl::ActiveKernelDispatch()));
  const char* force_scalar = std::getenv("SGL_FORCE_SCALAR");
  j.Str("force_scalar", force_scalar != nullptr ? force_scalar : "");
  j.Str("plan_mode", sgl::PlanModeName(defaults.exec.planner.mode));
  j.Str("eval_mode", sgl::EvalModeName(defaults.exec.eval_mode));
  j.Str("probe_mode", sgl::ProbeModeName(defaults.exec.probe_mode));
  j.Int("threads", shape.threads);
  j.Int("shards", shape.shards);
  j.Int("job_workers", shape.job_workers);
  j.Int("seed", static_cast<int64_t>(args.seed));
  j.Int("entities", sc->entities());
  j.Int("warmup_ticks", args.smoke ? 3 : sc->warmup_ticks());
  j.Int("timed_ticks_per_episode", args.smoke ? 6 : sc->timed_ticks());
  j.Int("episodes", untraced_eps);
  j.Int("traced_episodes", traced_eps);
  j.Int("tick_samples", static_cast<int64_t>(walls.size()));
  j.Int("traced_tick_samples", static_cast<int64_t>(traced_walls.size()));
  j.Int("setup_samples", static_cast<int64_t>(run.setups.size()));
  j.Int("dropped_spans", dropped_spans);
  j.Close();

  // End-to-end metrics (untraced episodes).
  double wall_sum = 0;
  for (double w : walls) wall_sum += w;
  const double p50 = Percentile(walls, 0.50) / 1e3;
  j.Open("metrics");
  j.Num("tick_ms_p50", p50);
  j.Num("tick_ms_p95", Percentile(walls, 0.95) / 1e3);
  j.Num("entity_ticks_per_s",
        wall_sum > 0 ? static_cast<double>(sc->entities()) *
                           static_cast<double>(walls.size()) / (wall_sum / 1e6)
                     : 0.0);
  j.Num("setup_s", Median(run.setups));
  j.Num("peak_rss_mb", run.peak_rss_mb);

  // Per-layer metrics: means per timed tick unless noted.
  double query = 0, merge = 0, update = 0, allocs = 0, bytes = 0;
  double ibuild = 0, probe = 0, imem = 0, fallbacks = 0, lanes = 0;
  double s_bc = 0, s_int = 0, s_pb = 0, s_ps = 0;
  double issued = 0, committed = 0, aborted = 0;
  double job_wait = 0, installed = 0, in_flight = 0, cross = 0, records = 0;
  double input = 0, unattributed = 0, gap = 0;
  std::vector<double> vm_compile;
  for (const TickSample& s : run.samples) {
    const sgl::TickStats& st = s.stats;
    query += st.query_effect_micros;
    merge += st.merge_micros;
    update += st.update_micros;
    unattributed += s.wall_us - static_cast<double>(st.query_effect_micros +
                                                    st.merge_micros +
                                                    st.update_micros);
    gap += s.wall_us - static_cast<double>(st.total_micros);
    allocs += st.allocs_per_tick;
    bytes += st.bytes_per_tick;
    ibuild += st.index_build_micros;
    probe += st.probe_micros;
    imem += st.index_memory_bytes;
    fallbacks += st.vm_fallbacks;
    lanes += st.simd_lanes_used;
    s_bc += st.sites_bytecode;
    s_int += st.sites_interpreted;
    s_pb += st.sites_probe_batched;
    s_ps += st.sites_probe_single;
    issued += st.txn.issued;
    committed += st.txn.committed;
    aborted += st.txn.aborted;
    job_wait += st.job_wait_micros;
    installed += st.jobs_installed;
    in_flight += st.jobs_in_flight;
    cross += s.cross_records;
    records += s.recorder_records;
    input += s.input_us;
    vm_compile.push_back(static_cast<double>(st.vm_compile_micros));
  }
  const double ns = static_cast<double>(std::max<size_t>(run.samples.size(), 1));
  const double eps = std::max(untraced_eps, 1);
  j.Num("exec.query_ms", query / ns / 1e3);
  j.Num("exec.merge_ms", merge / ns / 1e3);
  j.Num("exec.unattributed_ms", unattributed / ns / 1e3);
  j.Num("exec.stats_gap_ms", gap / ns / 1e3);
  j.Num("exec.allocs_per_tick", allocs / ns);
  j.Num("exec.bytes_per_tick", bytes / ns);
  j.Num("index.build_ms", ibuild / ns / 1e3);
  j.Num("index.probe_busy_ms", probe / ns / 1e3);
  j.Num("index.memory_mb", imem / ns / (1024.0 * 1024.0));
  j.Num("vm.sites_bytecode_ratio", s_bc + s_int > 0 ? s_bc / (s_bc + s_int) : 0);
  j.Num("vm.fallbacks_per_tick", fallbacks / ns);
  j.Num("vm.simd_lanes_per_tick", lanes / ns);
  j.Num("vm.compile_ms", Median(vm_compile) / 1e3);
  j.Num("opt.plan_switches", switches / eps);
  j.Num("opt.drift_resets", drifts / eps);
  j.Num("opt.sites_probe_batched_ratio",
        s_pb + s_ps > 0 ? s_pb / (s_pb + s_ps) : 0);
  j.Num("txn.issued_per_tick", issued / ns);
  j.Num("txn.aborted_per_tick", aborted / ns);
  j.Num("txn.commit_ratio", issued > 0 ? committed / issued : 0);
  j.Num("update.update_ms", update / ns / 1e3);
  j.Num("async.job_wait_ms", job_wait / ns / 1e3);
  j.Num("async.jobs_installed_per_tick", installed / ns);
  j.Num("async.jobs_in_flight", in_flight / ns);
  j.Num("shard.cross_records_per_tick", cross / ns);
  j.Num("recorder.records_per_frame", records / ns);
  j.Num("recorder.dropped_records", rec_dropped / ns);
  j.Num("lang.compile_ms", Median(compiles));
  j.Num("driver.input_ms", input / ns / 1e3);
  if (traced_eps > 0) {
    const double nt = static_cast<double>(std::max<size_t>(traced_walls.size(), 1));
    for (const char* site : kTraceSites) {
      const auto it = self_us.find(site);
      j.Num(std::string("trace.") + site + "_ms",
            it == self_us.end() ? 0.0 : it->second / nt / 1e3);
    }
    j.Num("trace.unattributed_ms", unattributed_us / nt / 1e3);
    const double traced_p50 = Percentile(traced_walls, 0.50) / 1e3;
    j.Num("trace.overhead_pct", p50 > 0 ? (traced_p50 / p50 - 1.0) * 100 : 0);
  }
  j.Close();
  // The bases of the ratio metrics, summed over the untraced timed ticks.
  j.Open("bases");
  j.Num("vm.sites_bytecode_ratio", s_bc + s_int);
  j.Num("opt.sites_probe_batched_ratio", s_pb + s_ps);
  j.Num("txn.commit_ratio", issued);
  j.Close();
  return j.Finish();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      args->smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--artifacts") {
      args->artifacts = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tick_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--artifacts DIR]\n");
    return 2;
  }
  std::unique_ptr<Scenario> sc = MakeScenario(args.workload);
  if (sc == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Run run;
  const auto start = Clock::now();
  // --trace 0 needs the pooled tick count for p95 and two same-seed
  // episodes for the checksum cross-check; --trace 1 reports per-layer
  // metrics only (no bounds), so one untraced and one traced episode do.
  const bool quick = args.smoke || args.trace;
  const int min_untraced = quick ? 1 : kMinEpisodes;
  const size_t min_ticks = quick ? 1 : kMinTimedTicks;
  const double budget = args.smoke ? 0.0 : args.seconds;
  int untraced = 0, traced = 0;
  for (int e = 0;; ++e) {
    const bool trace_this = args.trace && e % 2 == 1;
    int& count = trace_this ? traced : untraced;
    const bool ok = RunEpisode(sc.get(), args, trace_this, count, &run);
    ReleaseFreedHeap();
    if (!ok) break;
    ++count;
    if (untraced >= min_untraced && run.samples.size() >= min_ticks &&
        (!args.trace || traced >= 1) && SecondsSince(start) >= budget) {
      break;
    }
  }
  // Set-up-only builds, so setup_s is a median of kSetupSamples.
  while (run.correct && run.setups.size() < kSetupSamples) {
    std::unique_ptr<sgl::FlightRecorder> recorder;
    double setup_s = 0;
    const bool ok =
        BuildTimed(sc.get(), nullptr, &recorder, &setup_s).ok();
    ReleaseFreedHeap();
    if (!ok) break;
    run.setups.push_back(setup_s);
  }
  for (const Episode& ep : run.episodes) {
    if (ep.checksum != run.episodes.front().checksum) {
      run.correct = false;
      run.failure = "episodes with the same seed ended in different worlds";
      run.failed = run.attempted;
    }
  }
  if (!run.correct) run.failed = run.attempted;
  std::printf("%s\n", Report(sc.get(), args, run).c_str());
  return 0;
}
