// FlightRecorder: a pooled ring of the last K ticks — "what just happened"
// as data, not printf (§3.3: the engine must be able to explain its own
// decisions and effects after the fact).
//
// Each ring frame holds one tick's
//   * scalar stats (phase micros, job counters, txn stats — a TickStats
//     subset, plus the sharded pipeline's stall/imbalance gauges),
//   * per-site attribution rows (the SiteFeedback vector, pooled copy),
//   * every effect record with its provenance tags (site id, ⊕/intent
//     order key, txn id, source rows, source shard) and each record's
//     *resolved after-value* — the post-merge effect value or the
//     post-write-back state value of the written field,
//   * a wall-clock window (for span extraction into dumps).
//
// Capture path (armed): the executor fans every effect write into the
// recorder's internal watch-all EffectTracer — a plain store of one
// trivially copyable TraceRecord into the writing worker slot's pooled
// lane. At tick bookkeeping — inside the tick's time (the `tick.capture`
// span, counted in TickStats::total_micros) and before the executor reads
// the allocation counters, so frame assembly is held to the
// allocs_per_tick == 0 contract — each lane drains into the current
// frame's pooled record vector with one memcpy, and each record's
// after-value resolves from the world (it has to happen now: the next
// tick overwrites the effect buffers and state). Nothing is sorted at
// capture: frames keep lane order, and canonical order is built at read
// time — ProvenanceIndex sorts a per-frame permutation on first query, and
// SerializeProvenanceTail sorts one when a dump is written. Frames
// wrap-overwrite (newest wins) with eviction accounting; record overflow
// within a frame truncates with drop accounting. Disarmed: one branch per
// tick in the executor plus one null check per effect write.
//
// Black-box triggers: after each capture the trigger engine checks
//   * tick time > anomaly_p95_factor × rolling p95 over the ring,
//   * shard.imbalance_bp / barrier.stall_us thresholds,
//   * any FaultInjector fire since the previous capture,
//   * crash detected on restore (Engine::Restore → NotifyRestore),
// and writes a self-contained dump (reason, Chrome trace of the ring
// window, metrics snapshot, site table JSON, serialized provenance tail,
// world checksum) through the fsync'd black-box writer with
// CheckpointStore-style rotation (checkpoint_file.h). Dump writing is off
// the steady-state contract — it allocates freely; a cooldown keeps a
// sustained anomaly from flooding the store.
//
// The provenance tail and world checksum serialize only deterministic
// content (no wall-clock), so a never-crashed run and a crash/recover run
// over the same program produce byte-identical provenance sections — the
// recovery differential the tests compare.
//
// Queries over the ring (WhyDidChange / ExplainTick) live in
// src/telemetry/provenance.h; this class owns the data they read.

#ifndef SGL_TELEMETRY_FLIGHT_RECORDER_H_
#define SGL_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/types.h"
#include "src/debug/tracer.h"
#include "src/exec/tick_executor.h"
#include "src/schema/type.h"

namespace sgl {

class BlackBoxStore;
class FaultInjector;
class Telemetry;
class World;

/// Sizing and trigger knobs. Everything that can preallocate does so at
/// construction; triggers default off (0 / false = disabled).
struct FlightRecorderOptions {
  /// Ring depth in ticks. Older frames are overwritten (evicted_frames()).
  int ring_ticks = 16;
  /// Per-frame record budget; beyond it records drop (dropped_records()).
  size_t max_records_per_frame = 1 << 16;

  // --- Black-box triggers (0 / false = disabled) -------------------------
  /// Fire when tick total µs exceeds `factor × p95` of the in-ring frames.
  double anomaly_p95_factor = 0.0;
  /// Frames required in the ring before the p95 trigger can fire.
  int min_frames_for_anomaly = 8;
  /// Fire when the sharded pipeline's imbalance gauge reaches this (bp).
  int64_t imbalance_bp_threshold = 0;
  /// Fire when the barrier stall gauge reaches this (µs).
  int64_t barrier_stall_us_threshold = 0;
  /// Fire when the attached FaultInjector's total_fires() advanced since
  /// the previous capture.
  bool dump_on_fault = false;
  /// Fire from NotifyRestore (crash detected on restore).
  bool dump_on_restore = false;
  /// Minimum ticks between automatic dumps (suppressed_dumps() counts).
  Tick dump_cooldown_ticks = 16;
};

/// A captured record's resolved after-value: the field's final value at
/// end of tick — the merged effect value for query-phase records, the
/// post-write-back state value for txn records (the record's own `value`
/// is the *contribution*, the assigned/⊕-combined operand). Set-typed
/// fields record the set's size, never a boxed EntitySet.
struct AfterValue {
  bool known = false;  ///< false: target despawned / row unresolvable
  TypeKind kind = TypeKind::kNumber;
  union {
    double num = 0.0;  ///< kNumber
    bool b;            ///< kBool
    EntityId ref;      ///< kRef
    int64_t set_size;  ///< kSet
  };
};

/// One ring slot: everything the recorder kept about one tick.
struct TickFrame {
  Tick tick = -1;      ///< -1: slot never written
  uint64_t seq = 0;    ///< capture sequence (wrap generation)
  int64_t begin_ns = 0, end_ns = 0;  ///< wall-clock window (Telemetry epoch)

  /// Wall time of the whole tick through the end of this frame's capture
  /// (drain + after-value resolution) — the same figure the executor
  /// reports as TickStats::total_micros, and what the p95 anomaly trigger
  /// compares. begin_ns = end_ns - total_micros * 1000. A black-box dump
  /// the trigger writes happens after the frame is sealed and is not in it.
  int64_t total_micros = 0;
  // Scalar stats copied from TickStats (alloc counters excluded: they are
  // read *after* capture, by design).
  int64_t query_effect_micros = 0;
  int64_t merge_micros = 0;
  int64_t update_micros = 0;
  int64_t probe_micros = 0;
  int64_t jobs_submitted = 0;
  int64_t jobs_installed = 0;
  int64_t jobs_in_flight = 0;
  int64_t txn_issued = 0;
  int64_t txn_committed = 0;
  int64_t txn_aborted = 0;
  /// Sharded-layout gauges (-1 / 0 when the world is one shard).
  int64_t barrier_stall_us = -1;
  int64_t imbalance_bp = 0;
  int64_t cross_shard_records = 0;

  /// Per-site attribution rows (pooled copy of TickStats::sites).
  std::vector<SiteFeedback> sites;
  size_t num_sites = 0;  ///< used prefix of `sites`

  /// The tick's effect records in capture (lane) order — not sorted; read
  /// paths build canonical order themselves. `after[i]` is `records[i]`'s
  /// resolved after-value. `num_records` is the used prefix of both (the
  /// vectors are pooled and never shrink).
  std::vector<TraceRecord> records;
  std::vector<AfterValue> after;
  size_t num_records = 0;
  int64_t dropped_records = 0;  ///< truncated past max_records_per_frame
};

class FlightRecorder {
 public:
  explicit FlightRecorder(
      const FlightRecorderOptions& options = FlightRecorderOptions());
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Armed = capture; disarmed = the executor sees a null sink. Flip
  /// between ticks. World checksums are bit-identical armed vs disarmed — capture
  /// only observes.
  bool armed() const { return armed_; }
  void set_armed(bool on) { armed_ = on; }

  /// Optional attachments (borrowed; must outlive the recorder).
  /// Telemetry feeds the dump's Chrome trace / metrics / site sections;
  /// the fault injector feeds the dump_on_fault trigger; the store
  /// receives the dumps (no store = triggers evaluate but write nothing,
  /// still counted in dumps_suppressed()).
  void set_telemetry(Telemetry* tel) { tel_ = tel; }
  void set_fault(FaultInjector* fault);
  void AttachStore(BlackBoxStore* store) { store_ = store; }

  /// The effect-write sink the executor fans into this tick (null when
  /// disarmed — the executor re-reads this every tick).
  EffectTracer* capture_sink() { return armed_ ? &tracer_ : nullptr; }

  /// One tick's capture input, filled by the executor at bookkeeping time.
  struct FrameInput {
    Tick tick = 0;
    const TickStats* stats = nullptr;  ///< total_micros not yet set
    const World* world = nullptr;
    /// Started when the tick started; read once the frame is assembled.
    const Stopwatch* tick_clock = nullptr;
    /// Sharded layout only; a 1-shard tick passes these defaults.
    int64_t barrier_stall_us = -1;
    int64_t imbalance_bp = 0;
    int64_t cross_shard_records = 0;
  };

  /// Seals the current tick into a ring frame (lane drain + after-value
  /// resolution, no sort), stamps it with the tick's total time read from
  /// `in.tick_clock`, then evaluates the dump triggers. Returns that total
  /// (µs) so the executor reports the same figure. Allocation-free at the
  /// high-water mark. Call only when the recorder was armed at tick start.
  int64_t CaptureTick(const FrameInput& in);

  /// Crash-recovery notification (Engine::Restore). Records the restore
  /// tick and, with dump_on_restore set, writes a "crash.restore" dump.
  void NotifyRestore(Tick tick, const World* world);

  /// Writes a dump now, regardless of triggers and cooldown (tests,
  /// operator request). Allocates freely. Fails when no store is attached.
  Status DumpNow(const std::string& reason, Tick tick, const World* world);

  // --- Ring access (provenance queries, tests) ---------------------------
  /// Frame holding tick `t`; nullptr when evicted or never captured.
  const TickFrame* frame(Tick t) const;
  /// Oldest / newest captured tick still in the ring (-1 when empty).
  Tick oldest_tick() const;
  Tick newest_tick() const;
  int ring_ticks() const { return static_cast<int>(ring_.size()); }
  const FlightRecorderOptions& options() const { return options_; }

  /// Deterministic serialization of every in-ring frame's records
  /// (oldest → newest, each frame in TraceRecordCanonicalLess order, sorted
  /// here through a permutation): the dump's provenance section. binio
  /// format, no wall-clock content. Allocates (dump time only).
  void SerializeProvenanceTail(std::string* out) const;

  // --- Accounting --------------------------------------------------------
  int64_t frames_captured() const { return frames_captured_; }
  int64_t evicted_frames() const {
    const int64_t n = frames_captured_ - static_cast<int64_t>(ring_.size());
    return n > 0 ? n : 0;
  }
  int64_t dropped_records() const { return dropped_records_total_; }
  int64_t dumps_written() const { return dumps_written_; }
  int64_t dumps_suppressed() const { return dumps_suppressed_; }
  /// Reason string of the most recent trigger ("" when none fired yet).
  const std::string& last_trigger() const { return last_trigger_; }

 private:
  /// Resolves `after[i]` for records [begin, end) of `frame`.
  static void ResolveAfterValues(TickFrame* frame, size_t begin, size_t end,
                                 const World& world);
  /// Evaluates triggers for the just-captured frame; returns the reason
  /// ("" = none).
  const char* EvaluateTriggers(const TickFrame& frame);
  void TriggerDump(const char* reason, Tick tick, const World* world);

  FlightRecorderOptions options_;
  bool armed_ = false;
  Telemetry* tel_ = nullptr;
  FaultInjector* fault_ = nullptr;
  BlackBoxStore* store_ = nullptr;

  EffectTracer tracer_;  ///< watch-all capture sink (pooled worker lanes)
  std::vector<TickFrame> ring_;
  int64_t frames_captured_ = 0;
  int64_t dropped_records_total_ = 0;
  int64_t dumps_written_ = 0;
  int64_t dumps_suppressed_ = 0;
  Tick last_dump_tick_ = -1;
  int64_t last_fault_fires_ = 0;
  std::string last_trigger_;
  std::vector<int64_t> p95_scratch_;  ///< pre-reserved rolling-p95 buffer
  Tick restored_at_ = -1;  ///< last NotifyRestore tick (-1 = never)
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_FLIGHT_RECORDER_H_
