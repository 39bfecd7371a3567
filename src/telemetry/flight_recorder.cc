#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "src/common/bin_io.h"
#include "src/debug/checkpoint.h"
#include "src/debug/checkpoint_file.h"
#include "src/fault/fault_injector.h"
#include "src/schema/class_def.h"
#include "src/storage/world.h"
#include "src/telemetry/telemetry.h"

namespace sgl {

namespace {

/// Provenance-section format tag ("SGLPROV1", little-endian).
constexpr uint64_t kProvMagic = 0x31564f52504c4753ULL;

/// Resets a frame slot to "never written", keeping every pooled capacity.
void ClearFrame(TickFrame* f) {
  f->tick = -1;
  f->seq = 0;
  f->num_sites = 0;
  f->num_records = 0;
  f->dropped_records = 0;
}

}  // namespace

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : options_(options) {
  if (options_.ring_ticks < 1) options_.ring_ticks = 1;
  ring_.resize(static_cast<size_t>(options_.ring_ticks));
  for (TickFrame& f : ring_) ClearFrame(&f);
  p95_scratch_.reserve(ring_.size());
  tracer_.set_watch_all(true);
}

void FlightRecorder::set_fault(FaultInjector* fault) {
  fault_ = fault;
  // Baseline the fire counter so pre-attachment fires never trigger.
  last_fault_fires_ = fault != nullptr ? fault->total_fires() : 0;
}

int64_t FlightRecorder::CaptureTick(const FrameInput& in) {
  TickFrame& f = ring_[static_cast<size_t>(frames_captured_) % ring_.size()];
  f.tick = in.tick;
  f.seq = static_cast<uint64_t>(frames_captured_);

  const TickStats& st = *in.stats;
  f.query_effect_micros = st.query_effect_micros;
  f.merge_micros = st.merge_micros;
  f.update_micros = st.update_micros;
  f.probe_micros = st.probe_micros;
  f.jobs_submitted = st.jobs_submitted;
  f.jobs_installed = st.jobs_installed;
  f.jobs_in_flight = st.jobs_in_flight;
  f.txn_issued = st.txn.issued;
  f.txn_committed = st.txn.committed;
  f.txn_aborted = st.txn.aborted;
  f.barrier_stall_us = in.barrier_stall_us;
  f.imbalance_bp = in.imbalance_bp;
  f.cross_shard_records = in.cross_shard_records;

  // Per-site rows: pooled copy (slot assignment past the high-water mark).
  const size_t ns = st.sites.size();
  if (f.sites.size() < ns) f.sites.resize(ns);
  for (size_t i = 0; i < ns; ++i) f.sites[i] = st.sites[i];
  f.num_sites = ns;

  // Drain: each lane's block lands in the frame with one memcpy, and its
  // after-values resolve while the block is still hot. Past the per-frame
  // budget records drop. No sort — read paths order records themselves.
  const size_t recorded = tracer_.size();
  const size_t keep = std::min(recorded, options_.max_records_per_frame);
  if (f.records.size() < keep) {
    // Grow to a power of two, as push_back would, so a slot's capacity
    // settles above the tick-to-tick jitter of the record volume instead
    // of reallocating whenever a tick records a few more than the last.
    size_t slots = 1;
    while (slots < keep) slots *= 2;
    f.records.resize(slots);
    f.after.resize(slots);
  }
  size_t n = 0;
  tracer_.ForEachLane([&](const TraceRecord* data, size_t count) {
    const size_t take = std::min(count, keep - n);
    std::copy(data, data + take, f.records.begin() + static_cast<ptrdiff_t>(n));
    ResolveAfterValues(&f, n, n + take, *in.world);
    n += take;
  });
  tracer_.Clear();
  f.num_records = n;
  f.dropped_records = static_cast<int64_t>(recorded - n);
  dropped_records_total_ += f.dropped_records;

  // Seal: the frame's window ends now and spans the whole tick.
  f.total_micros = in.tick_clock->ElapsedMicros();
  f.end_ns = Telemetry::NowNs();
  f.begin_ns = f.end_ns - f.total_micros * 1000;

  ++frames_captured_;
  const char* reason = EvaluateTriggers(f);
  if (reason[0] != '\0') TriggerDump(reason, in.tick, in.world);
  return f.total_micros;
}

void FlightRecorder::ResolveAfterValues(TickFrame* frame, size_t begin,
                                        size_t end, const World& world) {
  for (size_t i = begin; i < end; ++i) {
    const TraceRecord& r = frame->records[i];
    AfterValue& a = frame->after[i];
    a = AfterValue();
    // The row the write landed on still holds the target unless the entity
    // moved or despawned since; only then probe the directory.
    ClassId cls_id = r.target_cls;
    RowIdx row = r.target_row;
    if (row >= world.table(cls_id).size() ||
        world.table(cls_id).id_at(row) != r.target) {
      const World::Locator* loc = world.Find(r.target);
      if (loc == nullptr) continue;  // despawned before capture
      cls_id = loc->cls;
      row = loc->row;
      if (row >= world.table(cls_id).size()) continue;
    }
    const EntityTable& table = world.table(cls_id);
    const ClassDef& cls = table.cls();
    if (r.prov.txn >= 0) {
      // Transaction write: the field lives in state space and the admitted
      // value was written back during UPDATE — read the state column.
      if (r.field < 0 ||
          static_cast<size_t>(r.field) >= cls.state_fields().size()) {
        continue;
      }
      a.kind = cls.state_field(r.field).type.kind;
      switch (a.kind) {
        case TypeKind::kNumber:
          a.num = table.Num(r.field)[row];
          break;
        case TypeKind::kBool:
          a.b = table.BoolCol(r.field)[row] != 0;
          break;
        case TypeKind::kRef:
          a.ref = table.RefCol(r.field)[row];
          break;
        case TypeKind::kSet:
          a.set_size =
              static_cast<int64_t>(table.SetCol(r.field)[row].size());
          break;
      }
      a.known = true;
    } else {
      // Query-phase effect: the merged (post-⊕, finalized) value is still
      // in the effect buffer — ResetEffects runs at the *next* tick start.
      if (r.field < 0 ||
          static_cast<size_t>(r.field) >= cls.effect_fields().size()) {
        continue;
      }
      const EffectBuffer& eb = world.effects(cls_id);
      if (!eb.Assigned(r.field, row)) continue;
      a.kind = cls.effect_field(r.field).type.kind;
      switch (a.kind) {
        case TypeKind::kNumber:
          a.num = eb.FinalNumber(r.field, row);
          break;
        case TypeKind::kBool:
          a.b = eb.FinalBool(r.field, row);
          break;
        case TypeKind::kRef:
          a.ref = eb.FinalRef(r.field, row);
          break;
        case TypeKind::kSet:
          a.set_size =
              static_cast<int64_t>(eb.FinalSet(r.field, row).size());
          break;
      }
      a.known = true;
    }
  }
}

const char* FlightRecorder::EvaluateTriggers(const TickFrame& frame) {
  const char* reason = "";
  if (fault_ != nullptr) {
    const int64_t fires = fault_->total_fires();
    if (options_.dump_on_fault && fires > last_fault_fires_) {
      reason = "fault.fired";
    }
    last_fault_fires_ = fires;
  }
  if (reason[0] == '\0' && options_.anomaly_p95_factor > 0.0) {
    p95_scratch_.clear();
    for (const TickFrame& g : ring_) {
      if (g.tick < 0 || g.seq == frame.seq) continue;
      p95_scratch_.push_back(g.total_micros);
    }
    if (static_cast<int>(p95_scratch_.size()) >=
        options_.min_frames_for_anomaly) {
      size_t k = p95_scratch_.size() * 95 / 100;
      if (k >= p95_scratch_.size()) k = p95_scratch_.size() - 1;
      std::nth_element(p95_scratch_.begin(),
                       p95_scratch_.begin() + static_cast<ptrdiff_t>(k),
                       p95_scratch_.end());
      const int64_t p95 = p95_scratch_[k];
      if (p95 > 0 && static_cast<double>(frame.total_micros) >
                         options_.anomaly_p95_factor *
                             static_cast<double>(p95)) {
        reason = "anomaly.tick_time";
      }
    }
  }
  if (reason[0] == '\0' && options_.imbalance_bp_threshold > 0 &&
      frame.imbalance_bp >= options_.imbalance_bp_threshold) {
    reason = "anomaly.shard_imbalance";
  }
  if (reason[0] == '\0' && options_.barrier_stall_us_threshold > 0 &&
      frame.barrier_stall_us >= options_.barrier_stall_us_threshold) {
    reason = "anomaly.barrier_stall";
  }
  return reason;
}

void FlightRecorder::TriggerDump(const char* reason, Tick tick,
                                 const World* world) {
  if (options_.dump_cooldown_ticks > 0 && last_dump_tick_ >= 0 &&
      tick - last_dump_tick_ < options_.dump_cooldown_ticks) {
    ++dumps_suppressed_;
    return;
  }
  if (store_ == nullptr) {
    last_trigger_ = reason;
    ++dumps_suppressed_;
    return;
  }
  (void)DumpNow(reason, tick, world);
}

void FlightRecorder::NotifyRestore(Tick tick, const World* world) {
  restored_at_ = tick;
  if (options_.dump_on_restore && store_ != nullptr) {
    // The ring still holds the pre-crash window — that *is* the black box.
    (void)DumpNow("crash.restore", tick, world);
  }
  // The abandoned timeline's frames must not mix with the recovered run:
  // re-executed ticks would collide with stale pre-crash frames. Keep every
  // pooled capacity, drop the contents.
  tracer_.Clear();
  for (TickFrame& f : ring_) ClearFrame(&f);
  frames_captured_ = 0;
}

Status FlightRecorder::DumpNow(const std::string& reason, Tick tick,
                               const World* world) {
  if (store_ == nullptr) {
    return Status::InvalidArgument("flight recorder: no black-box store");
  }
  last_trigger_ = reason;
  BlackBoxDump dump;
  dump.tick = tick;
  dump.world_checksum = world != nullptr ? WorldChecksum(*world) : 0;
  dump.reason = reason;
  if (tel_ != nullptr) {
    dump.chrome_trace = tel_->DumpChromeTrace();
    dump.metrics = tel_->metrics().Snapshot().Describe();
    dump.sites = tel_->DescribeSitesJson();
  } else {
    dump.chrome_trace = "{\"traceEvents\":[]}\n";
    dump.sites = "[]\n";
  }
  SerializeProvenanceTail(&dump.provenance);
  const Status s = store_->Save(dump);
  if (s.ok()) {
    ++dumps_written_;
    last_dump_tick_ = tick;
  }
  return s;
}

const TickFrame* FlightRecorder::frame(Tick t) const {
  for (const TickFrame& f : ring_) {
    if (f.tick >= 0 && f.tick == t) return &f;
  }
  return nullptr;
}

Tick FlightRecorder::oldest_tick() const {
  Tick best = -1;
  for (const TickFrame& f : ring_) {
    if (f.tick >= 0 && (best < 0 || f.tick < best)) best = f.tick;
  }
  return best;
}

Tick FlightRecorder::newest_tick() const {
  Tick best = -1;
  for (const TickFrame& f : ring_) {
    if (f.tick > best) best = f.tick;
  }
  return best;
}

void FlightRecorder::SerializeProvenanceTail(std::string* out) const {
  const int64_t size = static_cast<int64_t>(ring_.size());
  const int64_t first =
      frames_captured_ > size ? frames_captured_ - size : 0;
  binio::Append<uint64_t>(out, kProvMagic);
  binio::Append<int64_t>(out, frames_captured_ - first);
  std::vector<uint32_t> perm;
  for (int64_t s = first; s < frames_captured_; ++s) {
    const TickFrame& f = ring_[static_cast<size_t>(s) % ring_.size()];
    binio::Append<int64_t>(out, f.tick);
    binio::Append<int64_t>(out, f.dropped_records);
    binio::Append<uint64_t>(out, static_cast<uint64_t>(f.num_records));
    // Frames keep capture (lane) order; the section is canonical.
    perm.resize(f.num_records);
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&f](uint32_t x, uint32_t y) {
      return TraceRecordCanonicalLess(f.records[x], f.records[y]);
    });
    for (const uint32_t i : perm) {
      const TraceRecord& r = f.records[i];
      const AfterValue& a = f.after[i];
      binio::Append<int64_t>(out, r.tick);
      binio::Append<EntityId>(out, r.target);
      binio::Append<int32_t>(out, static_cast<int32_t>(r.target_cls));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.field));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.assign_id));
      binio::Append<uint64_t>(out, r.order_key);
      binio::Append<int32_t>(out, r.prov.site);
      binio::Append<int32_t>(out, r.prov.src_shard);
      binio::Append<EntityId>(out, r.prov.src_outer);
      binio::Append<EntityId>(out, r.prov.src_inner);
      binio::Append<int64_t>(out, r.prov.txn);
      // Contribution value: kind tag + canonical payload.
      binio::Append<uint8_t>(out, static_cast<uint8_t>(r.value.kind));
      switch (r.value.kind) {
        case ValueKind::kBool:
          binio::Append<uint8_t>(out, r.value.b ? 1 : 0);
          break;
        case ValueKind::kRef:
          binio::Append<EntityId>(out, r.value.ref);
          break;
        default:
          binio::Append<double>(out, r.value.num);
          break;
      }
      // After-value: every payload slot is written, the inactive ones as
      // fixed defaults, so the bytes depend only on the record.
      binio::Append<uint8_t>(out, a.known ? 1 : 0);
      binio::Append<uint8_t>(out, static_cast<uint8_t>(a.kind));
      binio::Append<double>(out, a.kind == TypeKind::kNumber ? a.num : 0.0);
      binio::Append<uint8_t>(out, a.kind == TypeKind::kBool && a.b ? 1 : 0);
      binio::Append<EntityId>(
          out, a.kind == TypeKind::kRef ? a.ref : kNullEntity);
      binio::Append<int64_t>(out,
                             a.kind == TypeKind::kSet ? a.set_size : -1);
    }
  }
}

}  // namespace sgl
