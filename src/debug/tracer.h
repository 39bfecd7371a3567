// EffectTracer: records the effect assignments targeting selected entities
// (§3.3: "developers should be able to select an individual NPC and view the
// effects assigned to it"). Works identically under the compiled and the
// object-at-a-time engines and under parallel execution (records are sorted
// into canonical order on read).
//
// Record path (hot): a membership test against a sorted flat watch list,
// then a plain store of the trivially copyable TraceRecord into the
// calling worker slot's pooled lane (src/telemetry/worker_lanes.h) — no
// mutex, no sort, no per-record allocation once lanes reach their
// high-water capacity, so an armed tracer holds the steady-state
// allocs_per_tick == 0 contract when Clear() is called between ticks
// (capacity is kept).
//
// Read path (off-tick): Records() merges the lanes and sorts them into the
// canonical TraceRecordCanonicalLess order — a total order independent of
// which worker slot recorded what. ForEachLane() hands out the unsorted
// lane blocks for the flight recorder's per-tick drain.
//
// Watch/Unwatch/Clear/ReserveLanes configure the tracer and must run
// between ticks (the barrier thread); OnEffectAssign runs from the worker
// that owns `lane`.

#ifndef SGL_DEBUG_TRACER_H_
#define SGL_DEBUG_TRACER_H_

#include <algorithm>
#include <vector>

#include "src/debug/trace.h"
#include "src/telemetry/worker_lanes.h"

namespace sgl {

class EffectTracer {
 public:
  /// Starts watching an entity. No filter set = trace nothing.
  /// Configure between ticks (see header comment).
  void Watch(EntityId id);
  void Unwatch(EntityId id);
  bool IsWatched(EntityId id) const {
    return std::binary_search(watched_.begin(), watched_.end(), id);
  }

  /// Watch-all mode records every assignment regardless of the watch list
  /// (the flight recorder's capture sink). Configure between ticks.
  void set_watch_all(bool on) { watch_all_ = on; }
  bool watch_all() const { return watch_all_; }

  /// Makes worker-slot lanes [0, n) available; the executor calls it at
  /// tick start with their slot count.
  void ReserveLanes(int n) { lanes_.Reserve(n); }

  /// Records one effect assignment from worker slot `lane`.
  void OnEffectAssign(int lane, const TraceRecord& rec) {
    if (watch_all_ || IsWatched(rec.target)) lanes_.Append(lane, rec);
  }

  /// Records so far, in canonical order (TraceRecordCanonicalLess).
  std::vector<TraceRecord> Records() const;
  /// Records for one entity in one tick, in canonical order.
  std::vector<TraceRecord> RecordsFor(EntityId id, Tick tick) const;

  /// Drops every record, keeping lane capacity (between ticks).
  void Clear() { lanes_.Clear(); }
  size_t size() const { return lanes_.size(); }

  /// Unsorted, allocation-free visit of each lane's records as one
  /// contiguous block: `fn(const TraceRecord* data, size_t count)`.
  template <typename Fn>
  void ForEachLane(Fn&& fn) const {
    lanes_.ForEachLane(fn);
  }

 private:
  std::vector<EntityId> watched_;  ///< sorted; binary-searched on record
  bool watch_all_ = false;
  WorkerLanes<TraceRecord> lanes_;
};

}  // namespace sgl

#endif  // SGL_DEBUG_TRACER_H_
