// WorkerLanes<Record>: per-worker-slot pooled append lanes
// (src/telemetry/).
//
// The executors hand every parallel unit of query-phase work a fixed
// worker slot — TickExecutor's ParallelFor index (which owns a fixed set of
// morsels), ShardExecutor's shard id — and slot s appends only to lane s.
// Which OS thread claims a slot changes from tick to tick; the work a slot
// records does not. So each lane's high-water capacity is a property of
// the workload, and once every lane has reached it Append() is a capacity
// check plus a plain store: no lock, no allocation. Clear() empties every
// lane and keeps its capacity.
//
// Contracts:
//   * Reserve(n) runs on the barrier thread between ticks, before any
//     slot in [0, n) appends; it allocates only when it grows.
//   * One writer per lane at a time. Readers (ForEachLane / size) and
//     Clear() run at a quiescent point (the tick barrier).

#ifndef SGL_TELEMETRY_WORKER_LANES_H_
#define SGL_TELEMETRY_WORKER_LANES_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/common/types.h"

namespace sgl {

template <typename Record>
class WorkerLanes {
  static_assert(std::is_trivially_copyable_v<Record>,
                "lanes drain by memcpy");

 public:
  /// Makes lanes [0, n) available.
  void Reserve(int n) {
    if (n > static_cast<int>(lanes_.size())) {
      lanes_.resize(static_cast<size_t>(n));
    }
  }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  /// Appends `r` to lane `lane`. Allocation-free once the lane has reached
  /// its high-water capacity.
  void Append(int lane, const Record& r) {
    SGL_DCHECK(lane >= 0 && lane < num_lanes());
    lanes_[static_cast<size_t>(lane)].records.push_back(r);
  }

  /// Records across all lanes.
  size_t size() const {
    size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.records.size();
    return n;
  }

  /// Visits each lane's records as one contiguous block, lane-major:
  /// `fn(const Record* data, size_t count)`.
  template <typename Fn>
  void ForEachLane(Fn&& fn) const {
    for (const Lane& lane : lanes_) {
      fn(lane.records.data(), lane.records.size());
    }
  }

  /// Empties every lane, keeping capacity (pooled reuse).
  void Clear() {
    for (Lane& lane : lanes_) lane.records.clear();
  }

 private:
  /// Cache-line aligned so workers appending to neighbouring lanes do not
  /// share the line holding each other's end pointers.
  struct alignas(64) Lane {
    std::vector<Record> records;
  };
  std::vector<Lane> lanes_;
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_WORKER_LANES_H_
