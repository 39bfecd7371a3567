// ShardRouter: the cross-shard effect plane.
//
// During the QUERY+EFFECT phase each shard runs single-threadedly over its
// own rows and emits effects through its router (the EffectRouter hook in
// ExecEnv). Writes whose target row lies inside the shard's own partition
// fold into a dense *range-sized* EffectBuffer (rows indexed relative to
// the shard's base — memory is O(rows/shard), not the O(rows) per lane
// that a threaded 1-shard tick's full-size lane buffers pay). Writes
// targeting another shard's rows append one 32-byte EffectRecord to the
// (src, dst) mailbox lane: a flat double-buffered log, the in-process
// stand-in for a network channel.
//
// At the tick barrier the executor flips every lane and merges in source-
// shard-major order: for s = 0..S-1, shard s's dense local buffer folds in
// at its row offset and its outgoing lanes replay record-by-record into
// the world's full-size effect buffers. Because the block partition keeps
// shards in global row order, source-major merging reproduces the serial
// accumulation order per target row; see README.md for the exact
// determinism contract (which combinators are bit-exact and why).
//
// Buffer-return rules: lanes and local buffers never shrink. A lane's
// write side is cleared when it is flipped *into* writing, not when it is
// drained, so the drained log stays readable (tracing, tests) until the
// next barrier. Everything reaches a high-water mark and steady-state
// ticks allocate nothing.

#ifndef SGL_SHARD_SHARD_ROUTER_H_
#define SGL_SHARD_SHARD_ROUTER_H_

#include <cstring>
#include <memory>
#include <vector>

#include "src/exec/op_exec.h"
#include "src/shard/sharded_world.h"

namespace sgl {

/// One routed cross-shard effect: the Add* call to replay at the barrier.
struct EffectRecord {
  enum Kind : uint8_t { kNum, kBool, kRef, kSetInsert };

  uint64_t order_key = 0;
  uint64_t payload = 0;  ///< bit-cast double / EntityId / bool
  RowIdx row = 0;        ///< global row in the target class
  FieldIdx field = kInvalidField;
  ClassId cls = kInvalidClass;
  Kind kind = kNum;
};

/// A double-buffered flat append log between one (src, dst) shard pair.
class MailboxLane {
 public:
  /// The side the query phase appends to.
  std::vector<EffectRecord>& out() { return bufs_[cur_]; }
  /// Last tick's fully-written side (valid after Flip()).
  const std::vector<EffectRecord>& in() const { return bufs_[cur_ ^ 1]; }

  /// Barrier: retire the written side to in() and clear the other for the
  /// next tick's appends (capacity kept).
  void Flip() {
    cur_ ^= 1;
    bufs_[cur_].clear();
  }

 private:
  std::vector<EffectRecord> bufs_[2];
  int cur_ = 0;
};

/// Per-shard effect routing state (one per WorldShard).
class ShardRouter : public EffectRouter {
 public:
  ShardRouter(ShardedWorld* sharded, int self);

  /// Re-sizes the local dense buffers to the shard's current row ranges.
  /// Call after EnsurePartition, before the query phase.
  void BeginTick();

  EffectBuffer& local(ClassId cls) {
    return *local_[static_cast<size_t>(cls)];
  }
  MailboxLane& lane(int dst) { return lanes_[static_cast<size_t>(dst)]; }

  /// Folds this shard's local buffers and flipped lanes into the world's
  /// effect buffers. Caller iterates shards in ascending order and flips
  /// all lanes first (TickExecutor's sharded barrier).
  void MergeInto(World* world);

  // --- EffectRouter ----------------------------------------------------

  void AddNumber(ClassId cls, FieldIdx f, RowIdx row, double v,
                 uint64_t order_key) override {
    const int dst = sharded_->ShardOfRow(cls, row);
    if (dst == self_) {
      local(cls).AddNumber(f, row - base_[static_cast<size_t>(cls)], v,
                           order_key);
    } else {
      uint64_t payload;
      std::memcpy(&payload, &v, sizeof(payload));
      Append(dst, cls, f, row, EffectRecord::kNum, payload, order_key);
    }
  }
  void AddBool(ClassId cls, FieldIdx f, RowIdx row, bool v,
               uint64_t order_key) override {
    const int dst = sharded_->ShardOfRow(cls, row);
    if (dst == self_) {
      local(cls).AddBool(f, row - base_[static_cast<size_t>(cls)], v,
                         order_key);
    } else {
      Append(dst, cls, f, row, EffectRecord::kBool, v ? 1 : 0, order_key);
    }
  }
  void AddRef(ClassId cls, FieldIdx f, RowIdx row, EntityId v,
              uint64_t order_key) override {
    const int dst = sharded_->ShardOfRow(cls, row);
    if (dst == self_) {
      local(cls).AddRef(f, row - base_[static_cast<size_t>(cls)], v,
                        order_key);
    } else {
      Append(dst, cls, f, row, EffectRecord::kRef,
             static_cast<uint64_t>(v), order_key);
    }
  }
  void AddSetInsert(ClassId cls, FieldIdx f, RowIdx row,
                    EntityId v) override {
    const int dst = sharded_->ShardOfRow(cls, row);
    if (dst == self_) {
      local(cls).AddSetInsert(f, row - base_[static_cast<size_t>(cls)], v);
    } else {
      Append(dst, cls, f, row, EffectRecord::kSetInsert,
             static_cast<uint64_t>(v), 0);
    }
  }

  /// Records routed to other shards last tick (stats / tests).
  size_t OutboundRecords() const;

 private:
  void Append(int dst, ClassId cls, FieldIdx f, RowIdx row,
              EffectRecord::Kind kind, uint64_t payload,
              uint64_t order_key) {
    EffectRecord rec;
    rec.order_key = order_key;
    rec.payload = payload;
    rec.row = row;
    rec.field = f;
    rec.cls = cls;
    rec.kind = kind;
    lanes_[static_cast<size_t>(dst)].out().push_back(rec);
  }

  ShardedWorld* sharded_;
  int self_;
  std::vector<std::unique_ptr<EffectBuffer>> local_;  ///< per class
  std::vector<RowIdx> base_;                          ///< per class
  std::vector<MailboxLane> lanes_;                    ///< per dst shard
};

}  // namespace sgl

#endif  // SGL_SHARD_SHARD_ROUTER_H_
