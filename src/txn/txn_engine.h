// The transaction engine — an update component (§2.2) implementing the
// atomic/consistent semantics of §3.1.
//
// During the query/effect phase, atomic regions emit *intents* instead of
// effects. At update time the engine processes intents in a deterministic
// priority order (site id, then issuing row), tentatively applies each
// intent's writes on a state overlay, and evaluates the region's require()
// constraints against the tentative state. If every constraint holds, the
// intent commits (its writes fold into the overlay); otherwise it aborts and
// leaves no trace — this is exactly the paper's "engine chooses a subset of
// the transactions issued during the tick that do not violate any
// constraints; the remaining transactions abort." Committed overlay values
// are then written back to the tables, and each issuer's status field is set
// (1 committed / 0 aborted / -1 no transaction), which scripts read next
// tick (§3.2's reactive reads).
//
// Storage layout: intents live in per-worker *flat logs*. Each shard owns
// one contiguous TxnResolvedWrite pool and one contiguous TxnIntent array;
// an intent does not carry its writes, it is a (first_write, num_writes)
// slice of its shard's pool. Admission ordering is computed over (order_key,
// shard, index) triples pointing into the logs — no per-intent allocation,
// no pointer chasing, and every buffer keeps its high-water capacity, so
// steady-state transaction ticks are allocation-free.

#ifndef SGL_TXN_TXN_ENGINE_H_
#define SGL_TXN_TXN_ENGINE_H_

#include <memory>
#include <vector>

#include "src/debug/tracer.h"
#include "src/lang/compiler.h"
#include "src/ra/eval.h"
#include "src/storage/world.h"
#include "src/update/update_component.h"

namespace sgl {

class FaultInjector;

/// A fully resolved single write of an intent.
struct TxnResolvedWrite {
  EntityId target = kNullEntity;
  ClassId cls = kInvalidClass;
  FieldIdx field = kInvalidField;
  TxnWriteOp op = TxnWriteOp::kAddDelta;
  double num = 0.0;          ///< kAddDelta
  EntityId ref = kNullEntity;  ///< kSetInsert / kSetRemove / kSetRef
};

/// One atomic region instance issued by one entity in one tick. Plain
/// 32-byte record; its writes are the half-open slice
/// [first_write, first_write + num_writes) of the owning shard's pool.
struct TxnIntent {
  uint64_t order_key = 0;  ///< (site << 32) | issuing row: admission order
  EntityId issuer = kNullEntity;
  ClassId issuer_cls = kInvalidClass;
  RowIdx issuer_row = kInvalidRow;
  const TxnEmitOp* op = nullptr;
  uint32_t first_write = 0;  ///< into the owning shard's write pool
  uint32_t num_writes = 0;
};

/// Per-worker intent sink: a flat intent array over a flat write pool.
/// Cleared (capacity kept) at every tick start; appends are amortized O(1)
/// with zero steady-state allocation.
class TxnIntentLog {
 public:
  /// Empties both logs, keeping their high-water capacity.
  void Clear() {
    intents_.clear();
    writes_.clear();
  }

  /// Opens a new intent slice; subsequent AddWrite calls extend it.
  void StartIntent(uint64_t order_key, EntityId issuer, ClassId issuer_cls,
                   RowIdx issuer_row, const TxnEmitOp* op) {
    TxnIntent intent;
    intent.order_key = order_key;
    intent.issuer = issuer;
    intent.issuer_cls = issuer_cls;
    intent.issuer_row = issuer_row;
    intent.op = op;
    intent.first_write = static_cast<uint32_t>(writes_.size());
    intents_.push_back(intent);
  }

  /// Appends a write to the currently open intent.
  void AddWrite(const TxnResolvedWrite& w) {
    SGL_DCHECK(!intents_.empty());
    writes_.push_back(w);
    ++intents_.back().num_writes;
  }

  size_t num_intents() const { return intents_.size(); }
  const TxnIntent& intent(size_t i) const { return intents_[i]; }
  /// First write of `intent`'s slice (valid for num_writes records).
  const TxnResolvedWrite* writes(const TxnIntent& intent) const {
    return writes_.data() + intent.first_write;
  }

 private:
  std::vector<TxnIntent> intents_;
  std::vector<TxnResolvedWrite> writes_;  ///< pooled write slices
};

/// Cumulative + per-tick admission statistics.
struct TxnStats {
  int64_t issued = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
};

/// Collects intents (sharded for the parallel executor) and runs admission.
class TxnEngine {
 public:
  explicit TxnEngine(const CompiledProgram* program) : program_(program) {}

  /// Prepares per-worker intent shards for a tick.
  void BeginTick(int num_shards);

  /// Worker-local intent sink (no synchronization needed).
  TxnIntentLog* shard(int i) { return &shards_[static_cast<size_t>(i)]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Admission + write-back + status reporting. Runs in the update phase.
  /// The admission order — and therefore every status field, statistic, and
  /// committed value — depends only on the intents' order keys, not on how
  /// the intent multiset is partitioned across shards (order keys are unique
  /// per (site, issuing row); ties broken by (shard, index) can only arise
  /// from duplicate keys).
  void ApplyUpdate(World* world);

  const TxnStats& total() const { return total_; }
  const TxnStats& last_tick() const { return last_tick_; }

  /// Arms the txn.admit.crash site (null = off). Set by the executor.
  void set_fault(FaultInjector* fault) { fault_ = fault; }
  /// The tick admission rolls against (set by the executor each tick).
  void set_fault_tick(Tick tick) { fault_tick_ = tick; }
  /// Provenance sink for committed writes (the flight recorder's capture
  /// path; null = off). Each committed intent reports one event per
  /// resolved write, tagged with the intent's order key as `prov.txn` —
  /// the "which transaction wrote this state field" half of
  /// WhyDidChange. Admission is single-threaded (update phase), so the
  /// sink sees barrier-thread calls only, on lane 0. Set by the executor
  /// per tick.
  void set_prov_sink(EffectTracer* sink) { prov_sink_ = sink; }
  /// True exactly once after an injected mid-admission crash: admission
  /// stopped partway, committed overlay values were still written back
  /// (a deliberately torn update), and unprocessed issuers kept status -1.
  /// The executor turns this into an injected-crash Status so recovery —
  /// not forward execution — cleans the tear up.
  bool ConsumeInjectedCrash() {
    const bool fired = injected_crash_;
    injected_crash_ = false;
    return fired;
  }

 private:
  /// Sorted admission handle into the shard logs.
  struct IntentRef {
    uint64_t order_key;
    uint32_t shard;
    uint32_t index;
  };
  /// One rollback record; undo_ is replayed in reverse on abort.
  struct Undo {
    enum Kind : uint8_t {
      kNum,       ///< restore old_num / erase if !had
      kRef,       ///< restore old_ref / erase if !had
      kSetFresh,  ///< erase the freshly created set entry
      kSetInsert, ///< remove `elem` again
      kSetErase,  ///< re-insert `elem`
    };
    Kind kind;
    bool had;
    ClassId cls;
    RowIdx row;
    FieldIdx field;
    double old_num;
    EntityId old_ref;
    EntityId elem;
  };

  const CompiledProgram* program_;
  FaultInjector* fault_ = nullptr;
  EffectTracer* prov_sink_ = nullptr;
  Tick fault_tick_ = 0;
  bool injected_crash_ = false;
  std::vector<TxnIntentLog> shards_;
  std::vector<IntentRef> order_;  ///< reused admission-order buffer
  std::vector<Undo> undo_;        ///< reused per-intent rollback log
  /// Per-intent target rows of the applied writes (provenance row hints;
  /// filled only while a provenance sink is attached).
  std::vector<RowIdx> prov_rows_;
  StateOverlay overlay_;
  TxnStats total_;
  TxnStats last_tick_;
};

/// Adapts `engine` to the update-component interface: the component owns
/// every state field written by atomic blocks plus the status fields
/// (§3.1). TickExecutor's per-worker intent logs (one per lane with one
/// shard, one per shard with several) all feed the same partition-
/// independent admission.
std::unique_ptr<UpdateComponent> MakeTxnComponent(
    TxnEngine* engine, const CompiledProgram* program);

}  // namespace sgl

#endif  // SGL_TXN_TXN_ENGINE_H_
