// Effect tracing records (§3.3: "developers should be able to select an
// individual NPC and view the effects assigned to it").
//
// When a tracer is attached (src/debug/tracer.h), every effect assignment
// (vectorized or scalar path, and every committed transaction write)
// reports one TraceRecord: (target, field, contribution, source
// assignment, order key, provenance). The executor checks one pointer when
// no tracer is attached, so tracing is pay-as-you-go.
//
// TraceRecord is trivially copyable — the contribution is a kind tag plus
// an unboxed double/bool/ref payload, never a boxed Value — so appending
// to a tracer lane is a plain store and draining a lane is a memcpy. The
// engine never traces a set-valued contribution: set inserts are traced
// element-wise as ref contributions.

#ifndef SGL_DEBUG_TRACE_H_
#define SGL_DEBUG_TRACE_H_

#include <type_traits>

#include "src/common/types.h"
#include "src/common/value.h"

namespace sgl {

/// Provenance tag attached to every effect-assignment event: which join
/// site emitted the write, from which shard, reading which source rows,
/// and — for transaction-resolved writes — which intent committed it.
///
/// `site` is -1 for plan-level (non-site) effect ops. `txn` is -1 for
/// query-phase effect writes and the intent order key
/// ((site_id << 32) | issuing_row) for writes applied at transaction
/// admission. `src_shard` is attribution of the emitting worker's shard
/// (always 0 in unsharded runs) — topology metadata, not part of the
/// deterministic causal content of a record.
struct EffectProv {
  int32_t site = -1;
  int32_t src_shard = 0;
  EntityId src_outer = kNullEntity;
  EntityId src_inner = kNullEntity;
  int64_t txn = -1;
};

/// A traced contribution: number, bool or ref, unboxed.
struct TraceValue {
  ValueKind kind = ValueKind::kNumber;
  union {
    double num = 0.0;
    bool b;
    EntityId ref;
  };

  static TraceValue Number(double d) {
    TraceValue v;
    v.num = d;
    return v;
  }
  static TraceValue Bool(bool x) {
    TraceValue v;
    v.kind = ValueKind::kBool;
    v.b = x;
    return v;
  }
  static TraceValue Ref(EntityId id) {
    TraceValue v;
    v.kind = ValueKind::kRef;
    v.ref = id;
    return v;
  }

  double AsNumber() const {
    SGL_CHECK(kind == ValueKind::kNumber);
    return num;
  }
  /// The contribution as a boxed Value (off the record path).
  Value ToValue() const {
    switch (kind) {
      case ValueKind::kBool: return Value::Bool(b);
      case ValueKind::kRef: return Value::Ref(ref);
      default: return Value::Number(num);
    }
  }
};

/// One recorded effect assignment.
struct TraceRecord {
  Tick tick = 0;
  EntityId target = kNullEntity;
  ClassId target_cls = kInvalidClass;
  FieldIdx field = kInvalidField;
  int assign_id = 0;
  /// The target's row when the write landed: a lookup hint for resolving
  /// after-values at capture, which checks it against the table's id
  /// column first (rows move under shard migration). Not record content.
  RowIdx target_row = kInvalidRow;
  uint64_t order_key = 0;
  TraceValue value;
  EffectProv prov;
};
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "tracer lanes append and drain TraceRecords by memcpy");

/// Canonical record order: (tick, phase [query < txn], order_key, target,
/// field, assign_id). Query-phase ⊕ keys and transaction intent keys live
/// in different namespaces, so the phase discriminator keeps them from
/// interleaving. Used at read time only — `EffectTracer::Records()` and
/// the flight recorder's provenance-tail serializer; nothing sorts on the
/// tick.
inline bool TraceRecordCanonicalLess(const TraceRecord& a,
                                     const TraceRecord& b) {
  if (a.tick != b.tick) return a.tick < b.tick;
  const int ap = a.prov.txn >= 0 ? 1 : 0;
  const int bp = b.prov.txn >= 0 ? 1 : 0;
  if (ap != bp) return ap < bp;
  if (a.order_key != b.order_key) return a.order_key < b.order_key;
  if (a.target != b.target) return a.target < b.target;
  if (a.field != b.field) return a.field < b.field;
  return a.assign_id < b.assign_id;
}

}  // namespace sgl

#endif  // SGL_DEBUG_TRACE_H_
