#include "src/debug/tracer.h"

namespace sgl {

void EffectTracer::Watch(EntityId id) {
  auto it = std::lower_bound(watched_.begin(), watched_.end(), id);
  if (it != watched_.end() && *it == id) return;
  watched_.insert(it, id);
}

void EffectTracer::Unwatch(EntityId id) {
  auto it = std::lower_bound(watched_.begin(), watched_.end(), id);
  if (it != watched_.end() && *it == id) watched_.erase(it);
}

std::vector<TraceRecord> EffectTracer::Records() const {
  std::vector<TraceRecord> out;
  out.reserve(lanes_.size());
  lanes_.ForEachLane([&](const TraceRecord* data, size_t n) {
    out.insert(out.end(), data, data + n);
  });
  // Canonical total order: (tick, phase, order_key) with (target, field,
  // assign_id) breaking the astronomically-rare key collision so the
  // result never depends on which lane recorded what. Transaction-phase
  // records (prov.txn >= 0) sort after the tick's query-phase effect
  // writes — their order keys live in a different namespace
  // ((site << 32) | issuing_row) and must not interleave.
  std::sort(out.begin(), out.end(), TraceRecordCanonicalLess);
  return out;
}

std::vector<TraceRecord> EffectTracer::RecordsFor(EntityId id,
                                                  Tick tick) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& rec : Records()) {
    if (rec.target == id && rec.tick == tick) out.push_back(rec);
  }
  return out;
}

}  // namespace sgl
