#ifndef FTREPAIR_METRIC_PROJECTION_H_
#define FTREPAIR_METRIC_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "data/table.h"

namespace ftrepair {

/// \brief Memo of *exact* cell distances keyed on (slot, code, code).
///
/// `slot` is a caller-chosen dense index (the graph build uses the FD
/// attribute position); the code pair is the two cells' dictionary
/// codes in that column. Symmetric: (a, b) and (b, a) share an entry,
/// which is sound because every column metric is symmetric.
///
/// Storage is a per-slot open-addressing table (linear probing,
/// power-of-two capacity). The packed key `(hi << 32) | lo` is always
/// nonzero — equal codes short-circuit before the memo, so hi >= 1 —
/// which makes 0 a safe empty sentinel and keeps a probe to one mix,
/// one mask, and (almost always) one cache line. Slots can be disabled
/// (`SetSlotEnabled`): a disabled slot never hits and never stores,
/// turning both calls into a single branch. Callers disable slots whose
/// code pairs are too distinct to repeat, where a probe is pure loss.
///
/// Only exact distances may be inserted — never a clipped lower bound
/// from the capped kernel. On a hit the caller may substitute the
/// memoized exact value wherever it would otherwise have computed a
/// capped one: a capped result is either already exact or only ever
/// compared against a threshold that the exact value decides
/// identically (see PERFORMANCE.md, "Dictionary-join equivalence").
class PairDistanceMemo {
 public:
  explicit PairDistanceMemo(size_t num_slots) : slots_(num_slots) {}

  /// Turns one slot on or off (all slots start enabled). Disabling
  /// never changes emitted distances — it only forfeits reuse.
  void SetSlotEnabled(size_t slot, bool enabled) {
    slots_[slot].enabled = enabled;
  }

  /// The memoized exact distance, or nullptr when absent.
  const double* Find(size_t slot, uint32_t a, uint32_t b) const {
    const Slot& s = slots_[slot];
    if (!s.enabled || s.size == 0) return nullptr;
    uint64_t key = Key(a, b);
    size_t mask = s.keys.size() - 1;
    for (size_t i = HashMix64(key) & mask;; i = (i + 1) & mask) {
      if (s.keys[i] == key) return &s.vals[i];
      if (s.keys[i] == 0) return nullptr;
    }
  }

  /// Records an exact distance (callers must never pass clipped ones).
  void Insert(size_t slot, uint32_t a, uint32_t b, double d) {
    Slot& s = slots_[slot];
    if (!s.enabled) return;
    if (s.keys.empty() || s.size * 4 >= s.keys.size() * 3) Grow(&s);
    uint64_t key = Key(a, b);
    size_t mask = s.keys.size() - 1;
    for (size_t i = HashMix64(key) & mask;; i = (i + 1) & mask) {
      if (s.keys[i] == key) return;  // already memoized (same exact d)
      if (s.keys[i] == 0) {
        s.keys[i] = key;
        s.vals[i] = d;
        ++s.size;
        return;
      }
    }
  }

 private:
  struct Slot {
    std::vector<uint64_t> keys;  // 0 = empty (packed keys are nonzero)
    std::vector<double> vals;
    size_t size = 0;
    bool enabled = true;
  };

  static uint64_t Key(uint32_t a, uint32_t b) {
    uint64_t lo = a < b ? a : b;
    uint64_t hi = a < b ? b : a;
    return (hi << 32) | lo;
  }

  static void Grow(Slot* s) {
    size_t cap = s->keys.empty() ? 64 : s->keys.size() * 2;
    std::vector<uint64_t> keys(cap, 0);
    std::vector<double> vals(cap, 0.0);
    size_t mask = cap - 1;
    for (size_t i = 0; i < s->keys.size(); ++i) {
      uint64_t key = s->keys[i];
      if (key == 0) continue;
      size_t j = HashMix64(key) & mask;
      while (keys[j] != 0) j = (j + 1) & mask;
      keys[j] = key;
      vals[j] = s->vals[i];
    }
    s->keys = std::move(keys);
    s->vals = std::move(vals);
  }

  std::vector<Slot> slots_;
};

/// Per-column distance function choice. kAuto resolves to edit distance
/// for string columns and range-normalized Euclidean for numeric ones,
/// the paper's defaults (Eq. 1).
enum class ColumnMetric {
  kAuto,
  kEdit,
  kEuclidean,
  kJaccard,
  kJaroWinkler,
  kQGramCosine,
  kDiscrete,
};

/// \brief Normalized per-attribute distances over a fixed table schema.
///
/// A DistanceModel snapshots the numeric range of every column of the
/// *original dirty* table (used to normalize Euclidean distances) and
/// evaluates `CellDistance`, dist(t1[A], t2[A]) in [0, 1] (Eq. 1). The
/// Eq. 2 / Eq. 3 sums over an FD's attributes are
/// `ViolationGraph::ProjDistance` / `UnitCost`.
///
/// The model is immutable after construction and shared by detection,
/// repair and evaluation so every component prices a change identically.
class DistanceModel {
 public:
  explicit DistanceModel(const Table& table);

  /// Overrides the metric for one column (defaults are kAuto).
  void SetColumnMetric(int col, ColumnMetric metric);

  /// Normalized distance between two cell values of column `col`.
  double CellDistance(int col, const Value& a, const Value& b) const;

  /// CellDistance with an early-exit budget for the edit-distance
  /// path. `cap` is the largest distance the caller still cares about
  /// (in normalized [0, 1] units). When the true distance is <= the
  /// character cap derived from it, the returned value is bit-identical
  /// to CellDistance. Otherwise returns a *lower bound* on the true
  /// distance and sets `*clipped = true` — the caller may only use a
  /// clipped result to reject, never as the exact distance. Metrics
  /// other than edit distance have no bounded kernel and always return
  /// the exact CellDistance with `*clipped` untouched.
  double CellDistanceCapped(int col, const Value& a, const Value& b,
                            double cap, bool* clipped) const;

  /// CellDistance for two cells known by dictionary code. Equal codes
  /// short-circuit to 0 without touching the values (interning makes
  /// equal codes equal values); otherwise the memo is consulted and,
  /// on a miss, filled with the freshly computed exact distance.
  /// `slot` indexes the memo (callers use the FD attribute position).
  /// Bit-identical to CellDistance(col, a, b) in every case.
  double CellDistanceInterned(int col, const Value& a, const Value& b,
                              uint32_t ca, uint32_t cb, size_t slot,
                              PairDistanceMemo* memo) const;

  /// CellDistanceCapped on coded cells. A memo hit returns the exact
  /// distance with `*clipped` untouched — substituting exact for
  /// capped is sound because an unclipped capped result *is* the exact
  /// distance and a clipped one is only ever used to reject against a
  /// threshold the exact value rejects identically. A miss runs the
  /// capped kernel and memoizes only when the result was not clipped.
  double CellDistanceCappedInterned(int col, const Value& a, const Value& b,
                                    uint32_t ca, uint32_t cb, double cap,
                                    bool* clipped, size_t slot,
                                    PairDistanceMemo* memo) const;

  /// Numeric range (max - min) of column `col`; 0 when unknown.
  double Range(int col) const { return ranges_[static_cast<size_t>(col)]; }

  /// Configured metric of column `col` (kAuto unless overridden).
  /// kAuto still resolves per value pair inside CellDistance; callers
  /// that need pair-independent guarantees (the blocking index) must
  /// combine this with knowledge of the column's value types.
  ColumnMetric column_metric(int col) const {
    return metrics_[static_cast<size_t>(col)];
  }

 private:
  /// True when `col`'s effective metric is a string kernel — the only
  /// case where a memo probe is cheaper than recomputation.
  bool MemoPays(int col, const Value& a, const Value& b) const;

  std::vector<double> ranges_;
  std::vector<ColumnMetric> metrics_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_METRIC_PROJECTION_H_
