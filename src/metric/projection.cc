#include "metric/projection.h"

#include <algorithm>
#include <string>

#include "metric/distance.h"

namespace ftrepair {

DistanceModel::DistanceModel(const Table& table) {
  int n = table.num_columns();
  ranges_.assign(static_cast<size_t>(n), 0.0);
  metrics_.assign(static_cast<size_t>(n), ColumnMetric::kAuto);
  for (int c = 0; c < n; ++c) {
    double mn = 0, mx = 0;
    if (table.NumericRange(c, &mn, &mx)) {
      ranges_[static_cast<size_t>(c)] = mx - mn;
    }
  }
}

void DistanceModel::SetColumnMetric(int col, ColumnMetric metric) {
  metrics_[static_cast<size_t>(col)] = metric;
}

double DistanceModel::CellDistance(int col, const Value& a,
                                   const Value& b) const {
  if (a == b) return 0.0;
  if (a.is_null() || b.is_null()) return 1.0;

  ColumnMetric metric = metrics_[static_cast<size_t>(col)];
  if (metric == ColumnMetric::kAuto) {
    metric = (a.is_number() && b.is_number()) ? ColumnMetric::kEuclidean
                                              : ColumnMetric::kEdit;
  }
  switch (metric) {
    case ColumnMetric::kDiscrete:
      return 1.0;
    case ColumnMetric::kEuclidean:
      if (a.is_number() && b.is_number()) {
        return NormalizedEuclideanDistance(a.num(), b.num(),
                                           ranges_[static_cast<size_t>(col)]);
      }
      // A typo turned a numeric cell into text: maximally dirty.
      return 1.0;
    case ColumnMetric::kJaccard:
      return TokenJaccardDistance(a.ToString(), b.ToString());
    case ColumnMetric::kJaroWinkler:
      return JaroWinklerDistance(a.ToString(), b.ToString());
    case ColumnMetric::kQGramCosine:
      return QGramCosineDistance(a.ToString(), b.ToString());
    case ColumnMetric::kEdit:
    case ColumnMetric::kAuto:
      return NormalizedEditDistance(a.ToString(), b.ToString());
  }
  return 1.0;
}

double DistanceModel::CellDistanceCapped(int col, const Value& a,
                                         const Value& b, double cap,
                                         bool* clipped) const {
  if (a == b) return 0.0;
  if (a.is_null() || b.is_null()) return 1.0;

  ColumnMetric metric = metrics_[static_cast<size_t>(col)];
  if (metric == ColumnMetric::kAuto) {
    metric = (a.is_number() && b.is_number()) ? ColumnMetric::kEuclidean
                                              : ColumnMetric::kEdit;
  }
  if (metric != ColumnMetric::kEdit) return CellDistance(col, a, b);

  std::string sa = a.ToString();
  std::string sb = b.ToString();
  size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 0.0;
  // cap >= 1 admits every normalized distance: no point banding.
  if (cap >= 1.0) return NormalizedEditDistance(sa, sb);
  // Largest character count whose normalized distance is <= cap.
  size_t cap_chars =
      cap <= 0 ? 0
               : static_cast<size_t>(cap * static_cast<double>(max_len));
  if (cap_chars >= max_len) return NormalizedEditDistance(sa, sb);
  size_t ed = BoundedEditDistance(sa, sb, cap_chars);
  if (ed <= cap_chars) {
    // Exact: same integer distance, same division as CellDistance.
    return static_cast<double>(ed) / static_cast<double>(max_len);
  }
  if (clipped != nullptr) *clipped = true;
  return static_cast<double>(cap_chars + 1) / static_cast<double>(max_len);
}

bool DistanceModel::MemoPays(int col, const Value& a, const Value& b) const {
  // The memo costs one hash probe (and one insert on a miss). That
  // only beats recomputation when the distance itself is a string
  // kernel; discrete equality and the numeric subtraction are cheaper
  // than the probe, so those columns bypass the memo entirely.
  ColumnMetric metric = metrics_[static_cast<size_t>(col)];
  if (metric == ColumnMetric::kAuto) return !(a.is_number() && b.is_number());
  return metric != ColumnMetric::kDiscrete &&
         metric != ColumnMetric::kEuclidean;
}

double DistanceModel::CellDistanceInterned(int col, const Value& a,
                                           const Value& b, uint32_t ca,
                                           uint32_t cb, size_t slot,
                                           PairDistanceMemo* memo) const {
  if (ca == cb) return 0.0;  // equal codes <=> equal values => dist 0
  if (!MemoPays(col, a, b)) return CellDistance(col, a, b);
  if (const double* hit = memo->Find(slot, ca, cb)) return *hit;
  double d = CellDistance(col, a, b);
  memo->Insert(slot, ca, cb, d);
  return d;
}

double DistanceModel::CellDistanceCappedInterned(
    int col, const Value& a, const Value& b, uint32_t ca, uint32_t cb,
    double cap, bool* clipped, size_t slot, PairDistanceMemo* memo) const {
  if (ca == cb) return 0.0;
  if (!MemoPays(col, a, b)) {
    return CellDistanceCapped(col, a, b, cap, clipped);
  }
  if (const double* hit = memo->Find(slot, ca, cb)) return *hit;
  bool was_clipped = false;
  double d = CellDistanceCapped(col, a, b, cap, &was_clipped);
  if (was_clipped) {
    // A clipped value is a lower bound tied to this cap — not safe to
    // reuse under another cap, so it never enters the memo.
    if (clipped != nullptr) *clipped = true;
    return d;
  }
  memo->Insert(slot, ca, cb, d);
  return d;
}

}  // namespace ftrepair
