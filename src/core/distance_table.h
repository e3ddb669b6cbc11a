#ifndef FTREPAIR_CORE_DISTANCE_TABLE_H_
#define FTREPAIR_CORE_DISTANCE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "data/table.h"
#include "detect/pattern.h"
#include "metric/projection.h"

namespace ftrepair {

/// One query's view of a DistanceTable: `rows[p][i]` is the distance
/// from the query's code at component position p to the i-th code of
/// the search's domain at p.
using DistanceRows = std::vector<const double*>;

/// \brief The dense cell-distance table one target assignment reads
/// (§5.2: RDIST and EDIST are sums of these cells).
///
/// For each component position p the table holds one row per distinct
/// code the queries hold at p, and each row one entry per code of the
/// search's target domain at p (`domains[p]`, ascending). Entry i of
/// query code q's row is ProjectionDecoder::Distance(model, p, q,
/// domains[p][i]) — the same double the searches computed per visit
/// before — so a distance between two distinct values is computed once
/// per assignment, not once per query that meets it.
class DistanceTable {
 public:
  /// Lays out the table (no entry is computed yet): `domains[p]` are
  /// the columns at position p; the queries are the codes of
  /// `patterns[ids[q]]`, laid out over the same positions.
  DistanceTable(std::vector<std::vector<uint32_t>> domains,
                const std::vector<Pattern>& patterns,
                const std::vector<size_t>& ids);

  /// Entries Fill computes, and the bytes they take.
  uint64_t entries() const { return entries_; }
  uint64_t bytes() const { return entries_ * sizeof(double); }

  /// Computes every entry across `threads` (ParallelFor), decoding the
  /// codes through `table`'s dictionaries for the columns `cols`.
  /// Computes nothing and returns false when `budget` or `memory` is
  /// already exhausted or bytes() do not fit `memory` (charged to
  /// MemPhase::kTargets, returned when the table dies); charges no
  /// budget units, and once started always fills the whole table.
  bool Fill(const Table& table, const std::vector<int>& cols,
            const DistanceModel& model, int threads, const Budget* budget,
            const MemoryBudget* memory);

  /// Query q's rows (valid after a successful Fill, while the table
  /// lives).
  DistanceRows Rows(size_t q) const;

 private:
  std::vector<std::vector<uint32_t>> domains_;
  /// row_codes_[p]: distinct query codes at p, ascending (row order).
  std::vector<std::vector<uint32_t>> row_codes_;
  /// query_rows_[q * width + p]: query q's row index at p.
  std::vector<uint32_t> query_rows_;
  /// offset_[p]: first entry of position p's block in values_.
  std::vector<uint64_t> offset_;
  uint64_t entries_ = 0;
  std::vector<double> values_;
  MemoryCharge charge_;
};

/// Index of each of `codes` (laid out over positions) in `domains` (one
/// ascending code list per position); every code must be present.
std::vector<uint32_t> DomainIndices(
    const std::vector<std::vector<uint32_t>>& domains,
    const std::vector<uint32_t>& codes);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_DISTANCE_TABLE_H_
