#ifndef FTREPAIR_DETECT_PATTERN_H_
#define FTREPAIR_DETECT_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "constraint/fd.h"
#include "data/table.h"

namespace ftrepair {

/// \brief A distinct projection `t^phi` (or `t^Sigma`) together with the
/// rows carrying it — §3 "Tuple grouping".
///
/// Grouping is an exact transformation: rows with identical projections
/// have identical neighborhoods, so all algorithms operate on patterns
/// and weight edges by multiplicity.
struct Pattern {
  /// Projected values, one per projection column (in projection order).
  std::vector<Value> values;
  /// Dictionary codes of `values` in the source table's per-column
  /// dictionaries (same layout as `values`). Every projection key in
  /// detect and the multi-FD solvers is a code vector, so patterns fed
  /// to them must carry codes (the builders below always fill them).
  /// Codes from the same table compare like values: equal code ==
  /// equal value.
  std::vector<uint32_t> codes;
  /// Ids of the table rows carrying this projection.
  std::vector<int> rows;

  /// Multiplicity m of the grouped vertex.
  int count() const { return static_cast<int>(rows.size()); }

  /// Debug rendering "(v1, v2, ...) x count".
  std::string ToString() const;
};

/// Groups all rows of `table` by their projection onto `cols`.
/// Patterns are ordered by first row occurrence (deterministic).
std::vector<Pattern> BuildPatterns(const Table& table,
                                   const std::vector<int>& cols);

/// Same, restricted to `row_ids` (used by CFD scopes).
///
/// Rows are grouped by their code vectors. Interning maps equal values
/// to equal codes and distinct values to distinct codes, so this is the
/// same partition (and first-occurrence order) as grouping by value
/// vectors; each pattern's values are decoded from its codes.
std::vector<Pattern> BuildPatternsForRows(const Table& table,
                                          const std::vector<int>& cols,
                                          const std::vector<int>& row_ids);

/// One pattern per row of `table` (projection onto `cols`), in row
/// order: the no-grouping ablation (`RepairOptions::group_tuples`
/// false).
std::vector<Pattern> BuildRowPatterns(const Table& table,
                                      const std::vector<int>& cols);

/// Hash key for a projection value vector (boost-style mix-then-combine
/// of the element hashes; see common/hash.h for why a plain XOR fold is
/// not enough). The library keys projections on codes; this hash
/// serves the value-keyed reference implementations in the tests.
struct ProjectionHash {
  size_t operator()(const std::vector<Value>& v) const;
};

/// Hash key for a projection code vector.
struct CodeVectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_PATTERN_H_
