#ifndef FTREPAIR_DETECT_PATTERN_H_
#define FTREPAIR_DETECT_PATTERN_H_

#include <cstdint>
#include <vector>

#include "constraint/fd.h"
#include "data/table.h"
#include "metric/projection.h"

namespace ftrepair {

/// \brief A distinct projection `t^phi` (or `t^Sigma`) together with the
/// rows carrying it — §3 "Tuple grouping".
///
/// Grouping is an exact transformation: rows with identical projections
/// have identical neighborhoods, so all algorithms operate on patterns
/// and weight edges by multiplicity.
struct Pattern {
  /// Dictionary codes of the projection, one per projection column (in
  /// projection order), in the per-column dictionaries of the table the
  /// pattern was built from. Codes from one table compare like values
  /// (equal code == equal value); a value is read by decoding a code
  /// through that table (DecodeProjection, ProjectionDecoder).
  std::vector<uint32_t> codes;
  /// Ids of the table rows carrying this projection.
  std::vector<int> rows;

  /// Multiplicity m of the grouped vertex.
  int count() const { return static_cast<int>(rows.size()); }
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
/// vectors.
std::vector<Pattern> BuildPatternsForRows(const Table& table,
                                          const std::vector<int>& cols,
                                          const std::vector<int>& row_ids);

/// One pattern per row of `table` (projection onto `cols`), in row
/// order: the no-grouping ablation (`RepairOptions::group_tuples`
/// false).
std::vector<Pattern> BuildRowPatterns(const Table& table,
                                      const std::vector<int>& cols);

/// \brief Decodes projections over `cols` of one table.
///
/// `value(k, code)` is the value `code` stands for in column `cols[k]`.
/// The hot loops of the graph build and the target searches resolve the
/// column dictionaries once, in the constructor, and then decode per
/// distance. The decoder points into `table`'s dictionaries, so `table`
/// must outlive it.
class ProjectionDecoder {
 public:
  ProjectionDecoder() = default;
  ProjectionDecoder(const Table& table, const std::vector<int>& cols);

  const std::vector<int>& cols() const { return cols_; }

  const Value& value(size_t k, uint32_t code) const {
    return dicts_[k]->value(code);
  }

  /// CellDistance between two codes of column cols()[k]. Equal codes
  /// are 0 without decoding — CellDistance of a value with itself is
  /// 0 — so the result is bit-identical to CellDistance on the decoded
  /// values.
  double Distance(const DistanceModel& model, size_t k, uint32_t a,
                  uint32_t b) const {
    return a == b ? 0.0
                  : model.CellDistance(cols_[k], value(k, a), value(k, b));
  }

 private:
  std::vector<int> cols_;
  std::vector<const ColumnDictionary*> dicts_;
};

/// Decodes a code vector laid out over `cols` through `table`'s
/// dictionaries — the value view of a pattern, for the edges (apply,
/// provenance, baselines) and the value-keyed test references.
std::vector<Value> DecodeProjection(const Table& table,
                                    const std::vector<int>& cols,
                                    const std::vector<uint32_t>& codes);

/// Hash key for a projection value vector (boost-style mix-then-combine
/// of the element hashes; see common/hash.h for why a plain XOR fold is
/// not enough). The library keys projections on codes; this hash
/// serves value-keyed references outside it (tests, benchmark checks).
struct ProjectionHash {
  size_t operator()(const std::vector<Value>& v) const;
};

/// Hash key for a projection code vector.
struct CodeVectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_PATTERN_H_
