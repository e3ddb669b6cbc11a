#include "baseline/equivalence.h"

#include "detect/pattern.h"

namespace ftrepair {

std::vector<LhsClass> BuildLhsClasses(const Table& table, const FD& fd) {
  std::vector<LhsClass> out;
  for (Pattern& lhs_group : BuildPatterns(table, fd.lhs())) {
    LhsClass cls;
    cls.lhs_values = DecodeProjection(table, fd.lhs(), lhs_group.codes);
    cls.rows = std::move(lhs_group.rows);
    for (Pattern& rhs_group :
         BuildPatternsForRows(table, fd.rhs(), cls.rows)) {
      cls.rhs_values.push_back(
          DecodeProjection(table, fd.rhs(), rhs_group.codes));
      cls.rhs_rows.push_back(std::move(rhs_group.rows));
    }
    out.push_back(std::move(cls));
  }
  return out;
}

size_t MajorityRhs(const LhsClass& lhs_class) {
  size_t best = 0;
  for (size_t i = 1; i < lhs_class.rhs_values.size(); ++i) {
    size_t best_count = lhs_class.rhs_rows[best].size();
    size_t count = lhs_class.rhs_rows[i].size();
    if (count > best_count ||
        (count == best_count &&
         lhs_class.rhs_values[i] < lhs_class.rhs_values[best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace ftrepair
