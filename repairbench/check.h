// Output check of one repair: the benchmark counts a call as failed
// unless its result is internally consistent and a valid repair of its
// input.
#ifndef REPAIRBENCH_CHECK_H_
#define REPAIRBENCH_CHECK_H_

#include <string>
#include <vector>

#include "constraint/fd.h"
#include "core/repair_types.h"
#include "data/table.h"

namespace repairbench {

/// Returns "" when `result` passes every check, otherwise the first
/// failure:
///  - the recomputed TableRepairCost(input, repaired) equals
///    stats.repair_cost exactly (same model, same tables);
///  - `changes` is exactly the cell diff between input and repaired,
///    with the right old and new values;
///  - every FD projection of a changed row already exists in the input
///    (close-world repair);
///  - when the run did not degrade, an unbudgeted CountFTViolations
///    recount of the repaired table is 0 for every FD. The program's
///    own ft_violations_after is not trusted: a degraded run skips it.
std::string CheckRepair(const ftrepair::Table& input,
                        const std::vector<ftrepair::FD>& fds,
                        const ftrepair::RepairOptions& options,
                        const ftrepair::RepairResult& result);

/// `table` with every cell replaced by its CSV text. The reader types a
/// column numeric only when every cell parses, so one typo turns a
/// dirty column into strings while the clean column stays numeric;
/// scoring compares the text.
ftrepair::Table AsText(const ftrepair::Table& table);

/// Share of all cells of `repaired` whose text equals the clean table's.
double CellAccuracy(const ftrepair::Table& repaired,
                    const ftrepair::Table& clean);

/// Runs one small repair, checks that it passes, then checks that
/// three corrupted copies of it fail: one cell flipped, one change
/// dropped, the cost off by 1e-6. Returns "" on success, otherwise
/// what went wrong.
std::string SelfTestChecker();

}  // namespace repairbench

#endif  // REPAIRBENCH_CHECK_H_
