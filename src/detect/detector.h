#ifndef FTREPAIR_DETECT_DETECTOR_H_
#define FTREPAIR_DETECT_DETECTOR_H_

#include <cstdint>

#include "common/budget.h"
#include "constraint/fd.h"
#include "data/table.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// Number of classical violating pairs (exact count, computed from
/// equivalence-class sizes, never materializing pairs).
uint64_t CountExactViolations(const Table& table, const FD& fd);

/// Number of FT-violating tuple pairs: the sum over the grouped
/// violations (u, v) of count(u) * count(v), read off one detection
/// (ViolationGraph::Detect) without building an adjacency. Tuples with
/// identical projections share a pattern and never count (an
/// FT-violation needs differing projections). With a `budget` that
/// runs out mid-detection the count is a lower bound (`truncated`
/// reports that, when non-null). The detection's memory charge is
/// returned before the call returns.
uint64_t CountFTViolations(const Table& table, const FD& fd,
                           const DistanceModel& model, const FTOptions& opts,
                           const Budget* budget = nullptr,
                           bool* truncated = nullptr);

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_DETECTOR_H_
