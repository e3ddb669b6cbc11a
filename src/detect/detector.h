#ifndef FTREPAIR_DETECT_DETECTOR_H_
#define FTREPAIR_DETECT_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "constraint/fd.h"
#include "data/table.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// A detected violating tuple pair (row1 < row2).
struct Violation {
  int row1 = 0;
  int row2 = 0;
  /// Weighted projection distance of the pair (0 for classical
  /// violations, which have identical LHS).
  double distance = 0;
};

/// Pair-level work accounting of one finder run, unified between the
/// exact and FT paths (the exact finder historically reported nothing,
/// under-reporting detection work on the tau = 0 path). `generated`
/// counts the pairs the finder materialized for inspection, `filtered`
/// the ones dismissed by pre-kernel checks, `verified` the ones whose
/// violation status was actually confirmed. The exact finder's
/// group-by join proves every enumerated pair violating by
/// construction, so it reports filtered = 0 and verified = generated;
/// the FT finder reports its ViolationGraph's candidate stats (pattern
/// pairs, since detection runs on grouped tuples). In both paths:
/// generated = filtered + verified.
struct PairAccounting {
  uint64_t candidates_generated = 0;
  uint64_t candidates_verified = 0;
  uint64_t candidates_filtered = 0;
};

/// Classical violations of `fd`: equal X, different Y (§2.1).
/// At most `max_pairs` pairs are returned, sorted by (row1, row2);
/// when pairs were dropped to the cap, `clipped` (if non-null) is set.
/// `accounting` (when non-null) receives the unified pair accounting;
/// the same totals feed the ftrepair.detect.candidates_* counters.
std::vector<Violation> FindExactViolations(
    const Table& table, const FD& fd,
    size_t max_pairs = SIZE_MAX, bool* clipped = nullptr,
    PairAccounting* accounting = nullptr);

/// Fault-tolerant violations of `fd` under `opts` (§2.1): differing
/// projections within weighted distance tau. The returned list is
/// always sorted by (row1, row2), clipped or not.
///
/// `budget` (optional, not owned) bounds the underlying graph build;
/// on exhaustion the pairs found so far are returned and `truncated`
/// (when non-null) is set — a sound-but-incomplete violation list.
/// `clipped` (when non-null) reports the distinct condition that more
/// than `max_pairs` pairs existed and the excess was dropped.
std::vector<Violation> FindFTViolations(
    const Table& table, const FD& fd, const DistanceModel& model,
    const FTOptions& opts, size_t max_pairs = SIZE_MAX,
    const Budget* budget = nullptr, bool* truncated = nullptr,
    bool* clipped = nullptr, PairAccounting* accounting = nullptr);

/// D |= fd in the classical semantics.
bool IsConsistent(const Table& table, const FD& fd);

/// D |= fd for every fd in `fds`.
bool IsConsistent(const Table& table, const std::vector<FD>& fds);

/// D |=_FT fd (no FT-violations) under `opts`.
bool IsFTConsistent(const Table& table, const FD& fd,
                    const DistanceModel& model, const FTOptions& opts);

/// D |=_FT every fd in `fds`.
bool IsFTConsistent(const Table& table, const std::vector<FD>& fds,
                    const DistanceModel& model, const FTOptions& opts);

/// Number of classical violating pairs (exact count, computed from
/// equivalence-class sizes, never materializing pairs).
uint64_t CountExactViolations(const Table& table, const FD& fd);

/// Number of FT-violating tuple pairs: the sum over the grouped
/// graph's edges (u, v) of count(u) * count(v). Tuples with identical
/// projections share a pattern and never count (an FT-violation needs
/// differing projections). With a `budget` that runs out mid-build the
/// graph is truncated and the count is a lower bound (`truncated`
/// reports that, when non-null).
uint64_t CountFTViolations(const Table& table, const FD& fd,
                           const DistanceModel& model, const FTOptions& opts,
                           const Budget* budget = nullptr,
                           bool* truncated = nullptr);

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_DETECTOR_H_
