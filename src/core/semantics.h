#ifndef FTREPAIR_CORE_SEMANTICS_H_
#define FTREPAIR_CORE_SEMANTICS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "constraint/fd.h"
#include "core/repair_types.h"
#include "data/table.h"

namespace ftrepair {

/// The repair semantics: what counts as a violation, what a repair
/// costs, and which solver strategy resolves a component. The set is
/// fixed at compile time; the repair pipeline (core/repairer.cc)
/// branches on the id where the three differ.
enum class SemanticsId : uint8_t {
  /// The paper's cost model: minimize the Eq. 4 distance-weighted
  /// repair cost under fault-tolerant (Eq. 2) violation detection.
  kFtCost = 0,
  /// Soft FDs: each FD carries a confidence c in (0, 1]; violations of
  /// an FD are worth a penalty rate of c/(1-c) per violating pair, and
  /// a repair is kept only where its cost does not exceed the penalty
  /// it discharges. At c = 1 the rate is infinite — every repair is
  /// kept, and the run is decision-identical to ft-cost.
  kSoftFd,
  /// Minimum-change repair: minimize the number of changed cells.
  /// Detection collapses to classical FDs (tau = 0, lhs-only weights)
  /// and every change is priced with the indicator (discrete) metric.
  kCardinality,
};

/// The canonical name of a semantics ("ft-cost", "soft-fd",
/// "cardinality"), as matched by RepairOptions::semantics and the
/// CLI's --semantics flag.
const char* SemanticsName(SemanticsId id);

/// Resolves a semantics name. An unknown name is an InvalidArgument
/// listing every known name on one line — the error surfaced verbatim
/// through Repairer and the CLI.
Result<SemanticsId> ParseSemantics(std::string_view name);

/// Whether Repairer::RepairCFDs accepts `id`. CFD tableau constants
/// are hard constraints, so only ft-cost supports them.
bool SupportsCfds(SemanticsId id);

/// Checks `options` against `fds` before a run under `id` (soft-fd
/// rejects confidence overrides that name no FD or fall outside
/// (0, 1]).
Status ValidateSemantics(SemanticsId id, const RepairOptions& options,
                         const std::vector<FD>& fds);

/// The consistency predicate of `id`: the number of residual
/// violations `table` carries w.r.t. `fds` — FT-violations for
/// ft-cost, FT-violations of the hard (confidence 1) FDs for soft-fd,
/// classical exact violations for cardinality. Zero means the table
/// satisfies the semantics' notion of consistency.
uint64_t CountResidualViolations(SemanticsId id, const Table& table,
                                 const std::vector<FD>& fds,
                                 const RepairOptions& options);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_SEMANTICS_H_
