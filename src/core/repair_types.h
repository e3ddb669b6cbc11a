#ifndef FTREPAIR_CORE_REPAIR_TYPES_H_
#define FTREPAIR_CORE_REPAIR_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "common/status.h"
#include "constraint/fd.h"
#include "core/provenance.h"
#include "data/table.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// Which repair algorithm family the Repairer facade dispatches to.
/// Single-FD components always use the single-FD variant of the family
/// (Expansion-S / Greedy-S); connected components of >= 2 FDs use the
/// multi-FD variant (Expansion-M / Greedy-M / Appro-M).
enum class RepairAlgorithm {
  /// Optimal: Expansion-S (§3.1) / Expansion-M (§4.2).
  kExact,
  /// Joint greedy: Greedy-S (§3.2) / Greedy-M (§4.4).
  kGreedy,
  /// Per-FD greedy + join: Greedy-S / Appro-M (§4.3).
  kApproJoin,
};

const char* RepairAlgorithmName(RepairAlgorithm algorithm);

/// Tunables of the cost-based repair model.
struct RepairOptions {
  /// Which repair semantics the Repairer runs, parsed once per call by
  /// ParseSemantics (core/semantics.h):
  ///   "ft-cost"     -- the paper's min-cost FT-consistent repair (the
  ///                    default; exactly the historical pipeline).
  ///   "soft-fd"     -- confidence-weighted soft FDs: repairs whose
  ///                    cost exceeds the confidence-weighted violation
  ///                    penalty are not worth making and are skipped.
  ///   "cardinality" -- minimum number of changed cells (classical FD
  ///                    semantics, indicator distances; poly-time
  ///                    exact majority solver where it is provably
  ///                    optimal, the regular search elsewhere).
  /// Unknown names fail with InvalidArgument listing the known names.
  std::string semantics = "ft-cost";

  /// Per-FD confidence overrides for the soft-fd semantics, keyed by
  /// FD name; FDs not listed keep FD::confidence(). Values must lie in
  /// (0, 1]. Ignored by the other semantics.
  std::unordered_map<std::string, double> confidence_by_fd;

  /// Eq. 2 weights; the paper's default is w_l = w_r = 0.5.
  double w_l = 0.5;
  double w_r = 0.5;
  /// FT threshold tau used for every FD without an override.
  double default_tau = 0.2;
  /// Per-FD tau overrides, keyed by FD name.
  std::unordered_map<std::string, double> tau_by_fd;
  /// When true, tau is chosen per FD by SuggestThreshold (§2.1 heuristic)
  /// and default_tau/tau_by_fd are ignored.
  bool auto_threshold = false;

  RepairAlgorithm algorithm = RepairAlgorithm::kGreedy;

  /// Use the target tree (§5) to search multi-FD targets. When false,
  /// targets are materialized and scanned linearly (ablation baseline).
  bool use_target_tree = true;

  /// §3 "Tuple grouping". Off (ablation measurements only), a
  /// single-FD component is detected and solved over one vertex per
  /// row; a multi-FD component still groups its phi-patterns.
  bool group_tuples = true;

  /// Expansion safety valves: the exact algorithms stop with
  /// ResourceExhausted when the MIS frontier or the number of per-FD
  /// set combinations exceeds these.
  size_t max_frontier = 20000;
  size_t max_sets_per_fd = 4000;
  size_t max_combinations = 200000;
  /// Eager target-tree size cap; past it, AssignTargets switches to the
  /// lazy-materialization search (core/lazy_targets.h).
  size_t max_tree_nodes = 100'000;
  /// Per-tuple visit budget of the lazy target search.
  uint64_t max_target_visits = 200'000;

  /// Degradation valve. Open (the default): when the exact algorithm
  /// exhausts a safety valve or any layer exhausts the budget, step
  /// down the degradation ladder (exact -> greedy -> appro ->
  /// detect-only) and record each step in RepairStats::degradations.
  /// Closed: any exhaustion is a hard ResourceExhausted error —
  /// best-or-nothing.
  bool fall_back_to_greedy = true;

  /// Greedy-M cross-constraint synchronization weight: cost added per
  /// violation triggered (and subtracted per violation eliminated) in a
  /// connected FD when scoring candidate modifications (§4.4).
  double cross_weight = 0.5;

  /// Count FT-violations before/after into RepairStats. The detection
  /// phase runs either way; off skips only summing its detections and
  /// the after count (a second detection per FD).
  bool compute_violation_stats = true;

  /// Rows known to be correct (verified against master data, say).
  /// Their cells are never modified, and the patterns they carry are
  /// forced into every chosen independent set, so other tuples repair
  /// *toward* them. Two conflicting trusted patterns are both kept
  /// (trust beats independence) and surfaced via
  /// RepairStats::trusted_conflicts.
  std::unordered_set<int> trusted_rows;

  /// Worker threads for the violation-graph builds (see
  /// FTOptions::threads): 1 = serial (the library default, exactly the
  /// historical behavior), 0 = all hardware threads. The repair result
  /// is bit-identical for every setting.
  int threads = 1;

  /// Optional wall-clock/cancellation budget (not owned; must outlive
  /// the repair call). Every algorithm layer polls it at loop
  /// boundaries; on exhaustion the run degrades along the ladder
  /// exact -> greedy -> per-FD appro -> detect-only instead of running
  /// past the deadline, and each step taken is recorded as a
  /// DegradationEvent in RepairStats. Null means unlimited.
  const Budget* budget = nullptr;

  /// Collect full repair provenance into RepairResult::provenance:
  /// per-decision lineage (implicating violation edges, solver rung,
  /// chosen target), per-change cost contributions, and the cost
  /// ledger. Off by default; when off the only overhead is one null
  /// check per apply call, and the repair output (table, changes,
  /// stats) is bit-identical either way.
  bool provenance = false;

  /// Optional memory governance (not owned), shared across every
  /// phase and thread of the run. Structures that grow with input
  /// size charge their growth here; crossing the soft watermark
  /// tightens the caps above and steps down the same degradation
  /// ladder as the wall-clock budget, and the hard watermark yields a
  /// clean ResourceExhausted with partial output. Null means
  /// unlimited. Graphs, target trees and distance tables return their
  /// charge when they die, so the budget must outlive every structure
  /// built with these options.
  const MemoryBudget* memory = nullptr;

  /// Effective tau for `fd`.
  double TauFor(const FD& fd) const;
  /// FTOptions (weights + effective tau) for `fd`.
  FTOptions FTFor(const FD& fd) const;
  /// Effective soft-FD confidence for `fd`: the confidence_by_fd
  /// override when present, FD::confidence() otherwise.
  double ConfidenceFor(const FD& fd) const;
};

/// \brief One step down the degradation ladder.
///
/// Recorded whenever a layer sacrificed optimality or completeness to
/// stay inside the budget or a safety valve: an exact search handed a
/// component to the greedy family, a greedy run stopped early, a
/// target search returned partial assignments, or a component/stat was
/// skipped outright. Callers inspect RepairStats::degradations to see
/// exactly what was sacrificed and why.
/// \brief Stable machine-readable cause of a degradation step.
///
/// `DegradationEvent::reason` carries the raw triggering status
/// message, which embeds run-specific numbers (byte counts, elapsed
/// times) — useless as a log-dedup or alerting key. The cause code
/// names the resource that tripped, is stable across runs, and is
/// what the audit log and the `ftrepair.degradations` metric labels
/// should be grouped by.
enum class DegradationCause : uint8_t {
  kUnknown = 0,
  /// The wall-clock Budget (deadline or cancellation) ran out.
  kDeadline,
  /// Resident memory crossed the soft watermark (valves halved,
  /// exact pre-stepped to greedy).
  kMemorySoft,
  /// The hard memory limit latched; charges fail.
  kMemoryHard,
  /// A search safety valve fired (max_frontier / max_sets_per_fd /
  /// max_combinations / max_target_visits) with both budgets healthy.
  kSearchValve,
};

const char* DegradationCauseName(DegradationCause cause);

/// Classifies the cause of a just-observed exhaustion from the budget
/// states: deadline and hard-memory trips are attributed to their
/// budget, anything else (a valve, a hard cap) to kSearchValve.
DegradationCause ClassifyDegradationCause(const Budget* budget,
                                          const MemoryBudget* memory);

struct DegradationEvent {
  /// FD name (single-FD component), "+"-joined FD names (multi-FD
  /// component), or a pipeline stage like "violation-stats".
  std::string component;
  /// The rung transition, e.g. "exact->greedy", "greedy->appro",
  /// "greedy->partial", "partial-targets", "skip" (detect-only),
  /// "partial-graph".
  std::string stage;
  /// Stable cause code (see DegradationCause) — the dedup/alerting key.
  DegradationCause cause = DegradationCause::kUnknown;
  /// Human-readable cause (usually the triggering status message).
  std::string reason;
  /// Wall-clock ms since the repair call started when this was recorded.
  double elapsed_ms = 0;
};

/// \brief Wall-clock breakdown of one repair call by pipeline phase.
///
/// Populated by the Repairer facade from its own PhaseTimer / Timer
/// objects, which it places beside the tracer's scoped spans
/// (src/common/trace.h) around the same phases; the numbers here and
/// in a --trace-json export measure the same regions but come from
/// separate clocks. All values are milliseconds. A multi-FD
/// component's target phase runs after its cover step, so `solve_ms`
/// and `targets_ms` never overlap (the Appro-M seed inside the exact
/// cover counts as solve time). `detect_ms`, `apply_ms` and
/// `stats_ms` are wall-clock spans of the pipeline. `graph_ms`,
/// `solve_ms` and `targets_ms` are sums over FD-graph components, and
/// components run concurrently at threads > 1, so at threads > 1 the
/// six fields can add up to more than total_ms. At threads 1 they are
/// disjoint and total_ms additionally covers the small glue between
/// them.
struct PhaseTimings {
  /// The detection phase: one detection per FD, every detection the
  /// solve uses, with statistics on or off (with them on, also the
  /// before count's sum).
  double detect_ms = 0;
  /// Component contexts plus indexing the phase's detections into CSR
  /// graphs; never a detection.
  double graph_ms = 0;
  /// Expansion/greedy/appro solving: the single-FD solves and the
  /// multi-FD cover steps.
  double solve_ms = 0;
  /// Target-tree build + best-target searches (AssignTargets).
  double targets_ms = 0;
  /// Writing solutions into the output table.
  double apply_ms = 0;
  /// Post-repair FT-violation recount + repair-cost computation.
  double stats_ms = 0;
  /// End-to-end wall clock of the Repair call.
  double total_ms = 0;

  void Merge(const PhaseTimings& other);
};

/// One repaired cell.
struct CellChange {
  int row = 0;
  int col = 0;
  Value old_value;
  Value new_value;
};

/// Counters reported alongside a repair.
struct RepairStats {
  uint64_t ft_violations_before = 0;
  uint64_t ft_violations_after = 0;
  /// Total repair cost, Eq. 4 (sum of normalized cell distances between
  /// the input and the repaired table, over all columns).
  double repair_cost = 0;
  int cells_changed = 0;
  int tuples_changed = 0;
  /// Exact-algorithm accounting.
  uint64_t expansion_nodes = 0;
  uint64_t expansion_pruned = 0;
  uint64_t combinations_examined = 0;
  uint64_t combinations_pruned = 0;
  /// Target search accounting.
  uint64_t target_nodes_visited = 0;
  uint64_t target_nodes_pruned = 0;
  uint64_t targets_materialized = 0;
  /// Every degradation-ladder step taken, in the order they happened.
  /// Empty iff the requested algorithm ran to completion everywhere.
  /// elapsed_ms values are all measured from the same repair-scoped
  /// clock (started at the Repair call), so they are monotonically
  /// non-decreasing in vector order.
  std::vector<DegradationEvent> degradations;
  /// Per-phase wall-clock breakdown of this repair.
  PhaseTimings phases;
  /// True when some multi-FD component produced an empty target join
  /// and its tuples were left unrepaired.
  bool join_empty = false;
  /// Pairs of trusted patterns that FT-conflict with each other (the
  /// thresholds disagree with the master data).
  uint64_t trusted_conflicts = 0;

  /// True when any degradation-ladder step was taken.
  bool degraded() const { return !degradations.empty(); }

  void Merge(const RepairStats& other);
};

/// Output of Repairer::Repair.
struct RepairResult {
  Table repaired;
  std::vector<CellChange> changes;
  RepairStats stats;
  /// Full decision lineage and cost ledger; collected only when
  /// RepairOptions::provenance is set (enabled == false otherwise).
  RepairProvenance provenance;
};

/// \brief Solution of a single-FD instance over a ViolationGraph.
///
/// `repair_target[i]` is the pattern id pattern `i` is modified to, or
/// -1 when pattern `i` keeps its values (member of the chosen set or
/// isolated). `cost` is the grouped repair cost over the FD's
/// attributes (sum over repaired patterns of count * unit_cost).
struct SingleFDSolution {
  std::vector<int> chosen_set;
  std::vector<int> repair_target;
  double cost = 0;
  uint64_t nodes_expanded = 0;
  uint64_t nodes_pruned = 0;
  /// The solver that produced this solution (stamped by the solver
  /// itself, so post-degradation solutions carry the rung that
  /// actually ran, not the one requested).
  SolverRung rung = SolverRung::kNone;
  /// True when the budget ran out mid-solve: patterns with
  /// repair_target -1 outside the chosen set are left unrepaired
  /// (detect-only remainder) and excluded from `cost`.
  bool truncated = false;
};

/// Writes `solution` into `table`: every row of a repaired pattern gets
/// the target pattern's values on `fd.attrs()`. Appends the individual
/// cell changes to `changes` when non-null.
///
/// Pattern codes decode through `table` itself. That is sound when
/// `table` is the table the graph's patterns were built from or a copy
/// of it, however far it has been repaired since: column dictionaries
/// are append-only, so every code keeps its value. Both apply
/// functions rely on this. Rows in `trusted` (may be
/// null) are never written. When `scope.prov` is non-null, records one
/// RepairDecision per repaired pattern (with its implicating edge set
/// from `graph`) and annotates every appended change with its decision
/// index — recording never alters the writes themselves.
void ApplySingleFDSolution(const ViolationGraph& graph, const FD& fd,
                           const SingleFDSolution& solution, Table* table,
                           std::vector<CellChange>* changes,
                           const std::unordered_set<int>* trusted = nullptr,
                           const ProvenanceScope& scope = {});

/// Marks the patterns that carry at least one row from `trusted_rows`.
std::vector<bool> TrustedPatternMask(
    const std::vector<Pattern>& patterns,
    const std::unordered_set<int>& trusted_rows);

/// \brief Solution of a multi-FD component over Sigma-patterns.
///
/// `targets[i]` is empty when Sigma-pattern `i` keeps its values,
/// otherwise it holds the assignment over `component_cols` as codes in
/// the dictionaries of the table the patterns were built from (as the
/// patterns' own codes are).
struct MultiFDSolution {
  std::vector<int> component_cols;
  /// The component context's Sigma-patterns, shared rather than copied
  /// (AssignTargets): they outlive the context when the solution does.
  std::shared_ptr<const std::vector<Pattern>> sigma_patterns;
  std::vector<std::vector<uint32_t>> targets;
  /// The independent set realized per FD (phi-pattern ids of the
  /// component context's graphs), for inspection and tests.
  std::vector<std::vector<int>> chosen;
  double cost = 0;
  /// Per-Sigma-pattern unit cost of the assigned target (0 for
  /// patterns that keep their values): targets[i] costs
  /// sigma_patterns[i].count() * target_costs[i], and `cost` is their
  /// sum. Always filled by AssignTargets.
  std::vector<double> target_costs;
  /// The solver that produced this solution (see SingleFDSolution).
  SolverRung rung = SolverRung::kNone;
  /// Per-Sigma-pattern implicating violation edges (edge.fd is the
  /// component-local FD index). Filled by AssignTargets only under
  /// RepairOptions::provenance — the component context's graphs are
  /// gone by apply time, so the lineage must ride the solution.
  std::vector<std::vector<ProvenanceEdge>> prov_edges;
  /// True when the budget ran out while assigning targets: Sigma-
  /// patterns with an empty target that are not fully chosen were left
  /// unrepaired (detect-only remainder).
  bool truncated = false;
};

/// Writes `solution` into `table`, appending cell changes. Rows in
/// `trusted` (may be null) are never written. `scope` as in
/// ApplySingleFDSolution; multi-FD decisions take their edge lineage
/// from MultiFDSolution::prov_edges.
void ApplyMultiFDSolution(const MultiFDSolution& solution, Table* table,
                          std::vector<CellChange>* changes,
                          const std::unordered_set<int>* trusted = nullptr,
                          const ProvenanceScope& scope = {});

/// Sorted union of the attrs() of the given FDs.
std::vector<int> ComponentColumns(const std::vector<const FD*>& fds);

/// Eq. 4: total repair cost between two same-schema tables.
double TableRepairCost(const Table& original, const Table& repaired,
                       const DistanceModel& model);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_REPAIR_TYPES_H_
