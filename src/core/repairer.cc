#include "core/repairer.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "constraint/fd_graph.h"
#include "core/appro_multi.h"
#include "core/cardinality.h"
#include "core/expansion_multi.h"
#include "core/expansion_single.h"
#include "core/greedy_multi.h"
#include "core/greedy_single.h"
#include "core/multi_common.h"
#include "core/semantics.h"
#include "core/soft_fd.h"
#include "detect/detector.h"
#include "detect/threshold.h"

namespace ftrepair {

namespace {

// Appends one degradation-ladder event to `stats` WITHOUT the global
// log/metrics/trace side effects. Component solves run concurrently on
// pool threads and write into per-component scratch stats; the global
// emission is deferred to EmitDegradation at merge time so it happens
// in deterministic component order, not scheduling order. elapsed_ms is
// stamped from the shared repair-scoped clock (a plain steady_clock
// read, safe from any thread).
void StageDegradation(RepairStats* stats, const Timer& clock,
                      std::string component, std::string stage,
                      DegradationCause cause, std::string reason) {
  DegradationEvent event;
  event.component = std::move(component);
  event.stage = std::move(stage);
  event.cause = cause;
  event.reason = std::move(reason);
  event.elapsed_ms = clock.Millis();
  stats->degradations.push_back(std::move(event));
}

// The global half of RecordDegradation: one log line, one labeled
// counter bump, one trace instant. Call on the coordinating thread.
void EmitDegradation(const DegradationEvent& event) {
  FTR_LOG(kInfo) << "degradation [" << event.component << "] "
                 << event.stage << " (" << DegradationCauseName(event.cause)
                 << "): " << event.reason;
  Metrics().GetCounter("ftrepair.degradations", "stage", event.stage)
      ->Increment();
  Metrics()
      .GetCounter("ftrepair.degradations_by_cause", "cause",
                  DegradationCauseName(event.cause))
      ->Increment();
  Tracer::Instance().RecordInstant("repair.degradation",
                                   {{"component", event.component},
                                    {"stage", event.stage},
                                    {"reason", event.reason}});
}

// Overload response at the soft memory watermark: the component (or
// CFD tableau unit) named `component` runs with halved search/state
// valves, and an exact solve pre-steps to greedy — trading result
// quality for allocation headroom before the hard limit latches. Each
// measure is staged as a DegradationEvent and emitted at merge time
// like every other ladder step. Callers gate on fall_back_to_greedy:
// with the valve closed the caller asked for exact-or-nothing, and the
// hard watermark is the only memory response.
RepairOptions SoftDegradedOptions(const RepairOptions& opts,
                                  const Timer& repair_clock,
                                  const std::string& component,
                                  RepairStats* stats) {
  RepairOptions tightened = opts;
  tightened.max_frontier = std::max<size_t>(1, opts.max_frontier / 2);
  tightened.max_sets_per_fd = std::max<size_t>(1, opts.max_sets_per_fd / 2);
  tightened.max_combinations =
      std::max<size_t>(1, opts.max_combinations / 2);
  tightened.max_tree_nodes = std::max<size_t>(1, opts.max_tree_nodes / 2);
  tightened.max_target_visits =
      std::max<uint64_t>(1, opts.max_target_visits / 2);
  StageDegradation(stats, repair_clock, component, "soft-valves",
                   DegradationCause::kMemorySoft,
                   "resident memory crossed the soft watermark; search "
                   "and state caps halved");
  if (opts.algorithm == RepairAlgorithm::kExact) {
    tightened.algorithm = RepairAlgorithm::kGreedy;
    StageDegradation(stats, repair_clock, component, "exact->greedy",
                     DegradationCause::kMemorySoft,
                     "resident memory crossed the soft watermark; "
                     "skipping the exact solve");
  }
  return tightened;
}

// Scope guard accumulating its lifetime into one PhaseTimings field.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* acc) : acc_(acc) {}
  ~PhaseTimer() { *acc_ += timer_.Millis(); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* acc_;
  Timer timer_;
};

// Publishes one finished repair's phase breakdown to the process-wide
// metrics registry: a per-phase elapsed-time counter family (in
// microseconds, so the counters stay integral) plus end-state counters
// and the end-to-end latency histogram.
void ExportRepairMetrics(const RepairStats& stats) {
  static Counter* detect_us = Metrics().GetCounter("ftrepair.phase.detect_us");
  static Counter* graph_us = Metrics().GetCounter("ftrepair.phase.graph_us");
  static Counter* solve_us = Metrics().GetCounter("ftrepair.phase.solve_us");
  static Counter* targets_us =
      Metrics().GetCounter("ftrepair.phase.targets_us");
  static Counter* apply_us = Metrics().GetCounter("ftrepair.phase.apply_us");
  static Counter* stats_us = Metrics().GetCounter("ftrepair.phase.stats_us");
  static Counter* runs = Metrics().GetCounter("ftrepair.repair.runs");
  static Counter* degraded_runs =
      Metrics().GetCounter("ftrepair.repair.degraded_runs");
  static Counter* cells = Metrics().GetCounter("ftrepair.repair.cells_changed");
  static Histogram* total_ms =
      Metrics().GetHistogram("ftrepair.repair.total_ms");
  auto us = [](double ms) {
    return static_cast<uint64_t>(ms > 0 ? ms * 1000.0 : 0);
  };
  detect_us->Increment(us(stats.phases.detect_ms));
  graph_us->Increment(us(stats.phases.graph_ms));
  solve_us->Increment(us(stats.phases.solve_ms));
  targets_us->Increment(us(stats.phases.targets_ms));
  apply_us->Increment(us(stats.phases.apply_ms));
  stats_us->Increment(us(stats.phases.stats_ms));
  runs->Increment();
  if (stats.degraded()) degraded_runs->Increment();
  cells->Increment(static_cast<uint64_t>(stats.cells_changed));
  total_ms->Observe(stats.phases.total_ms);
}

// Publishes one finished repair's memory-charge breakdown when a
// MemoryBudget was installed: a per-phase charged-MB histogram family
// (one series per MemPhase label). The resident/peak gauges stay
// current from inside TryCharge, so only the distributions are
// observed here.
void ExportMemoryMetrics(const MemoryBudget& memory) {
  for (size_t p = 0; p < kNumMemPhases; ++p) {
    MemPhase phase = static_cast<MemPhase>(p);
    Metrics()
        .GetHistogram(std::string("ftrepair.memory.phase_charge_mb{phase=") +
                      MemPhaseName(phase) + "}")
        ->Observe(static_cast<double>(memory.charged_bytes(phase)) /
                  (1024.0 * 1024.0));
  }
}

// Observes how far past its deadline a repair returned, once per
// Repairer::Repair that returns under an exhausted limited budget
// (clamped at 0: a cancelled or fault-tripped run may return early).
void ObserveBudgetOvershoot(const Budget* budget) {
  if (budget == nullptr || !budget->limited() || !budget->Exhausted()) {
    return;
  }
  static Histogram* overshoot =
      Metrics().GetHistogram("ftrepair.budget.overshoot_ms");
  overshoot->Observe(
      std::max(0.0, budget->ElapsedMs() - budget->deadline_ms()));
}

// "+"-joined FD names of a component (the FD's own name for a
// singleton).
std::string ComponentName(const std::vector<FD>& named,
                          const std::vector<int>& component) {
  std::string name;
  for (int idx : component) {
    if (!name.empty()) name += "+";
    name += named[static_cast<size_t>(idx)].name();
  }
  return name;
}

// Validated copies of `fds` with guaranteed-unique names (`prefix` +
// index for unnamed ones), so per-FD taus — and the auto-threshold
// heuristic — resolve by name. Confidence rides along for soft-fd.
Result<std::vector<FD>> NamedFDs(const Schema& schema,
                                 const std::vector<FD>& fds,
                                 const char* prefix) {
  FTR_RETURN_NOT_OK(ValidateFDs(schema, fds));
  std::vector<FD> named;
  named.reserve(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].name().empty()) {
      FTR_ASSIGN_OR_RETURN(
          FD fd, FD::Make(fds[i].lhs(), fds[i].rhs(),
                          prefix + std::to_string(i), fds[i].confidence()));
      named.push_back(std::move(fd));
    } else {
      named.push_back(fds[i]);
    }
  }
  return named;
}

// Opens the provenance record both entry points share: the run's
// algorithm and semantics and one ProvenanceFD per (named) FD.
void BeginProvenance(const std::vector<FD>& named, const RepairOptions& opts,
                     SemanticsId semantics, RepairProvenance* prov) {
  prov->enabled = true;
  prov->algorithm = RepairAlgorithmName(opts.algorithm);
  prov->semantics = SemanticsName(semantics);
  for (const FD& fd : named) {
    ProvenanceFD pfd;
    pfd.name = fd.name();
    pfd.lhs = fd.lhs();
    pfd.rhs = fd.rhs();
    pfd.tau = opts.TauFor(fd);
    pfd.w_l = opts.w_l;
    pfd.w_r = opts.w_r;
    pfd.confidence =
        semantics == SemanticsId::kSoftFd ? opts.ConfidenceFor(fd) : 1.0;
    prov->fds.push_back(std::move(pfd));
  }
}

// When `opts->auto_threshold` is set, resolves a tau per FD with the
// §2.1 distance-gap heuristic into opts->tau_by_fd (keyed by the
// guaranteed-unique names of `named`). Shared by Repair and RepairCFDs
// so both entry points honor auto-thresholding identically.
void ResolveAutoThresholds(const Table& table, const std::vector<FD>& named,
                           const DistanceModel& model, RepairOptions* opts) {
  if (!opts->auto_threshold) return;
  ThresholdOptions topt;
  topt.w_l = opts->w_l;
  topt.w_r = opts->w_r;
  topt.fallback = opts->default_tau;
  for (const FD& fd : named) {
    opts->tau_by_fd[fd.name()] = SuggestThreshold(table, fd, model, topt);
  }
}

// Per-run latency of one component's (or one CFD tableau unit's) solve,
// including its graph build. Fed from whichever thread ran it; the
// histogram is atomic.
Histogram* ComponentMsHistogram() {
  static Histogram* component_ms =
      Metrics().GetHistogram("ftrepair.solve.component_ms");
  return component_ms;
}

// Bytes of violation-graph adjacency a multi-FD component freed before
// its target phase, per component.
Counter* GraphBytesReleasedCounter(const std::string& component) {
  return Metrics().GetCounter("ftrepair.solve.graph_bytes_released",
                              "component", component);
}

Gauge* SolveThreadsGauge() {
  static Gauge* solve_threads = Metrics().GetGauge("ftrepair.solve.threads");
  return solve_threads;
}

/// \brief One FD component or CFD tableau unit on its way down the
/// degradation ladder.
///
/// Construction is the resource preamble every unit shares: when the
/// budget or memory is already exhausted the unit does not run — it is
/// staged as "skip" (detect-only: its tuples keep their values) with
/// the fall_back_to_greedy valve open, or fails with `where` with the
/// valve closed — and when the soft memory watermark is latched the
/// unit runs on SoftDegradedOptions. A unit that passes the preamble
/// is observed into ftrepair.solve.component_ms exactly once, when it
/// goes out of scope, whichever rung it stopped on.
///
/// Everything a unit records lands in its private `stats` / `status`,
/// so units run concurrently on pool threads.
class LadderUnit {
 public:
  LadderUnit(const RepairOptions& opts, const Timer& repair_clock,
             std::string name, const char* where, RepairStats* stats,
             Status* status)
      : clock_(repair_clock),
        name_(std::move(name)),
        stats_(stats),
        status_(status) {
    if (BudgetExhausted(opts.budget) || MemExhausted(opts.memory)) {
      Status exhausted = ResourceCheck(opts.budget, opts.memory, where);
      if (opts.fall_back_to_greedy) {
        Stage(opts, "skip", exhausted.message());
      } else {
        *status_ = std::move(exhausted);
      }
      return;
    }
    opts_ = &opts;
    if (opts.fall_back_to_greedy && MemSoftExceeded(opts.memory)) {
      degraded_ = SoftDegradedOptions(opts, clock_, name_, stats_);
      opts_ = &degraded_;
    }
  }
  ~LadderUnit() {
    if (opts_ != nullptr) ComponentMsHistogram()->Observe(timer_.Millis());
  }
  LadderUnit(const LadderUnit&) = delete;
  LadderUnit& operator=(const LadderUnit&) = delete;

  /// False when the preamble stopped the unit.
  bool runs() const { return opts_ != nullptr; }
  const std::string& name() const { return name_; }
  /// The options the unit runs with; only valid when runs().
  const RepairOptions& opts() const { return *opts_; }
  RepairStats* stats() const { return stats_; }

  /// Stages one ladder step of this unit, caused by whichever resource
  /// tripped.
  void Stage(std::string stage, std::string reason) const {
    Stage(*opts_, std::move(stage), std::move(reason));
  }

  /// Records a hard failure; returns false so callers can
  /// `return unit.Fail(...)`.
  bool Fail(Status status) const {
    *status_ = std::move(status);
    return false;
  }

  /// A step truncated by resource exhaustion at `where`: a hard
  /// failure with the valve closed (returns false), otherwise staged as
  /// `stage` and the unit keeps its partial result.
  bool Truncated(const char* where, const char* stage,
                 std::string reason) const {
    if (!opts_->fall_back_to_greedy) {
      return Fail(ResourceCheck(opts_->budget, opts_->memory, where));
    }
    Stage(stage, std::move(reason));
    return true;
  }

  /// The violation-graph truncation check: undetected violations stay
  /// unrepaired. `noun` is "graph" or "graphs".
  bool GraphChecked(bool truncated, const char* noun) const {
    return !truncated ||
           Truncated("violation graph construction", "partial-graph",
                     std::string("resources exhausted while building the "
                                 "violation ") +
                         noun + "; undetected violations stay unrepaired");
  }

 private:
  void Stage(const RepairOptions& opts, std::string stage,
             std::string reason) const {
    StageDegradation(stats_, clock_, name_, std::move(stage),
                     ClassifyDegradationCause(opts.budget, opts.memory),
                     std::move(reason));
  }

  Timer timer_;
  const Timer& clock_;
  std::string name_;
  RepairStats* stats_;
  Status* status_;
  RepairOptions degraded_;
  const RepairOptions* opts_ = nullptr;
};

// The single-FD solve shared by FD singleton components and CFD
// tableau units. The cardinality majority fast path runs first: a
// tractable cardinality component (one LHS block per clique, one cell
// per repaired row) is solved exactly by per-block majority. Wider RHS
// vectors, and every other semantics, step down the ladder exact ->
// greedy -> partial greedy; the greedy rung never fails outright, the
// budget truncates it instead. kGreedy and kApproJoin both land on the
// greedy rung — for a single FD there is nothing to join, so Appro-M's
// per-FD phase *is* Greedy-S (a contractual aliasing, see DESIGN.md
// §4). The soft-fd revert filter runs last. CFD units pass kFtCost.
// Returns false on a hard failure (recorded on `unit`).
bool SolveSingle(const LadderUnit& unit, const ViolationGraph& graph,
                 const FD& fd, SemanticsId semantics,
                 SingleFDSolution* solution) {
  const RepairOptions& opts = unit.opts();
  RepairStats* stats = unit.stats();
  std::vector<bool> forced_storage;
  const std::vector<bool>* forced = nullptr;
  if (!opts.trusted_rows.empty()) {
    forced_storage = TrustedPatternMask(graph.patterns(), opts.trusted_rows);
    forced = &forced_storage;
  }
  bool have_solution = false;
  Timer solve_timer;
  if (semantics == SemanticsId::kCardinality && fd.rhs_size() == 1) {
    *solution =
        SolveCardinalityMajority(graph, forced, &stats->trusted_conflicts);
    have_solution = true;
  } else if (opts.algorithm == RepairAlgorithm::kExact) {
    ExpansionConfig config;
    config.max_frontier = opts.max_frontier;
    config.forced = forced;
    config.budget = opts.budget;
    config.memory = opts.memory;
    auto exact = SolveExpansionSingle(graph, config);
    if (exact.ok()) {
      *solution = std::move(exact).value();
      have_solution = true;
      stats->expansion_nodes += solution->nodes_expanded;
      stats->expansion_pruned += solution->nodes_pruned;
    } else if (exact.status().IsResourceExhausted() &&
               opts.fall_back_to_greedy) {
      unit.Stage("exact->greedy", exact.status().message());
    } else {
      return unit.Fail(exact.status());
    }
  }
  if (!have_solution) {
    *solution = SolveGreedySingle(graph, forced, &stats->trusted_conflicts,
                                  opts.budget, opts.memory);
    if (solution->truncated &&
        !unit.Truncated("greedy cover", "greedy->partial",
                        "resources exhausted while growing the greedy set; "
                        "uncovered patterns stay unrepaired")) {
      return false;
    }
  }
  if (semantics == SemanticsId::kSoftFd) {
    const double confidence = opts.ConfidenceFor(fd);
    if (confidence < 1.0) {
      FilterSingleFDSolutionSoft(graph, SoftFdPenaltyRate(confidence),
                                 solution);
    }
  }
  stats->phases.solve_ms += solve_timer.Millis();
  return true;
}

/// \brief Scratch result of one FD component's solve.
///
/// SolveComponent fills one of these on whatever pool thread claimed
/// the component; nothing in here touches shared repair state, so the
/// coordinating thread can replay-merge outcomes in component order and
/// reproduce the serial RepairResult bit for bit at any thread count.
struct ComponentOutcome {
  /// Hard failure (budget exhausted with the degradation valve closed,
  /// or a non-recoverable solver error): aborts the whole repair.
  Status status = Status::OK();
  /// Which solution below is valid. Both false = component left
  /// unrepaired (skipped or degraded to detect-only).
  bool apply_single = false;
  bool apply_multi = false;
  /// Single-FD component: the graph the solution indexes into and the
  /// FD repaired (points into the caller's `named` vector).
  const FD* fd = nullptr;
  ViolationGraph graph;
  SingleFDSolution single;
  /// Multi-FD component.
  MultiFDSolution multi;
  /// Component-local deltas: graph/solve/targets timings, solver
  /// counters, staged (not yet emitted) degradations, trusted
  /// conflicts. Merged into RepairStats in component order.
  RepairStats stats;
};

// The multi-FD ladder: exact -> greedy -> per-FD appro -> detect-only.
// The ladder runs over the cover steps: each rung hands ResourceExhausted
// down one step (when the fall_back_to_greedy valve is open), and a
// failure on the bottom rung leaves the component unrepaired. Once a
// cover is final, its lineage (under provenance) and the soft-fd
// penalties are read off the graphs, the graphs' edges are freed, and
// the targets are assigned once. A target phase that fails stages
// "skip" directly. On a latched memory budget any other cover would
// fail the same way. On the node cap in the no-tree ablation, Appro-M's
// per-FD sets might join into fewer nodes; that fallback is given up
// on purpose, as the graphs a re-solve needs are already freed.
void SolveMulti(const LadderUnit& unit, ComponentContext* context,
                const std::vector<const FD*>& component_fds,
                const DistanceModel& model, SemanticsId semantics,
                ComponentOutcome* out) {
  const RepairOptions& opts = unit.opts();
  static constexpr const char* kRungs[] = {"exact", "greedy", "appro"};
  int rung = 0;
  switch (opts.algorithm) {
    case RepairAlgorithm::kExact:
      rung = 0;
      break;
    case RepairAlgorithm::kGreedy:
      rung = 1;
      break;
    case RepairAlgorithm::kApproJoin:
      rung = 2;
      break;
  }
  Result<MultiFDCover> cover = Status::Internal("unreachable");
  Timer solve_timer;
  while (rung <= 2) {
    switch (rung) {
      case 0:
        cover = CoverExpansionMulti(*context, model, opts, &out->stats);
        break;
      case 1:
        cover = CoverGreedyMulti(*context, opts, &out->stats);
        break;
      case 2:
        cover = CoverApproMulti(*context, opts, &out->stats);
        break;
    }
    if (cover.ok()) break;
    if (!cover.status().IsResourceExhausted() || !opts.fall_back_to_greedy) {
      unit.Fail(cover.status());
      return;
    }
    unit.Stage(rung < 2 ? std::string(kRungs[rung]) + "->" + kRungs[rung + 1]
                        : "skip",
               cover.status().message());
    ++rung;
  }
  out->stats.phases.solve_ms += solve_timer.Millis();
  if (!cover.ok()) return;  // component left unrepaired

  CaptureCoverLineage(*context, opts, &cover.value());
  std::vector<double> penalties;
  if (semantics == SemanticsId::kSoftFd) {
    // The revert filter only runs on all-soft components: reverting
    // inside a mixed component could strand a hard FD's violations.
    bool all_soft = true;
    std::vector<double> rates;
    rates.reserve(component_fds.size());
    for (const FD* component_fd : component_fds) {
      const double confidence = opts.ConfidenceFor(*component_fd);
      all_soft = all_soft && confidence < 1.0;
      rates.push_back(SoftFdPenaltyRate(confidence));
    }
    if (all_soft) penalties = SoftFdPenalties(*context, rates);
  }
  GraphBytesReleasedCounter(unit.name())
      ->Increment(ReleaseCoverInputs(context));

  Result<MultiFDSolution> solved = AssignCover(
      *context, std::move(cover).value(), model, opts, &out->stats);
  if (!solved.ok()) {
    if (!solved.status().IsResourceExhausted() || !opts.fall_back_to_greedy) {
      unit.Fail(solved.status());
      return;
    }
    unit.Stage("skip", solved.status().message());
    return;  // component left unrepaired
  }
  if (solved.value().truncated &&
      !unit.Truncated("target assignment", "partial-targets",
                      "resources exhausted while assigning targets; "
                      "remaining patterns stay unrepaired")) {
    return;
  }
  out->multi = std::move(solved).value();
  if (!penalties.empty()) FilterMultiFDSolutionSoft(penalties, &out->multi);
  out->apply_multi = true;
}

// Solves one connected FD component (the body of the old serial
// component loop, minus the apply step). Runs concurrently with other
// components: everything it writes lands in `out`, and the shared
// inputs (`table`, `named`, `model`, `opts`, the budget behind
// opts.budget) are either immutable for the duration of the solve
// phase or internally synchronized. `detections` is the detection
// phase's output, one per FD of `named`: the component moves its own
// FDs' entries out (components own disjoint FDs) and indexes them over
// the vertices they were detected on. It never detects.
void SolveComponent(const Table& table, const std::vector<FD>& named,
                    const std::vector<int>& component,
                    const DistanceModel& model, const RepairOptions& opts_in,
                    SemanticsId semantics, const Timer& repair_clock,
                    std::vector<Detection>* detections,
                    ComponentOutcome* out) {
  std::string name = ComponentName(named, component);
  FTR_TRACE_SPAN("repair.solve_component", {{"component", name}});
  LadderUnit unit(opts_in, repair_clock, std::move(name), "repair pipeline",
                  &out->stats, &out->status);
  if (!unit.runs()) return;
  const RepairOptions& opts = unit.opts();
  if (component.size() == 1) {
    const FD& fd = named[static_cast<size_t>(component[0])];
    out->fd = &fd;
    Timer graph_timer;
    out->graph = ViolationGraph::Index(
        BuildVertices(table, fd.attrs(), opts.group_tuples),
        std::move((*detections)[static_cast<size_t>(component[0])]),
        opts.memory);
    out->stats.phases.graph_ms += graph_timer.Millis();
    out->apply_single =
        unit.GraphChecked(out->graph.truncated(), "graph") &&
        SolveSingle(unit, out->graph, fd, semantics, &out->single);
    return;
  }
  std::vector<const FD*> component_fds;
  std::vector<Detection> component_detections;
  for (int idx : component) {
    component_fds.push_back(&named[static_cast<size_t>(idx)]);
    component_detections.push_back(
        std::move((*detections)[static_cast<size_t>(idx)]));
  }
  Timer graph_timer;
  ComponentContext context = BuildComponentContext(
      table, component_fds, opts, std::move(component_detections));
  out->stats.phases.graph_ms += graph_timer.Millis();
  bool graphs_truncated = std::any_of(
      context.graphs.begin(), context.graphs.end(),
      [](const ViolationGraph& graph) { return graph.truncated(); });
  if (!unit.GraphChecked(graphs_truncated, "graphs")) return;
  SolveMulti(unit, &context, component_fds, model, semantics, out);
}

// Replay-merges one unit's outcome, in unit order: surfaces its hard
// failure, emits its staged degradations — elapsed_ms clamped
// monotone, since units finish out of order — and folds its stats
// deltas into `total`.
Status MergeOutcome(const Status& status, RepairStats* unit,
                    RepairStats* total) {
  if (!status.ok()) return status;
  double last_degradation_ms =
      total->degradations.empty() ? 0.0 : total->degradations.back().elapsed_ms;
  for (DegradationEvent& event : unit->degradations) {
    event.elapsed_ms = std::max(event.elapsed_ms, last_degradation_ms);
    last_degradation_ms = event.elapsed_ms;
    EmitDegradation(event);
  }
  total->Merge(*unit);
  return Status::OK();
}

// The finish step both entry points share: change counts, the
// provenance memory fields and cost ledger, the end-to-end time and
// the metrics export.
void FinishRepair(const Table& table, const DistanceModel& model,
                  const RepairOptions& opts, const Timer& repair_clock,
                  RepairResult* result) {
  result->stats.cells_changed = static_cast<int>(result->changes.size());
  std::unordered_set<int> touched;
  for (const CellChange& change : result->changes) touched.insert(change.row);
  result->stats.tuples_changed = static_cast<int>(touched.size());
  if (opts.provenance) {
    RepairProvenance& prov = result->provenance;
    if (opts.memory != nullptr) {
      prov.memory_limited = opts.memory->limited();
      prov.memory_soft_latched = opts.memory->SoftExceeded();
      prov.memory_exhausted = opts.memory->Exhausted();
      prov.memory_peak_bytes = opts.memory->peak_bytes();
    }
    FinalizeLedger(table, model, result);
  }
  result->stats.phases.total_ms = repair_clock.Millis();
  ExportRepairMetrics(result->stats);
  if (opts.memory != nullptr) ExportMemoryMetrics(*opts.memory);
}

// A violation-stats count (`field`) whose detections truncated is a
// lower bound: records a "violation-stats" degradation, `verb` naming
// the pass in its reason, and returns true. Staged and emitted at once
// on the coordinating thread; every event of a run shares `clock`, so
// elapsed_ms stays monotone in record order.
bool CheckViolationStats(const std::vector<Detection>& detections,
                         const RepairOptions& opts, const Timer& clock,
                         const char* verb, const char* field,
                         RepairStats* stats) {
  for (const Detection& detection : detections) {
    if (!detection.truncated) continue;
    StageDegradation(stats, clock, "violation-stats", "partial-graph",
                     ClassifyDegradationCause(opts.budget, opts.memory),
                     std::string("resources exhausted while ") + verb +
                         " FT-violations; " + field + " is a lower bound");
    EmitDegradation(stats->degradations.back());
    return true;
  }
  return false;
}

// The shared FD-repair pipeline behind every semantics: detect,
// decompose into FD-graph components, solve concurrently, replay-merge
// in component order. `semantics` selects the cardinality overrides
// (classical detection, indicator metric, the majority solver on
// tractable components) and the soft-fd revert filter; kFtCost runs
// the paper's pipeline unchanged.
Result<RepairResult> RunRepairPipeline(const Table& table,
                                       const std::vector<FD>& fds,
                                       const RepairOptions& options,
                                       SemanticsId semantics) {
  FTR_ASSIGN_OR_RETURN(std::vector<FD> named,
                       NamedFDs(table.schema(), fds, "__fd"));
  // One clock for the whole call: every DegradationEvent::elapsed_ms
  // and PhaseTimings::total_ms read it, so they are mutually
  // comparable and monotone.
  Timer repair_clock;
  FTR_TRACE_SPAN("repair.total",
                 {{"rows", std::to_string(table.num_rows())},
                  {"fds", std::to_string(fds.size())},
                  {"semantics", SemanticsName(semantics)},
                  {"algorithm", RepairAlgorithmName(options.algorithm)}});

  RepairOptions opts = options;
  if (semantics == SemanticsId::kCardinality) {
    // Cardinality overrides: classical FD detection (a violation is an
    // exact LHS match with any RHS disagreement) and indicator pricing,
    // so repair cost == cells changed. Grouping is forced on — the
    // majority solver reasons over pattern multiplicities.
    opts.w_l = 1.0;
    opts.w_r = 0.0;
    opts.default_tau = 0.0;
    opts.tau_by_fd.clear();
    opts.auto_threshold = false;
    opts.group_tuples = true;
  }
  DistanceModel model(table);
  if (semantics == SemanticsId::kCardinality) {
    for (int c = 0; c < table.num_columns(); ++c) {
      model.SetColumnMetric(c, ColumnMetric::kDiscrete);
    }
  }
  ResolveAutoThresholds(table, named, model, &opts);

  RepairResult result;

  FDGraph fd_graph(named);
  const std::vector<std::vector<int>>& components = fd_graph.Components();

  // Detection phase: each FD once, over the vertices its graph will
  // have. A multi-FD component's phi-patterns are grouped whatever
  // group_tuples says; a single-FD component's are its rows in the
  // ablation. The solve indexes these detections, and the before-count
  // is their sum.
  std::vector<const FD*> named_fds;
  for (const FD& fd : named) named_fds.push_back(&fd);
  std::vector<bool> grouped(named.size(), true);
  for (const std::vector<int>& component : components) {
    if (component.size() == 1) {
      grouped[static_cast<size_t>(component[0])] = opts.group_tuples;
    }
  }
  std::vector<Detection> detections;
  bool stats_exact = opts.compute_violation_stats;
  {
    FTR_TRACE_SPAN("repair.detect");
    PhaseTimer phase(&result.stats.phases.detect_ms);
    detections = DetectFDs(table, named_fds, model, opts, grouped,
                           /*keep=*/true,
                           stats_exact ? &result.stats.ft_violations_before
                                       : nullptr);
    // Short-circuit: with statistics off nothing is checked.
    stats_exact = stats_exact &&
                  !CheckViolationStats(detections, opts, repair_clock,
                                       "counting", "ft_violations_before",
                                       &result.stats);
  }

  if (opts.provenance) {
    RepairProvenance& prov = result.provenance;
    BeginProvenance(named, opts, semantics, &prov);
    prov.violation_stats_computed = opts.compute_violation_stats;
    for (const std::vector<int>& component : components) {
      ProvenanceComponent pc;
      pc.fds = component;
      pc.name = ComponentName(named, component);
      prov.components.push_back(std::move(pc));
    }
  }

  // Solve phase. Components are independent by construction (Theorem
  // 5: they touch disjoint attribute sets and each reads only the
  // input table), so they run concurrently on the shared pool, each
  // writing a private ComponentOutcome. Components keep their inner
  // parallelism (graph builds, candidate scans, target assignment) —
  // ParallelFor nests safely, so idle workers drain into whichever
  // component dominates the critical path.
  int solve_parallelism = 1;
  if (components.size() > 1) {
    solve_parallelism = std::min(ResolveThreads(opts.threads),
                                 static_cast<int>(components.size()));
  }
  SolveThreadsGauge()->Set(solve_parallelism);

  std::vector<ComponentOutcome> outcomes(components.size());
  {
    FTR_TRACE_SPAN("repair.solve",
                   {{"components", std::to_string(components.size())},
                    {"threads", std::to_string(solve_parallelism)}});
    ParallelFor(
        static_cast<int>(components.size()), solve_parallelism, [&](int c) {
          SolveComponent(table, named, components[static_cast<size_t>(c)],
                         model, opts, semantics, repair_clock, &detections,
                         &outcomes[static_cast<size_t>(c)]);
        });
  }
  // Components that skipped never took their detections (the entries
  // the others moved out are empty).
  for (Detection& detection : detections) detection.Release(opts.memory);

  // Replay merge, strictly in component order: degradations are
  // emitted and appended in the order the serial loop would have
  // produced them, stats deltas accumulate in component order, and the
  // apply step writes changes in component order — so RepairResult is
  // bit-identical to the serial run at any thread count. Only apply
  // and what follows read the output table, so it is copied here, not
  // held through detection and the solve.
  result.repaired = table;
  const std::unordered_set<int>* trusted =
      opts.trusted_rows.empty() ? nullptr : &opts.trusted_rows;
  for (size_t c = 0; c < outcomes.size(); ++c) {
    ComponentOutcome& out = outcomes[c];
    FTR_RETURN_NOT_OK(MergeOutcome(out.status, &out.stats, &result.stats));
    ProvenanceScope scope;
    if (opts.provenance) {
      scope.prov = &result.provenance;
      scope.component = static_cast<int>(c);
      scope.fd = out.apply_single ? components[c][0] : -1;
      scope.degradations_before =
          static_cast<int>(result.stats.degradations.size());
    }
    {
      PhaseTimer phase(&result.stats.phases.apply_ms);
      if (out.apply_single) {
        ApplySingleFDSolution(out.graph, *out.fd, out.single,
                              &result.repaired, &result.changes, trusted,
                              scope);
      } else if (out.apply_multi) {
        ApplyMultiFDSolution(out.multi, &result.repaired, &result.changes,
                             trusted, scope);
      }
    }
    // Applied: the graph (and its memory charge) and the solution go.
    out = ComponentOutcome();
  }

  {
    FTR_TRACE_SPAN("repair.stats");
    PhaseTimer phase(&result.stats.phases.stats_ms);
    if (opts.compute_violation_stats) {
      // The "after" count runs under the same opts.budget as the rest
      // of the call, degraded or not: once that budget is spent the
      // recount truncates and ft_violations_after is a lower bound.
      stats_exact &= !CheckViolationStats(
          DetectFDs(result.repaired, named_fds, model, opts, grouped,
                    /*keep=*/false, &result.stats.ft_violations_after),
          opts, repair_clock, "recounting", "ft_violations_after",
          &result.stats);
    }
    result.stats.repair_cost = TableRepairCost(table, result.repaired, model);
  }
  result.provenance.violation_stats_exact = opts.provenance && stats_exact;
  FinishRepair(table, model, opts, repair_clock, &result);
  return result;
}

/// Scratch result of one CFD tableau unit (one (CFD, tableau row)
/// pair). The unit's table writes go straight into the shared output
/// table — units of column-disjoint CFD groups touch disjoint cells —
/// but the change log, stats deltas and staged degradations are
/// private, replay-merged in (CFD, tableau row) order.
struct CfdUnitOutcome {
  Status status = Status::OK();
  std::vector<CellChange> changes;
  RepairStats stats;
  /// Unit-local provenance (decision indices and degradations_before
  /// are unit-relative; the merge rebases them onto the global tables).
  RepairProvenance prov;
};

}  // namespace

Status ValidateFDs(const Schema& schema, const std::vector<FD>& fds) {
  for (const FD& fd : fds) {
    for (int c : fd.attrs()) {
      if (c < 0 || c >= schema.num_columns()) {
        return Status::InvalidArgument(
            "FD references column " + std::to_string(c) +
            " outside the schema (" + std::to_string(schema.num_columns()) +
            " columns)");
      }
    }
  }
  return Status::OK();
}

Result<RepairResult> Repairer::Repair(const Table& table,
                                      const std::vector<FD>& fds) const {
  FTR_ASSIGN_OR_RETURN(SemanticsId semantics,
                       ParseSemantics(options_.semantics));
  FTR_RETURN_NOT_OK(ValidateSemantics(semantics, options_, fds));
  Result<RepairResult> result =
      RunRepairPipeline(table, fds, options_, semantics);
  ObserveBudgetOvershoot(options_.budget);
  return result;
}

Result<RepairResult> Repairer::RepairAppended(
    const Table& table, int first_new_row,
    const std::vector<FD>& fds) const {
  if (first_new_row < 0 || first_new_row > table.num_rows()) {
    return Status::InvalidArgument(
        "first_new_row " + std::to_string(first_new_row) +
        " outside [0, " + std::to_string(table.num_rows()) + "]");
  }
  Repairer incremental(options_);
  for (int r = 0; r < first_new_row; ++r) {
    incremental.options_.trusted_rows.insert(r);
  }
  return incremental.Repair(table, fds);
}

Result<RepairResult> Repairer::RepairCFDs(const Table& table,
                                          const std::vector<CFD>& cfds) const {
  FTR_ASSIGN_OR_RETURN(SemanticsId semantics,
                       ParseSemantics(options_.semantics));
  if (!SupportsCfds(semantics)) {
    return Status::InvalidArgument(
        "semantics '" + std::string(SemanticsName(semantics)) +
        "' does not support CFDs (tableau constants are hard constraints); "
        "use --semantics=ft-cost");
  }
  Timer repair_clock;
  FTR_TRACE_SPAN("repair.cfd_total",
                 {{"rows", std::to_string(table.num_rows())},
                  {"cfds", std::to_string(cfds.size())}});
  RepairResult result;
  result.repaired = table;
  DistanceModel model(table);

  std::vector<FD> embedded;
  embedded.reserve(cfds.size());
  for (const CFD& cfd : cfds) embedded.push_back(cfd.fd());
  FTR_ASSIGN_OR_RETURN(std::vector<FD> named,
                       NamedFDs(table.schema(), embedded, "__cfd"));
  RepairOptions opts = options_;
  ResolveAutoThresholds(table, named, model, &opts);

  // Flatten the tableau units in serial order; outcome slot u belongs
  // to the u-th (CFD, tableau row) pair.
  std::vector<size_t> unit_base(cfds.size(), 0);
  size_t num_units = 0;
  for (size_t i = 0; i < cfds.size(); ++i) {
    unit_base[i] = num_units;
    num_units += cfds[i].tableau().size();
  }
  std::vector<CfdUnitOutcome> outcomes(num_units);

  if (opts.provenance) {
    RepairProvenance& prov = result.provenance;
    BeginProvenance(named, opts, semantics, &prov);
    // One provenance component per (CFD, tableau row) unit, in the
    // same flattened order as `outcomes`.
    for (size_t i = 0; i < cfds.size(); ++i) {
      for (size_t p = 0; p < cfds[i].tableau().size(); ++p) {
        ProvenanceComponent pc;
        pc.name = named[i].name() + "#" + std::to_string(p);
        pc.fds = {static_cast<int>(i)};
        prov.components.push_back(std::move(pc));
      }
    }
  }

  // CFDs whose embedded FDs share an attribute must stay sequential:
  // later tableau rows re-read cells earlier rows wrote (matching,
  // scoping and graph building all run against the evolving output
  // table). Column-disjoint groups, by contrast, never read or write
  // each other's cells, so they run concurrently against the shared
  // output table — the CFD analogue of the FD-component solve fan-out.
  // Units keep opts.threads: ParallelFor nests safely, so a unit's
  // inner graph build can borrow idle workers even under group fan-out.
  FDGraph cfd_graph(named);
  const std::vector<std::vector<int>>& groups = cfd_graph.Components();
  int parallelism = 1;
  if (groups.size() > 1) {
    parallelism = std::min(ResolveThreads(opts.threads),
                           static_cast<int>(groups.size()));
  }
  SolveThreadsGauge()->Set(parallelism);

  const std::unordered_set<int>* trusted =
      opts.trusted_rows.empty() ? nullptr : &opts.trusted_rows;

  auto run_unit = [&](int ci, int p, CfdUnitOutcome* out) {
    const CFD& cfd = cfds[static_cast<size_t>(ci)];
    const FD& fd = cfd.fd();
    const FD& named_fd = named[static_cast<size_t>(ci)];
    LadderUnit unit(opts, repair_clock,
                    named_fd.name() + "#" + std::to_string(p), "CFD repair",
                    &out->stats, &out->status);
    if (!unit.runs()) return;
    const RepairOptions& ropts = unit.opts();
    // 1. Constant violations: pin the RHS constants directly. Trusted
    // rows are never written; a trusted row disagreeing with a tableau
    // constant is a trusted conflict (the master data contradicts the
    // rule), surfaced instead of silently "repaired".
    const int unit_component = static_cast<int>(
        unit_base[static_cast<size_t>(ci)] + static_cast<size_t>(p));
    for (int r : cfd.ConstantViolations(result.repaired, p)) {
      if (trusted != nullptr && trusted->count(r) > 0) {
        ++out->stats.trusted_conflicts;
        continue;
      }
      const PatternRow& pat = cfd.tableau()[static_cast<size_t>(p)];
      int decision_index = -1;
      if (opts.provenance) {
        // One kConstant decision per pinned row: no solver and no
        // violation edges — the tableau constant dictates the target.
        RepairDecision d;
        d.component = unit_component;
        d.fd = ci;
        d.rung = SolverRung::kConstant;
        d.rows = {r};
        d.degradations_before =
            static_cast<int>(out->stats.degradations.size());
        for (int i = fd.lhs_size(); i < fd.num_attrs(); ++i) {
          const auto& constant = pat[static_cast<size_t>(i)];
          if (!constant.has_value()) continue;
          int col = fd.attrs()[static_cast<size_t>(i)];
          const Value& current = result.repaired.cell(r, col);
          d.cols.push_back(col);
          d.source_values.push_back(current);
          d.target_values.push_back(*constant);
          d.unit_cost += model.CellDistance(col, current, *constant);
        }
        decision_index = static_cast<int>(out->prov.decisions.size());
        out->prov.decisions.push_back(std::move(d));
      }
      for (int i = fd.lhs_size(); i < fd.num_attrs(); ++i) {
        const auto& constant = pat[static_cast<size_t>(i)];
        if (!constant.has_value()) continue;
        int col = fd.attrs()[static_cast<size_t>(i)];
        const Value& cell = result.repaired.cell(r, col);
        if (cell != *constant) {
          out->changes.push_back(CellChange{r, col, cell, *constant});
          if (opts.provenance) {
            out->prov.change_decision.push_back(decision_index);
          }
          result.repaired.SetCell(r, col, *constant);
        }
      }
    }
    // 2. Variable part: FT repair restricted to the matching tuples,
    // on the same single-FD ladder as an FD singleton component — with
    // the trusted-row mask threaded through exactly like the FD path.
    std::vector<int> scope = cfd.ApplicableRows(result.repaired, p);
    if (scope.size() < 2) return;
    Timer graph_timer;
    ViolationGraph graph = ViolationGraph::Build(
        BuildPatternsForRows(result.repaired, fd.attrs(), scope),
        result.repaired, fd, model, ropts.FTFor(named_fd), ropts.budget);
    out->stats.phases.graph_ms += graph_timer.Millis();
    SingleFDSolution solution;
    if (!unit.GraphChecked(graph.truncated(), "graph") ||
        !SolveSingle(unit, graph, fd, SemanticsId::kFtCost, &solution)) {
      return;
    }
    ProvenanceScope prov_scope;
    if (opts.provenance) {
      prov_scope.prov = &out->prov;
      prov_scope.component = unit_component;
      prov_scope.fd = ci;
      prov_scope.degradations_before =
          static_cast<int>(out->stats.degradations.size());
    }
    PhaseTimer phase(&out->stats.phases.apply_ms);
    ApplySingleFDSolution(graph, fd, solution, &result.repaired,
                          &out->changes, trusted, prov_scope);
  };

  {
    FTR_TRACE_SPAN("repair.cfd_solve",
                   {{"groups", std::to_string(groups.size())},
                    {"threads", std::to_string(parallelism)}});
    ParallelFor(
        static_cast<int>(groups.size()), parallelism, [&](int g) {
          for (int ci : groups[static_cast<size_t>(g)]) {
            const CFD& cfd = cfds[static_cast<size_t>(ci)];
            int rows = static_cast<int>(cfd.tableau().size());
            for (int p = 0; p < rows; ++p) {
              CfdUnitOutcome* out =
                  &outcomes[unit_base[static_cast<size_t>(ci)] +
                            static_cast<size_t>(p)];
              run_unit(ci, p, out);
              // Serial semantics: a hard failure stops this group's
              // remaining units (the merge below surfaces it).
              if (!out->status.ok()) return;
            }
          }
        });
  }

  // Replay merge in (CFD, tableau row) order: the change log, the
  // degradation sequence and the stats deltas come out exactly as the
  // serial loop would have produced them.
  for (CfdUnitOutcome& out : outcomes) {
    size_t degradations_base = result.stats.degradations.size();
    FTR_RETURN_NOT_OK(MergeOutcome(out.status, &out.stats, &result.stats));
    result.changes.insert(result.changes.end(), out.changes.begin(),
                          out.changes.end());
    if (opts.provenance) {
      // Rebase the unit-local decision indices and audit-stream
      // positions onto the global tables, in unit order.
      RepairProvenance& prov = result.provenance;
      int decision_base = static_cast<int>(prov.decisions.size());
      for (RepairDecision& d : out.prov.decisions) {
        d.degradations_before += static_cast<int>(degradations_base);
        prov.decisions.push_back(std::move(d));
      }
      for (int cd : out.prov.change_decision) {
        prov.change_decision.push_back(cd >= 0 ? cd + decision_base : -1);
      }
    }
  }

  {
    PhaseTimer phase(&result.stats.phases.stats_ms);
    result.stats.repair_cost = TableRepairCost(table, result.repaired, model);
  }
  FinishRepair(table, model, opts, repair_clock, &result);
  return result;
}

}  // namespace ftrepair
