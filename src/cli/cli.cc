#include "cli/cli.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/trace.h"
#include "constraint/fd_parser.h"
#include "core/provenance.h"
#include "core/repairer.h"
#include "core/semantics.h"
#include "data/csv.h"
#include "detect/detector.h"
#include "detect/threshold.h"
#include "eval/profile.h"
#include "eval/quality.h"
#include "eval/report.h"

namespace ftrepair {

std::string CliUsage() {
  return R"(ftrepair — cost-based data repairing with fault-tolerant FD violations

Usage:
  ftrepair --input DIRTY.csv --fds FDS.txt [options]

Required:
  --input PATH        dirty relation (CSV with header)
  --fds PATH          FD list, one per line: "name: A, B -> C"

Options:
  --output PATH       write the repaired relation as CSV
  --changes PATH      write the cell changes as CSV (row, column, old, new)
  --truth PATH        ground-truth CSV; prints precision/recall
  --algorithm NAME    exact | greedy | appro        (default: greedy)
  --semantics NAME    ft-cost | soft-fd | cardinality: what counts as a
                      violation and what a repair minimizes (the Eq. 4
                      cost, the confidence-weighted cost, or the number
                      of changed cells)             (default: ft-cost)
  --confidence NAME=C soft-fd: override one FD's confidence, C in
                      (0, 1]; 1 = hard (repeatable). FDs can also carry
                      "@ C" in the --fds file
  --cfds PATH         repair against CFDs instead of --fds; one per
                      line: "name: FD | lhsvals -> rhsvals | ..." with
                      '_' as the tableau wildcard (ft-cost only)
  --tau VALUE         fault-tolerance threshold     (default: 0.4)
  --tau-fd NAME=V     per-FD threshold override (repeatable)
  --wl VALUE          Eq. 2 LHS weight              (default: 0.7)
  --wr VALUE          Eq. 2 RHS weight              (default: 0.3)
  --threads N         worker threads for violation detection and the
                      per-component solve phase; 0 = all hardware
                      threads, 1 = serial; any setting yields
                      identical results             (default: 0)
  --trusted-rows LIST comma-separated 0-based row indices known correct
                      (master data): never modified, anchor the repair
  --auto-threshold    pick tau per FD from the distance-gap heuristic
  --deadline-ms MS    wall-clock budget; past it the repair degrades
                      gracefully (exact -> greedy -> partial) instead of
                      running long                  (default: unlimited)
  --memory-budget-mb MB
                      charged-byte budget for every input-sized
                      structure (see docs/ROBUSTNESS.md); past the soft
                      watermark the repair degrades, past the hard
                      limit it stops cleanly        (default: unlimited)
  --on-bad-row MODE   strict | skip | pad: fail on, drop, or salvage
                      malformed input rows          (default: strict)
  --verbose           print every cell change
  --summary           print changes aggregated by (column, old, new)
  --help              this text

Observability:
  --explain-json PATH write a versioned machine-readable explain report:
                      every repair decision with its implicating
                      FT-violation edges, every cell change with its
                      cost contribution, and the reconciling ledger
  --audit-log PATH    write an NDJSON audit stream: one record per
                      decision, degradation and watermark crossing, in
                      repair order
  --explain ROW,COL   print a human-readable "why" for one cell (which
                      FD implicated it, which solver rung repaired it,
                      what it cost)
  --metrics-json PATH write a JSON snapshot of every pipeline metric
                      (counters, gauges, latency histograms)
  --trace-json PATH   record scoped spans and write Chrome trace_event
                      JSON; load in chrome://tracing or ui.perfetto.dev
  --log-level LEVEL   debug | info | warn | error   (default: warn, or
                      the FTREPAIR_LOG_LEVEL environment variable)

Every value-taking flag also accepts the --flag=VALUE spelling.

Modes (no repair performed):
  --profile           print per-column profiles of --input
  --discover          discover FDs on --input, vet their thresholds and
                      print a spec usable as a --fds file
  --max-lhs N         discovery: max LHS arity            (default: 1)
  --g3 VALUE          discovery: max g3 error             (default: 0.05)
)";
}

namespace {

Result<double> ParsePositiveDouble(const std::string& flag,
                                   const std::string& text) {
  double value = 0;
  if (!ParseDouble(text, &value) || value < 0) {
    return Status::InvalidArgument(flag + " expects a non-negative number, got '" +
                                   text + "'");
  }
  return value;
}

}  // namespace

Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions options;
  options.repair.w_l = 0.7;
  options.repair.w_r = 0.3;
  options.repair.default_tau = 0.4;
  // The CLI defaults to all hardware threads (the library default is
  // serial); results are identical either way, so this is safe.
  options.repair.threads = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    // Split "--flag=value" so every value-taking flag accepts both
    // spellings (the split is on the *first* '=', so --tau-fd=NAME=V
    // still carries NAME=V as its value).
    std::string arg = args[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline_value = true;
      }
    }
    auto next = [&]() -> Result<std::string> {
      if (has_inline_value) {
        has_inline_value = false;
        return inline_value;
      }
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(arg + " expects a value");
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;  // usage is not an error; skip required-flag checks
    } else if (arg == "--input") {
      FTR_ASSIGN_OR_RETURN(options.input_path, next());
    } else if (arg == "--fds") {
      FTR_ASSIGN_OR_RETURN(options.fds_path, next());
    } else if (arg == "--output") {
      FTR_ASSIGN_OR_RETURN(options.output_path, next());
    } else if (arg == "--changes") {
      FTR_ASSIGN_OR_RETURN(options.changes_path, next());
    } else if (arg == "--truth") {
      FTR_ASSIGN_OR_RETURN(options.truth_path, next());
    } else if (arg == "--algorithm") {
      FTR_ASSIGN_OR_RETURN(std::string name, next());
      if (name == "exact") {
        options.repair.algorithm = RepairAlgorithm::kExact;
      } else if (name == "greedy") {
        options.repair.algorithm = RepairAlgorithm::kGreedy;
      } else if (name == "appro") {
        options.repair.algorithm = RepairAlgorithm::kApproJoin;
      } else {
        return Status::InvalidArgument("unknown --algorithm '" + name +
                                       "' (exact | greedy | appro)");
      }
    } else if (arg == "--semantics") {
      FTR_ASSIGN_OR_RETURN(std::string name, next());
      // Resolve eagerly so a typo fails here with the mode list instead
      // of deep inside the repair run.
      FTR_RETURN_NOT_OK(ParseSemantics(name).status());
      options.repair.semantics = name;
    } else if (arg == "--confidence") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      size_t eq = text.find('=');
      double confidence = 0;
      if (eq == std::string::npos || eq == 0 ||
          !ParseDouble(std::string_view(text).substr(eq + 1), &confidence) ||
          !(confidence > 0.0 && confidence <= 1.0)) {
        return Status::InvalidArgument(
            "--confidence expects NAME=VALUE with VALUE in (0, 1], got '" +
            text + "'");
      }
      options.repair.confidence_by_fd[text.substr(0, eq)] = confidence;
    } else if (arg == "--cfds") {
      FTR_ASSIGN_OR_RETURN(options.cfds_path, next());
    } else if (arg == "--tau") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.repair.default_tau,
                           ParsePositiveDouble(arg, text));
    } else if (arg == "--tau-fd") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      size_t eq = text.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("--tau-fd expects NAME=VALUE");
      }
      FTR_ASSIGN_OR_RETURN(double tau,
                           ParsePositiveDouble(arg, text.substr(eq + 1)));
      options.repair.tau_by_fd[text.substr(0, eq)] = tau;
    } else if (arg == "--wl") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.repair.w_l,
                           ParsePositiveDouble(arg, text));
    } else if (arg == "--wr") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.repair.w_r,
                           ParsePositiveDouble(arg, text));
    } else if (arg == "--threads") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      double v = 0;
      if (!ParseDouble(text, &v) || v < 0 || v != static_cast<int>(v)) {
        return Status::InvalidArgument(
            "--threads expects a non-negative integer (0 = all hardware "
            "threads)");
      }
      options.repair.threads = static_cast<int>(v);
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--discover") {
      options.discover = true;
    } else if (arg == "--summary") {
      options.summary = true;
    } else if (arg == "--max-lhs") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      double v = 0;
      if (!ParseDouble(text, &v) || v < 1 || v != static_cast<int>(v)) {
        return Status::InvalidArgument("--max-lhs expects a positive integer");
      }
      options.discovery.max_lhs_size = static_cast<int>(v);
    } else if (arg == "--g3") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.discovery.max_g3_error,
                           ParsePositiveDouble(arg, text));
    } else if (arg == "--trusted-rows") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      for (const std::string& part : Split(text, ',')) {
        double row = 0;
        if (!ParseDouble(part, &row) || row < 0 ||
            row != static_cast<int>(row)) {
          return Status::InvalidArgument(
              "--trusted-rows expects comma-separated row indices, got '" +
              part + "'");
        }
        options.repair.trusted_rows.insert(static_cast<int>(row));
      }
    } else if (arg == "--auto-threshold") {
      options.repair.auto_threshold = true;
    } else if (arg == "--deadline-ms") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.deadline_ms,
                           ParsePositiveDouble(arg, text));
      if (options.deadline_ms <= 0) {
        return Status::InvalidArgument(
            "--deadline-ms expects a positive number of milliseconds");
      }
    } else if (arg == "--memory-budget-mb") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      FTR_ASSIGN_OR_RETURN(options.memory_budget_mb,
                           ParsePositiveDouble(arg, text));
      if (options.memory_budget_mb <= 0) {
        return Status::InvalidArgument(
            "--memory-budget-mb expects a positive number of megabytes");
      }
    } else if (arg == "--on-bad-row") {
      FTR_ASSIGN_OR_RETURN(std::string mode, next());
      if (mode == "strict") {
        options.csv.bad_rows = BadRowPolicy::kStrict;
      } else if (mode == "skip") {
        options.csv.bad_rows = BadRowPolicy::kSkipBadRows;
      } else if (mode == "pad") {
        options.csv.bad_rows = BadRowPolicy::kPadRagged;
      } else {
        return Status::InvalidArgument("unknown --on-bad-row '" + mode +
                                       "' (strict | skip | pad)");
      }
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--explain-json") {
      FTR_ASSIGN_OR_RETURN(options.explain_json_path, next());
    } else if (arg == "--audit-log") {
      FTR_ASSIGN_OR_RETURN(options.audit_log_path, next());
    } else if (arg == "--explain") {
      FTR_ASSIGN_OR_RETURN(std::string text, next());
      std::vector<std::string> parts = Split(text, ',');
      double row = 0;
      double col = 0;
      if (parts.size() != 2 || !ParseDouble(parts[0], &row) ||
          !ParseDouble(parts[1], &col) || row < 0 || col < 0 ||
          row != static_cast<int>(row) || col != static_cast<int>(col)) {
        return Status::InvalidArgument(
            "--explain expects ROW,COL (0-based indices), got '" + text +
            "'");
      }
      options.explain_row = static_cast<int>(row);
      options.explain_col = static_cast<int>(col);
    } else if (arg == "--metrics-json") {
      FTR_ASSIGN_OR_RETURN(options.metrics_json_path, next());
    } else if (arg == "--trace-json") {
      FTR_ASSIGN_OR_RETURN(options.trace_json_path, next());
    } else if (arg == "--log-level") {
      FTR_ASSIGN_OR_RETURN(std::string name, next());
      if (!ParseLogLevel(name, &options.log_level)) {
        return Status::InvalidArgument("unknown --log-level '" + name +
                                       "' (debug | info | warn | error)");
      }
      options.log_level_set = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + args[i] + "'\n" +
                                     CliUsage());
    }
    if (has_inline_value) {
      return Status::InvalidArgument(arg + " does not take a value");
    }
  }
  if (options.input_path.empty()) {
    return Status::InvalidArgument("--input is required\n" + CliUsage());
  }
  if (options.fds_path.empty() && options.cfds_path.empty() &&
      !options.discover && !options.profile) {
    return Status::InvalidArgument("--fds (or --cfds) is required\n" +
                                   CliUsage());
  }
  if (!options.fds_path.empty() && !options.cfds_path.empty()) {
    return Status::InvalidArgument("--fds and --cfds are mutually exclusive");
  }
  return options;
}

namespace {

Status RunProfile(const Table& table, std::ostream& out) {
  Report report("column profiles");
  report.SetHeader({"column", "type", "non-null", "distinct", "ratio",
                    "top values", "range"});
  for (const ColumnProfile& p : ProfileTable(table)) {
    std::string tops;
    for (const auto& [value, count] : p.top_values) {
      if (!tops.empty()) tops += ", ";
      tops += value.ToString() + " x" + std::to_string(count);
    }
    // Built with += (not chained operator+): GCC 12 emits a spurious
    // -Wrestrict warning on `const char* + std::string&&` chains here.
    std::string range = "-";
    if (p.has_numeric_range) {
      range = "[";
      range += FormatDouble(p.min);
      range += ", ";
      range += FormatDouble(p.max);
      range += "]";
    }
    report.AddRow({p.name, p.type == ValueType::kNumber ? "number" : "string",
                   std::to_string(p.non_null), std::to_string(p.distinct),
                   Report::Num(p.distinct_ratio, 3), tops, range});
  }
  report.Print(out);
  return Status::OK();
}

Status RunDiscover(const Table& table, const CliOptions& options,
                   std::ostream& out) {
  DiscoveryOptions discovery = options.discovery;
  if (discovery.max_g3_error == 0) discovery.max_g3_error = 0.05;
  FTR_ASSIGN_OR_RETURN(std::vector<DiscoveredFD> discovered,
                       DiscoverFDs(table, discovery));
  DistanceModel model(table);
  ThresholdOptions threshold_options;
  threshold_options.w_l = options.repair.w_l;
  threshold_options.w_r = options.repair.w_r;
  uint64_t budget = static_cast<uint64_t>(table.num_rows()) * 2;
  out << "# FDs discovered on " << options.input_path << " (g3 <= "
      << discovery.max_g3_error << "); rejected candidates commented out\n";
  for (const DiscoveredFD& d : discovered) {
    double tau = SuggestThreshold(table, d.fd, model, threshold_options);
    uint64_t violations =
        CountFTViolations(table, d.fd, model,
                          FTOptions{options.repair.w_l, options.repair.w_r,
                                    tau, options.repair.threads});
    bool keep = violations <= budget;
    if (!keep) out << "# rejected (too many FT-violations at tau):  ";
    out << d.fd.ToSpec(table.schema()) << "    # g3="
        << Report::Num(d.g3_error) << " tau=" << Report::Num(tau) << "\n";
  }
  return Status::OK();
}

// Writes the metrics snapshot and trace JSON if requested. Runs even
// when the repair itself failed, so a partial run is still observable.
Status WriteObservabilityOutputs(const CliOptions& options,
                                 std::ostream& out) {
  if (!options.metrics_json_path.empty()) {
    std::ofstream file(options.metrics_json_path, std::ios::binary);
    if (!file) {
      return Status::IOError("cannot open '" + options.metrics_json_path +
                             "' for writing");
    }
    file << Metrics().SnapshotJson() << "\n";
    if (!file) {
      return Status::IOError("short write to '" +
                             options.metrics_json_path + "'");
    }
    out << "wrote " << options.metrics_json_path << "\n";
  }
  if (!options.trace_json_path.empty()) {
    FTR_RETURN_NOT_OK(Tracer::Instance().WriteFile(options.trace_json_path));
    out << "wrote " << options.trace_json_path << "\n";
  }
  return Status::OK();
}

Status RunCliInner(const CliOptions& options, std::ostream& out) {
  // The memory budget governs the whole run, ingest included, so it is
  // installed before the CSV read (ingest buffers are the first
  // input-sized structures to grow).
  MemoryBudget memory(
      options.memory_budget_mb > 0
          ? static_cast<uint64_t>(options.memory_budget_mb * 1024.0 * 1024.0)
          : MemoryBudget::kUnlimited);
  CsvOptions csv_options = options.csv;
  if (options.memory_budget_mb > 0) csv_options.memory = &memory;
  CsvReadReport csv_report;
  FTR_ASSIGN_OR_RETURN(
      Table dirty, ReadCsvFile(options.input_path, csv_options, &csv_report));
  if (!csv_report.ok()) {
    out << "warning: " << csv_report.errors.size() << " malformed row(s) in "
        << options.input_path << ": " << csv_report.rows_dropped
        << " dropped, " << csv_report.rows_padded << " salvaged\n";
    if (options.verbose) {
      for (const RowError& error : csv_report.errors) {
        out << "  row " << error.row << " ["
            << RowErrorKindName(error.kind) << "] " << error.message
            << "\n";
      }
    }
  }

  if (options.profile) return RunProfile(dirty, out);
  if (options.discover) return RunDiscover(dirty, options, out);

  const bool cfd_mode = !options.cfds_path.empty();
  const std::string& rules_path =
      cfd_mode ? options.cfds_path : options.fds_path;
  std::ifstream fd_stream(rules_path);
  if (!fd_stream) {
    return Status::IOError("cannot open '" + rules_path + "'");
  }
  std::ostringstream fd_text;
  fd_text << fd_stream.rdbuf();
  std::vector<FD> fds;
  std::vector<CFD> cfds;
  if (cfd_mode) {
    FTR_ASSIGN_OR_RETURN(cfds, ParseCFDList(fd_text.str(), dirty.schema()));
    if (cfds.empty()) {
      return Status::InvalidArgument("'" + rules_path +
                                     "' contains no CFDs");
    }
    // The embedded FDs drive the by-name override checks below.
    for (const CFD& cfd : cfds) fds.push_back(cfd.fd());
  } else {
    FTR_ASSIGN_OR_RETURN(fds, ParseFDList(fd_text.str(), dirty.schema()));
    if (fds.empty()) {
      return Status::InvalidArgument("'" + rules_path + "' contains no FDs");
    }
  }
  // Every by-name override must name a parsed FD; a silent typo would
  // quietly repair with the default instead.
  auto check_fd_name = [&](const char* flag,
                           const std::string& name) -> Status {
    bool known = false;
    for (const FD& fd : fds) known = known || fd.name() == name;
    if (known) return Status::OK();
    std::string known_names;
    for (const FD& fd : fds) {
      if (!known_names.empty()) known_names += ", ";
      known_names += fd.name();
    }
    return Status::NotFound(std::string(flag) + " references unknown FD '" +
                            name + "'; FDs in '" + rules_path +
                            "': " + known_names);
  };
  for (const auto& [name, tau] : options.repair.tau_by_fd) {
    (void)tau;
    FTR_RETURN_NOT_OK(check_fd_name("--tau-fd", name));
  }
  for (const auto& [name, confidence] : options.repair.confidence_by_fd) {
    (void)confidence;
    FTR_RETURN_NOT_OK(check_fd_name("--confidence", name));
  }

  out << "ftrepair: " << dirty.num_rows() << " rows, "
      << dirty.num_columns() << " columns, " << fds.size()
      << (cfd_mode ? " CFDs (" : " FDs (")
      << RepairAlgorithmName(options.repair.algorithm) << ")\n";
  if (options.repair.semantics != "ft-cost") {
    out << "semantics: " << options.repair.semantics << "\n";
  }

  if (options.explain_row >= 0 &&
      options.explain_col >= static_cast<int>(dirty.num_columns())) {
    return Status::InvalidArgument(
        "--explain column " + std::to_string(options.explain_col) +
        " out of range; input has " +
        std::to_string(dirty.num_columns()) + " columns");
  }

  Timer timer;
  RepairOptions repair_options = options.repair;
  // Any explain surface needs the provenance layer recording during the
  // repair itself; it cannot be reconstructed after the fact.
  if (!options.explain_json_path.empty() ||
      !options.audit_log_path.empty() || options.explain_row >= 0) {
    repair_options.provenance = true;
  }
  Budget budget(options.deadline_ms > 0 ? options.deadline_ms
                                        : Budget::kUnlimited);
  if (options.deadline_ms > 0) {
    repair_options.budget = &budget;
    out << "deadline: " << options.deadline_ms << "ms\n";
  }
  if (options.memory_budget_mb > 0) {
    repair_options.memory = &memory;
    out << "memory budget: " << options.memory_budget_mb << " MB\n";
  }
  Repairer repairer(repair_options);
  Result<RepairResult> repaired_or = cfd_mode
                                         ? repairer.RepairCFDs(dirty, cfds)
                                         : repairer.Repair(dirty, fds);
  FTR_ASSIGN_OR_RETURN(RepairResult result, std::move(repaired_or));
  out << "repaired " << result.stats.cells_changed << " cells in "
      << result.stats.tuples_changed << " tuples (" << timer.Seconds()
      << "s)\n";
  out << "FT-violations: " << result.stats.ft_violations_before << " -> "
      << result.stats.ft_violations_after << "\n";
  out << "repair cost (Eq. 4): " << result.stats.repair_cost << "\n";

  const PhaseTimings& phases = result.stats.phases;
  Report phase_report("phase timings");
  phase_report.SetHeader({"phase", "ms", "%"});
  const std::pair<const char*, double> phase_rows[] = {
      {"detect", phases.detect_ms}, {"graph", phases.graph_ms},
      {"solve", phases.solve_ms},   {"targets", phases.targets_ms},
      {"apply", phases.apply_ms},   {"stats", phases.stats_ms},
  };
  for (const auto& [phase_name, phase_ms] : phase_rows) {
    double pct =
        phases.total_ms > 0 ? 100.0 * phase_ms / phases.total_ms : 0.0;
    phase_report.AddRow(
        {phase_name, Report::Num(phase_ms, 3), Report::Num(pct, 1)});
  }
  phase_report.AddRow({"total", Report::Num(phases.total_ms, 3), ""});
  phase_report.Print(out);

  if (result.stats.degraded()) {
    out << "note: repair degraded " << result.stats.degradations.size()
        << " step(s) along the ladder; the result is a valid partial "
           "repair\n";
    for (const DegradationEvent& event : result.stats.degradations) {
      out << "  [" << event.component << "] " << event.stage << " @"
          << FormatDouble(event.elapsed_ms) << "ms: " << event.reason
          << "\n";
    }
  }
  if (result.stats.join_empty) {
    out << "warning: a target join was empty; some tuples were left "
           "unrepaired\n";
  }
  if (result.stats.trusted_conflicts > 0) {
    out << "warning: " << result.stats.trusted_conflicts
        << " trusted pattern(s) conflict with each other; check the "
           "thresholds or the trusted rows\n";
  }

  if (options.summary) {
    Report report("changes by (column, old, new)");
    report.SetHeader({"column", "old", "new", "count"});
    for (const ChangeSummaryLine& line :
         SummarizeChanges(result.changes, dirty.schema())) {
      report.AddRow({line.column, line.old_value.ToString(),
                     line.new_value.ToString(),
                     std::to_string(line.count)});
    }
    report.Print(out);
  }
  if (options.verbose) {
    // Long values (free-text columns, URLs) would blow the table out of
    // any terminal; show enough to recognise the value.
    auto clip = [](std::string text) {
      constexpr size_t kMax = 40;
      if (text.size() > kMax) {
        text.resize(kMax);
        text += "...";
      }
      return text;
    };
    Report change_report("cell changes");
    change_report.SetHeader({"row", "column", "old", "new"});
    for (const CellChange& change : result.changes) {
      change_report.AddRow({std::to_string(change.row),
                            dirty.schema().column(change.col).name,
                            clip(change.old_value.ToString()),
                            clip(change.new_value.ToString())});
    }
    change_report.Print(out);
  }

  if (options.explain_row >= 0) {
    out << ExplainCellText(dirty.schema(), result, options.explain_row,
                           options.explain_col);
  }
  if (!options.explain_json_path.empty()) {
    std::ofstream file(options.explain_json_path, std::ios::binary);
    if (!file) {
      return Status::IOError("cannot open '" + options.explain_json_path +
                             "' for writing");
    }
    file << ExplainReportJson(dirty, result);
    if (!file.good()) {
      return Status::IOError("failed writing '" +
                             options.explain_json_path + "'");
    }
    out << "wrote " << options.explain_json_path << "\n";
  }
  if (!options.audit_log_path.empty()) {
    std::ofstream file(options.audit_log_path, std::ios::binary);
    if (!file) {
      return Status::IOError("cannot open '" + options.audit_log_path +
                             "' for writing");
    }
    file << AuditLogNdjson(result);
    if (!file.good()) {
      return Status::IOError("failed writing '" + options.audit_log_path +
                             "'");
    }
    out << "wrote " << options.audit_log_path << "\n";
  }

  if (!options.output_path.empty()) {
    FTR_RETURN_NOT_OK(WriteCsvFile(result.repaired, options.output_path));
    out << "wrote " << options.output_path << "\n";
  }
  if (!options.changes_path.empty()) {
    Table changes(Schema({{"row", ValueType::kNumber},
                          {"column", ValueType::kString},
                          {"old", ValueType::kString},
                          {"new", ValueType::kString}}));
    for (const CellChange& change : result.changes) {
      FTR_RETURN_NOT_OK(changes.AppendRow(
          {Value(static_cast<double>(change.row)),
           Value(dirty.schema().column(change.col).name),
           Value(change.old_value.ToString()),
           Value(change.new_value.ToString())}));
    }
    FTR_RETURN_NOT_OK(WriteCsvFile(changes, options.changes_path));
    out << "wrote " << options.changes_path << "\n";
  }
  if (!options.truth_path.empty()) {
    FTR_ASSIGN_OR_RETURN(Table truth, ReadCsvFile(options.truth_path));
    if (truth.num_rows() != dirty.num_rows() ||
        !(truth.schema() == dirty.schema())) {
      return Status::InvalidArgument(
          "--truth must have the same schema and row count as --input");
    }
    Quality quality = EvaluateRepair(dirty, result.repaired, truth);
    out << "precision: " << quality.precision
        << "  recall: " << quality.recall << "  f1: " << quality.f1
        << "\n";
  }
  return Status::OK();
}

}  // namespace

Status RunCli(const CliOptions& options, std::ostream& out) {
  if (options.help) {
    out << CliUsage();
    return Status::OK();
  }
  if (options.log_level_set) SetLogLevel(options.log_level);
  const bool tracing = !options.trace_json_path.empty();
  if (tracing) Tracer::Instance().Enable();
  Status status = RunCliInner(options, out);
  Status observability = WriteObservabilityOutputs(options, out);
  if (tracing) Tracer::Instance().Disable();
  FTR_RETURN_NOT_OK(status);
  return observability;
}

}  // namespace ftrepair
