#ifndef FTREPAIR_CLI_CLI_H_
#define FTREPAIR_CLI_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/repair_types.h"
#include "data/csv.h"
#include "discovery/fd_discovery.h"

namespace ftrepair {

/// Parsed command-line configuration of the `ftrepair` tool.
struct CliOptions {
  std::string input_path;       // --input (required)
  std::string fds_path;         // --fds (required unless --discover/--profile)
  std::string cfds_path;        // --cfds (CFD repair instead of --fds)
  bool help = false;            // --help: print usage, do nothing else
  bool discover = false;        // --discover: print vetted FDs, no repair
  bool profile = false;         // --profile: print column profiles, no repair
  bool summary = false;         // --summary: aggregate the cell changes
  DiscoveryOptions discovery;   // --max-lhs / --g3
  std::string output_path;      // --output (optional: stdout summary only)
  std::string changes_path;     // --changes (optional CSV of cell changes)
  std::string truth_path;       // --truth (optional: score P/R)
  RepairOptions repair;
  CsvOptions csv;               // --on-bad-row
  double deadline_ms = 0;       // --deadline-ms (0 = unlimited)
  double memory_budget_mb = 0;  // --memory-budget-mb (0 = unlimited)
  bool verbose = false;         // --verbose
  std::string explain_json_path;  // --explain-json (machine-readable report)
  std::string audit_log_path;     // --audit-log (NDJSON decision stream)
  int explain_row = -1;           // --explain ROW,COL (-1 = not requested)
  int explain_col = -1;
  std::string metrics_json_path;  // --metrics-json (JSON metrics snapshot)
  std::string trace_json_path;    // --trace-json (Chrome trace_event JSON)
  bool log_level_set = false;     // --log-level given explicitly
  LogLevel log_level = LogLevel::kWarning;  // --log-level
};

/// Usage text for --help / errors.
std::string CliUsage();

/// Parses argv (excluding argv[0]). Errors carry a user-facing message.
Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// Loads input + FDs, repairs, writes outputs and a human summary to
/// `out`. Returns the first error encountered.
Status RunCli(const CliOptions& options, std::ostream& out);

}  // namespace ftrepair

#endif  // FTREPAIR_CLI_CLI_H_
