#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "constraint/fd_parser.h"
#include "data/csv.h"
#include "test_util.h"

namespace ftrepair {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    // ctest runs each test case as its own process in parallel: paths
    // must be unique per test to avoid collisions.
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    input_path_ = dir_ + "/cli_" + tag + "_dirty.csv";
    fds_path_ = dir_ + "/cli_" + tag + "_fds.txt";
    truth_path_ = dir_ + "/cli_" + tag + "_truth.csv";
    output_path_ = dir_ + "/cli_" + tag + "_repaired.csv";
    changes_path_ = dir_ + "/cli_" + tag + "_changes.csv";
    metrics_path_ = dir_ + "/cli_" + tag + "_metrics.json";
    trace_path_ = dir_ + "/cli_" + tag + "_trace.json";
    ASSERT_TRUE(
        WriteCsvFile(testing_util::CitizensDirty(), input_path_).ok());
    ASSERT_TRUE(
        WriteCsvFile(testing_util::CitizensTruth(), truth_path_).ok());
    std::ofstream fds(fds_path_);
    fds << "phi1: Education -> Level\n"
           "phi2: City -> State\n"
           "phi3: City, Street -> District\n";
  }

  void TearDown() override {
    for (const std::string& path : {input_path_, fds_path_, truth_path_,
                                    output_path_, changes_path_,
                                    metrics_path_, trace_path_}) {
      std::remove(path.c_str());
    }
  }

  static std::string SlurpFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string dir_, input_path_, fds_path_, truth_path_, output_path_,
      changes_path_, metrics_path_, trace_path_;
};

TEST_F(CliTest, ParseRequiresInputAndFds) {
  EXPECT_FALSE(ParseCliArgs({}).ok());
  EXPECT_FALSE(ParseCliArgs({"--input", "x.csv"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--fds", "f.txt"}).ok());
  auto ok = ParseCliArgs({"--input", "x.csv", "--fds", "f.txt"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().input_path, "x.csv");
  EXPECT_EQ(ok.value().repair.algorithm, RepairAlgorithm::kGreedy);
}

TEST_F(CliTest, ParseFlags) {
  auto options = ParseCliArgs(
      {"--input", "x.csv", "--fds", "f.txt", "--algorithm", "exact",
       "--tau", "0.33", "--tau-fd", "phi2=0.5", "--wl", "0.6", "--wr",
       "0.4", "--verbose", "--auto-threshold"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().repair.algorithm, RepairAlgorithm::kExact);
  EXPECT_DOUBLE_EQ(options.value().repair.default_tau, 0.33);
  EXPECT_DOUBLE_EQ(options.value().repair.tau_by_fd.at("phi2"), 0.5);
  EXPECT_DOUBLE_EQ(options.value().repair.w_l, 0.6);
  EXPECT_TRUE(options.value().verbose);
  EXPECT_TRUE(options.value().repair.auto_threshold);
}

TEST_F(CliTest, ParseTrustedRows) {
  auto options = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--trusted-rows", "0,5,9"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().repair.trusted_rows,
            (std::unordered_set<int>{0, 5, 9}));
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--trusted-rows", "a,b"})
          .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--trusted-rows", "1.5"})
          .ok());
}

TEST_F(CliTest, ParseExplainFlags) {
  auto options = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--explain-json", "e.json",
       "--audit-log=a.ndjson", "--explain", "5,1"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().explain_json_path, "e.json");
  EXPECT_EQ(options.value().audit_log_path, "a.ndjson");
  EXPECT_EQ(options.value().explain_row, 5);
  EXPECT_EQ(options.value().explain_col, 1);
  // Unset by default: -1 means "no --explain requested".
  auto plain = ParseCliArgs({"--input", "x", "--fds", "f"});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().explain_row, -1);
  for (const char* bad : {"5", "5,", "a,b", "1.5,2", "-1,2", "5,1,2"}) {
    EXPECT_FALSE(
        ParseCliArgs({"--input", "x", "--fds", "f", "--explain", bad}).ok())
        << "--explain " << bad << " should be rejected";
  }
}

TEST_F(CliTest, ParseRejectsBadValues) {
  EXPECT_FALSE(ParseCliArgs({"--input", "x", "--fds", "f", "--tau"}).ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--tau", "abc"}).ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--algorithm", "magic"})
          .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--tau-fd", "phi2"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--bogus"}).ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--deadline-ms", "0"})
          .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--deadline-ms", "abc"})
          .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--on-bad-row", "explode"})
          .ok());
}

TEST_F(CliTest, HelpParsesOkAndPrintsUsage) {
  // --help succeeds (the binary exits 0) and short-circuits the
  // required-flag checks.
  auto help = ParseCliArgs({"--help"});
  ASSERT_TRUE(help.ok()) << help.status().ToString();
  EXPECT_TRUE(help.value().help);
  std::ostringstream out;
  ASSERT_TRUE(RunCli(help.value(), out).ok());
  EXPECT_NE(out.str().find("Usage:"), std::string::npos);
  EXPECT_NE(out.str().find("--deadline-ms"), std::string::npos);
  EXPECT_NE(out.str().find("--on-bad-row"), std::string::npos);
}

TEST_F(CliTest, ParseDeadlineAndBadRowPolicy) {
  auto options = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--deadline-ms", "250",
       "--on-bad-row", "pad"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_DOUBLE_EQ(options.value().deadline_ms, 250);
  EXPECT_EQ(options.value().csv.bad_rows, BadRowPolicy::kPadRagged);
  auto skip = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--on-bad-row", "skip"});
  ASSERT_TRUE(skip.ok());
  EXPECT_EQ(skip.value().csv.bad_rows, BadRowPolicy::kSkipBadRows);
  auto strict = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--on-bad-row", "strict"});
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict.value().csv.bad_rows, BadRowPolicy::kStrict);
}

TEST_F(CliTest, RemovedFlagsRejected) {
  // Flags whose only job was to switch between implementations with
  // identical outputs are gone: detection always runs on dictionary
  // codes (--columnar), and the graph build picks its own candidate
  // join (--detect-index).
  const std::vector<std::vector<std::string>> removed = {
      {"--columnar", "off"}, {"--detect-index", "allpairs"}};
  for (const std::vector<std::string>& flag : removed) {
    auto parsed =
        ParseCliArgs({"--input", "x", "--fds", "f", flag[0], flag[1]});
    ASSERT_FALSE(parsed.ok()) << flag[0];
    EXPECT_NE(parsed.status().message().find("unknown flag '" + flag[0] +
                                             "'"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST_F(CliTest, UnknownTauFdNameRejected) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--tau-fd",
       "phantom=0.5"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("phantom"), std::string::npos)
      << status.ToString();
}

TEST_F(CliTest, SkipBadRowsSalvagesMalformedInput) {
  // Append a ragged row to the dirty table: strict fails, skip warns
  // and repairs the clean subset.
  {
    std::ofstream append(input_path_, std::ios::app);
    append << "stray,row\n";
  }
  auto strict = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--tau-fd", "phi1=0.30",
       "--tau-fd", "phi2=0.5", "--tau-fd", "phi3=0.5"});
  ASSERT_TRUE(strict.ok());
  std::ostringstream strict_out;
  EXPECT_TRUE(RunCli(strict.value(), strict_out).IsIOError());

  auto skip = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--on-bad-row", "skip",
       "--tau-fd", "phi1=0.30", "--tau-fd", "phi2=0.5", "--tau-fd",
       "phi3=0.5", "--wl", "0.5", "--wr", "0.5"});
  ASSERT_TRUE(skip.ok());
  std::ostringstream out;
  Status status = RunCli(skip.value(), out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("malformed row"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("repaired"), std::string::npos) << out.str();
}

TEST_F(CliTest, DeadlineSurfacesDegradationNotFailure) {
  // An (effectively) instant deadline must still produce a successful
  // run with a well-formed summary — the ladder degrades, never aborts.
  setenv("FTREPAIR_FAULT_BUDGET_UNITS", "1", 1);
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--deadline-ms",
       "100000", "--algorithm", "exact", "--tau-fd", "phi1=0.30",
       "--tau-fd", "phi2=0.5", "--tau-fd", "phi3=0.5", "--wl", "0.5",
       "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("deadline:"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("degraded"), std::string::npos) << out.str();
}

TEST_F(CliTest, EndToEndRepairAndScore) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--output", output_path_,
       "--changes", changes_path_, "--truth", truth_path_, "--algorithm",
       "exact", "--tau-fd", "phi1=0.30", "--tau-fd", "phi2=0.5", "--tau-fd",
       "phi3=0.5", "--wl", "0.5", "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string text = out.str();
  EXPECT_NE(text.find("repaired 8 cells"), std::string::npos) << text;
  EXPECT_NE(text.find("precision: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("recall: 1"), std::string::npos) << text;
  // Outputs round-trip.
  Table repaired = std::move(ReadCsvFile(output_path_)).ValueOrDie();
  EXPECT_EQ(repaired.num_rows(), 10);
  Table changes = std::move(ReadCsvFile(changes_path_)).ValueOrDie();
  EXPECT_EQ(changes.num_rows(), 8);
}

TEST_F(CliTest, VerbosePrintsChanges) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--verbose", "--tau-fd",
       "phi1=0.30", "--tau-fd", "phi2=0.5", "--tau-fd", "phi3=0.5", "--wl",
       "0.5", "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(parsed.value(), out).ok());
  // The change log is a table with column names and old/new values.
  EXPECT_NE(out.str().find("cell changes"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("Education"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("Masers"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("Masters"), std::string::npos) << out.str();
}

TEST_F(CliTest, MissingFilesSurfaceIOErrors) {
  auto parsed = ParseCliArgs({"--input", dir_ + "/nope.csv", "--fds",
                              fds_path_});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(parsed.value(), out).IsIOError());

  auto parsed2 =
      ParseCliArgs({"--input", input_path_, "--fds", dir_ + "/nope.txt"});
  ASSERT_TRUE(parsed2.ok());
  EXPECT_TRUE(RunCli(parsed2.value(), out).IsIOError());
}

TEST_F(CliTest, TruthSchemaMismatchRejected) {
  std::string bad_truth = dir_ + "/cli_bad_truth.csv";
  Table small = testing_util::CitizensTruth().Head(3);
  ASSERT_TRUE(WriteCsvFile(small, bad_truth).ok());
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--truth", bad_truth});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(parsed.value(), out).IsInvalidArgument());
  std::remove(bad_truth.c_str());
}

TEST_F(CliTest, ProfileMode) {
  auto parsed = ParseCliArgs({"--input", input_path_, "--profile"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(parsed.value(), out).ok());
  EXPECT_NE(out.str().find("column profiles"), std::string::npos);
  EXPECT_NE(out.str().find("Education"), std::string::npos);
}

TEST_F(CliTest, DiscoverModePrintsParseableSpec) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--discover", "--max-lhs", "1", "--g3",
       "0.25"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(parsed.value(), out).ok());
  // The output must itself parse as an FD list against the schema.
  Table dirty = std::move(ReadCsvFile(input_path_)).ValueOrDie();
  auto fds = ParseFDList(out.str(), dirty.schema());
  ASSERT_TRUE(fds.ok()) << fds.status().ToString() << "\n" << out.str();
}

TEST_F(CliTest, ParseEqualsSpelling) {
  // Every value-taking flag also accepts --flag=VALUE; --tau-fd keeps
  // its own NAME=VALUE payload past the first '='.
  auto options = ParseCliArgs(
      {"--input=x.csv", "--fds=f.txt", "--algorithm=exact", "--tau=0.33",
       "--tau-fd=phi2=0.5", "--deadline-ms=250"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().input_path, "x.csv");
  EXPECT_EQ(options.value().fds_path, "f.txt");
  EXPECT_EQ(options.value().repair.algorithm, RepairAlgorithm::kExact);
  EXPECT_DOUBLE_EQ(options.value().repair.default_tau, 0.33);
  EXPECT_DOUBLE_EQ(options.value().repair.tau_by_fd.at("phi2"), 0.5);
  EXPECT_DOUBLE_EQ(options.value().deadline_ms, 250);
  // A boolean flag must reject an inline value.
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--verbose=yes"}).ok());
}

TEST_F(CliTest, ParseObservabilityFlags) {
  auto options = ParseCliArgs(
      {"--input", "x", "--fds", "f", "--metrics-json=m.json",
       "--trace-json", "t.json", "--log-level", "debug"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().metrics_json_path, "m.json");
  EXPECT_EQ(options.value().trace_json_path, "t.json");
  EXPECT_TRUE(options.value().log_level_set);
  EXPECT_EQ(options.value().log_level, LogLevel::kDebug);
  EXPECT_FALSE(
      ParseCliArgs({"--input", "x", "--fds", "f", "--log-level", "loud"})
          .ok());
}

TEST_F(CliTest, MetricsAndTraceJsonEmitted) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_,
       "--metrics-json=" + metrics_path_, "--trace-json=" + trace_path_,
       "--tau-fd", "phi1=0.30", "--tau-fd", "phi2=0.5", "--tau-fd",
       "phi3=0.5", "--wl", "0.5", "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("wrote " + metrics_path_), std::string::npos);
  EXPECT_NE(out.str().find("wrote " + trace_path_), std::string::npos);

  std::string metrics = SlurpFile(metrics_path_);
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(testing_util::IsValidJson(metrics)) << metrics;
  // A counter for every pipeline phase plus the end-to-end histogram.
  for (const char* key :
       {"ftrepair.phase.detect_us", "ftrepair.phase.graph_us",
        "ftrepair.phase.solve_us", "ftrepair.phase.targets_us",
        "ftrepair.phase.apply_us", "ftrepair.phase.stats_us",
        "ftrepair.repair.runs", "ftrepair.repair.total_ms",
        "ftrepair.ingest.rows_read"}) {
    EXPECT_NE(metrics.find(key), std::string::npos)
        << "missing " << key << " in " << metrics;
  }

  std::string trace = SlurpFile(trace_path_);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(testing_util::IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // Spans cover the pipeline: ingest -> detect -> solve -> targets ->
  // apply (phi2/phi3 share City, so the multi-FD path runs).
  for (const char* span :
       {"ingest.read_csv", "repair.detect", "detect.graph_build",
        "greedy.solve_multi", "targets.assign", "repair.apply",
        "repair.total"}) {
    EXPECT_NE(trace.find(span), std::string::npos)
        << "missing span " << span << " in " << trace;
  }
}

TEST_F(CliTest, DefaultReportIncludesPhaseTimings) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--tau-fd", "phi1=0.30",
       "--tau-fd", "phi2=0.5", "--tau-fd", "phi3=0.5", "--wl", "0.5",
       "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(parsed.value(), out).ok());
  EXPECT_NE(out.str().find("phase timings"), std::string::npos) << out.str();
  for (const char* phase :
       {"detect", "graph", "solve", "targets", "apply", "stats", "total"}) {
    EXPECT_NE(out.str().find(phase), std::string::npos)
        << "missing phase row " << phase << " in " << out.str();
  }
}

// Every mis-use of the semantics surface must die with ONE actionable
// line — these pin the exact failure mode (parse-time vs run-time) and
// that no message ever spans multiple lines.
void ExpectSingleLine(const Status& status) {
  EXPECT_EQ(status.message().find('\n'), std::string::npos)
      << "multi-line CLI error: " << status.ToString();
}

TEST_F(CliTest, UnknownSemanticsRejectedAtParse) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--semantics", "bogus"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << parsed.status().ToString();
  // The error names the offender and lists every registered semantics.
  EXPECT_NE(parsed.status().message().find("unknown semantics 'bogus'"),
            std::string::npos)
      << parsed.status().ToString();
  for (const char* known : {"ft-cost", "soft-fd", "cardinality"}) {
    EXPECT_NE(parsed.status().message().find(known), std::string::npos)
        << "missing " << known << " in " << parsed.status().ToString();
  }
  ExpectSingleLine(parsed.status());
}

TEST_F(CliTest, CardinalitySemanticsRejectsCfds) {
  std::string cfds_path = dir_ + "/cli_card_cfds.txt";
  {
    std::ofstream cfds(cfds_path);
    cfds << "c1: City -> State | Boston -> MA\n";
  }
  auto parsed = ParseCliArgs({"--input", input_path_, "--cfds", cfds_path,
                              "--semantics", "cardinality"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  std::remove(cfds_path.c_str());
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("does not support CFDs"),
            std::string::npos)
      << status.ToString();
  // The message must point at the fix, not just the problem.
  EXPECT_NE(status.message().find("--semantics=ft-cost"), std::string::npos)
      << status.ToString();
  ExpectSingleLine(status);
}

TEST_F(CliTest, MalformedConfidenceRejectedAtParse) {
  for (const char* bad : {"phi2", "phi2=", "phi2=abc", "phi2=0", "phi2=2",
                          "phi2=-0.5", "=0.5"}) {
    auto parsed = ParseCliArgs({"--input", input_path_, "--fds", fds_path_,
                                "--semantics", "soft-fd", "--confidence",
                                bad});
    ASSERT_FALSE(parsed.ok()) << "accepted --confidence " << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("(0, 1]"), std::string::npos)
        << parsed.status().ToString();
    ExpectSingleLine(parsed.status());
  }
}

TEST_F(CliTest, UnknownConfidenceFdNameRejected) {
  auto parsed = ParseCliArgs({"--input", input_path_, "--fds", fds_path_,
                              "--semantics", "soft-fd", "--confidence",
                              "phantom=0.5"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::ostringstream out;
  Status status = RunCli(parsed.value(), out);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("phantom"), std::string::npos)
      << status.ToString();
  ExpectSingleLine(status);
}

TEST_F(CliTest, FdsAndCfdsMutuallyExclusive) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--cfds", fds_path_});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("mutually exclusive"),
            std::string::npos)
      << parsed.status().ToString();
  ExpectSingleLine(parsed.status());
}

TEST_F(CliTest, SemanticsFlagRunsEndToEnd) {
  auto card = ParseCliArgs({"--input", input_path_, "--fds", fds_path_,
                            "--semantics", "cardinality"});
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  std::ostringstream card_out;
  ASSERT_TRUE(RunCli(card.value(), card_out).ok());
  EXPECT_NE(card_out.str().find("semantics: cardinality"),
            std::string::npos)
      << card_out.str();

  auto soft = ParseCliArgs({"--input", input_path_, "--fds", fds_path_,
                            "--semantics", "soft-fd", "--confidence",
                            "phi2=0.5", "--tau-fd", "phi1=0.30", "--tau-fd",
                            "phi2=0.5", "--tau-fd", "phi3=0.5", "--wl",
                            "0.5", "--wr", "0.5"});
  ASSERT_TRUE(soft.ok()) << soft.status().ToString();
  std::ostringstream soft_out;
  ASSERT_TRUE(RunCli(soft.value(), soft_out).ok());
  EXPECT_NE(soft_out.str().find("semantics: soft-fd"), std::string::npos)
      << soft_out.str();
}

TEST_F(CliTest, SummaryModeAggregates) {
  auto parsed = ParseCliArgs(
      {"--input", input_path_, "--fds", fds_path_, "--summary", "--tau-fd",
       "phi1=0.30", "--tau-fd", "phi2=0.5", "--tau-fd", "phi3=0.5", "--wl",
       "0.5", "--wr", "0.5"});
  ASSERT_TRUE(parsed.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(parsed.value(), out).ok());
  EXPECT_NE(out.str().find("changes by (column, old, new)"),
            std::string::npos);
  EXPECT_NE(out.str().find("Masers"), std::string::npos);
}

}  // namespace
}  // namespace ftrepair
