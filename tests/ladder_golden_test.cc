// Golden regression suite for the degradation ladder of both repair
// entry points: Repairer::Repair (single-FD and multi-FD components)
// and Repairer::RepairCFDs (constant + variable tableau units).
//
// Every case runs at threads 1 and is reduced to one record holding
// the RepairResult fingerprint (the semantics_golden_test format),
// every DegradationEvent (component, stage, cause, reason) and the
// full ExplainReportJson — or, for a hard failure, the Status text.
// Wall-clock fields (DegradationEvent::elapsed_ms and the phase
// timings) are zeroed first, so a record is a pure function of the
// decisions the ladder took. Resource pressure comes from the
// deterministic fault seams (FTREPAIR_FAULT_BUDGET_UNITS,
// FTREPAIR_FAULT_MEM_BYTES), a pre-latched soft memory watermark and
// tiny search valves, so the sweeps reach every rung (skip,
// partial-graph, exact->greedy, greedy->partial, soft-valves,
// partial-targets, ...) without timing flakes. A one-node target-tree
// cap drives target assignment onto the lazy search.
//
// The committed digests in tests/goldens/ladder_fingerprints.txt pin
// the ladder's behaviour: a refactor of the ladder code must leave
// every record byte-identical.
//
// Regenerating (only when an intentional behavior change lands):
//   FTREPAIR_UPDATE_GOLDENS=1 ./ladder_golden_test
// rewrites tests/goldens/ladder_fingerprints.txt in the source tree.
// FTREPAIR_LADDER_DUMP=PATH additionally writes the un-hashed records
// to PATH, for diffing a drift.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/resource.h"
#include "common/strings.h"
#include "constraint/cfd.h"
#include "constraint/fd.h"
#include "core/provenance.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::ScopedEnv;

#ifndef FTREPAIR_GOLDEN_DIR
#error "build must define FTREPAIR_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

std::string GoldenPath() {
  return std::string(FTREPAIR_GOLDEN_DIR) + "/ladder_fingerprints.txt";
}

std::string Fingerprint(const RepairResult& result) {
  std::string fp = WriteCsvString(result.repaired);
  fp += "|changes:";
  for (const CellChange& c : result.changes) {
    fp += std::to_string(c.row) + "," + std::to_string(c.col) + ":" +
          c.old_value.ToString() + "->" + c.new_value.ToString() + ";";
  }
  fp += "|cost:" + FormatDouble(result.stats.repair_cost);
  fp += "|cells:" + std::to_string(result.stats.cells_changed);
  fp += "|tuples:" + std::to_string(result.stats.tuples_changed);
  fp += "|before:" + std::to_string(result.stats.ft_violations_before);
  fp += "|after:" + std::to_string(result.stats.ft_violations_after);
  return fp;
}

std::string FingerprintDigest(const std::string& fp) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : fp) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx:%zu",
                static_cast<unsigned long long>(h), fp.size());
  return buf;
}

// The record of one run: fingerprint + degradation sequence + explain
// report with every wall-clock field zeroed, or the failure status.
std::string Record(const Table& input, Result<RepairResult> run) {
  if (!run.ok()) return "status:" + run.status().ToString();
  RepairResult result = std::move(run).value();
  result.stats.phases = PhaseTimings{};
  std::string record = Fingerprint(result) + "|degradations:";
  for (DegradationEvent& event : result.stats.degradations) {
    event.elapsed_ms = 0.0;
    record += event.component + "|" + event.stage + "|" +
              DegradationCauseName(event.cause) + "|" + event.reason + ";";
  }
  record += "|explain:" + ExplainReportJson(input, result);
  return record;
}

// Resource pressure applied to one case. Budget and memory objects are
// built per run: both fault seams are read at construction.
struct Pressure {
  std::string key = "none";
  const char* env = nullptr;  // fault-seam variable, when set
  std::string env_value;
  bool budget = false;         // install a (far-off) limited Budget
  bool memory = false;         // install a (far-off) limited MemoryBudget
  bool soft_watermark = false; // pre-latch the soft memory watermark
  bool tiny_valves = false;    // exact search valves at 1
  bool closed_valve = false;   // fall_back_to_greedy = false
  bool tiny_tree = false;      // max_tree_nodes = 1: lazy target search
};

std::vector<Pressure> Pressures() {
  std::vector<Pressure> out;
  out.push_back(Pressure{});
  for (const char* units :
       {"1", "2", "3", "5", "8", "13", "20", "30", "40", "60", "90", "150",
        "300"}) {
    Pressure p;
    p.key = std::string("budget-units:") + units;
    p.env = "FTREPAIR_FAULT_BUDGET_UNITS";
    p.env_value = units;
    p.budget = true;
    out.push_back(p);
  }
  for (const char* bytes :
       {"1", "64", "256", "1024", "2048", "4096", "8192", "16384", "65536",
        "262144"}) {
    Pressure p;
    p.key = std::string("mem-bytes:") + bytes;
    p.env = "FTREPAIR_FAULT_MEM_BYTES";
    p.env_value = bytes;
    p.memory = true;
    out.push_back(p);
  }
  {
    Pressure p;
    p.key = "soft-watermark";
    p.memory = true;
    p.soft_watermark = true;
    out.push_back(p);
  }
  {
    Pressure p;
    p.key = "tiny-valves";
    p.tiny_valves = true;
    out.push_back(p);
  }
  for (const char* units : {"1", "5", "20", "40"}) {
    Pressure p;
    p.key = std::string("closed/budget-units:") + units;
    p.env = "FTREPAIR_FAULT_BUDGET_UNITS";
    p.env_value = units;
    p.budget = true;
    p.closed_valve = true;
    out.push_back(p);
  }
  for (const char* bytes : {"64", "2048"}) {
    Pressure p;
    p.key = std::string("closed/mem-bytes:") + bytes;
    p.env = "FTREPAIR_FAULT_MEM_BYTES";
    p.env_value = bytes;
    p.memory = true;
    p.closed_valve = true;
    out.push_back(p);
  }
  {
    Pressure p;
    p.key = "closed/tiny-valves";
    p.tiny_valves = true;
    p.closed_valve = true;
    out.push_back(p);
  }
  // A one-node eager tree always overflows, so every target assignment
  // takes the lazy fallback; the budgeted variants truncate it.
  {
    Pressure p;
    p.key = "tiny-tree";
    p.tiny_tree = true;
    out.push_back(p);
  }
  for (const char* units : {"60", "90", "150"}) {
    Pressure p;
    p.key = std::string("tiny-tree/budget-units:") + units;
    p.env = "FTREPAIR_FAULT_BUDGET_UNITS";
    p.env_value = units;
    p.budget = true;
    p.tiny_tree = true;
    out.push_back(p);
  }
  return out;
}

// Applies `pressure` to `options` for one run; owns the resource
// objects and the fault-seam environment for the run's lifetime.
class PressureScope {
 public:
  PressureScope(const Pressure& pressure, RepairOptions* options) {
    if (pressure.env != nullptr) {
      env_ = std::make_unique<ScopedEnv>(pressure.env, pressure.env_value);
    }
    if (pressure.budget) {
      budget_ = std::make_unique<Budget>(1e9);
      options->budget = budget_.get();
    }
    if (pressure.memory) {
      const double soft = pressure.soft_watermark ? 0.0001 : 0.8;
      memory_ = std::make_unique<MemoryBudget>(uint64_t{1} << 30, soft);
      if (pressure.soft_watermark) memory_->TryCharge(1 << 20);
      options->memory = memory_.get();
    }
    if (pressure.tiny_valves) {
      options->max_frontier = 1;
      options->max_sets_per_fd = 1;
      options->max_combinations = 1;
    }
    if (pressure.closed_valve) options->fall_back_to_greedy = false;
    if (pressure.tiny_tree) options->max_tree_nodes = 1;
  }

 private:
  std::unique_ptr<ScopedEnv> env_;
  std::unique_ptr<Budget> budget_;
  std::unique_ptr<MemoryBudget> memory_;
};

const char* AlgorithmKey(RepairAlgorithm algorithm) {
  switch (algorithm) {
    case RepairAlgorithm::kExact:
      return "exact";
    case RepairAlgorithm::kGreedy:
      return "greedy";
    case RepairAlgorithm::kApproJoin:
      return "appro";
  }
  return "?";
}

constexpr RepairAlgorithm kAlgorithms[] = {RepairAlgorithm::kExact,
                                           RepairAlgorithm::kGreedy,
                                           RepairAlgorithm::kApproJoin};

RepairOptions BaseOptions(RepairAlgorithm algorithm) {
  RepairOptions options;
  options.algorithm = algorithm;
  options.default_tau = 0.4;
  options.threads = 1;
  options.provenance = true;
  return options;
}

std::vector<CFD> CitizensCFDs(const Schema& schema) {
  return std::move(ParseCFDList("c1: City -> State | New York -> NY | _ -> _\n"
                                "c2: Education -> Level | _ -> _\n",
                                schema))
      .ValueOrDie();
}

// Every case of the golden: key -> record. `stages` collects the
// ladder stages reached, per entry point, for the non-vacuity check.
void ComputeRecords(std::map<std::string, std::string>* records,
                    std::map<std::string, std::set<std::string>>* stages) {
  const Table dirty = CitizensDirty();
  const std::vector<FD> fds = CitizensFDs(dirty.schema());
  const std::vector<CFD> cfds = CitizensCFDs(dirty.schema());
  auto note_stages = [&](const std::string& path,
                         const Result<RepairResult>& run) {
    if (!run.ok()) {
      (*stages)[path].insert("error");
      return;
    }
    for (const DegradationEvent& event : run.value().stats.degradations) {
      (*stages)[path].insert(event.stage);
    }
  };

  for (const Pressure& pressure : Pressures()) {
    for (RepairAlgorithm algorithm : kAlgorithms) {
      for (const char* semantics : {"ft-cost", "cardinality", "soft-fd"}) {
        RepairOptions options = BaseOptions(algorithm);
        options.semantics = semantics;
        if (std::string(semantics) == "soft-fd") {
          for (const FD& fd : fds) options.confidence_by_fd[fd.name()] = 0.5;
        }
        PressureScope scope(pressure, &options);
        auto run = Repairer(options).Repair(dirty, fds);
        note_stages("fd", run);
        (*records)["fd/" + std::string(semantics) + "/" +
                   AlgorithmKey(algorithm) + "/" + pressure.key] =
            Record(dirty, std::move(run));
      }
      RepairOptions options = BaseOptions(algorithm);
      PressureScope scope(pressure, &options);
      auto run = Repairer(options).RepairCFDs(dirty, cfds);
      note_stages("cfd", run);
      (*records)["cfd/ft-cost/" + std::string(AlgorithmKey(algorithm)) +
                 "/" + pressure.key] = Record(dirty, std::move(run));
    }
  }
  // Dispatch errors: an unknown semantics, and CFDs under a semantics
  // that cannot honour hard tableau constants.
  {
    RepairOptions options = BaseOptions(RepairAlgorithm::kGreedy);
    options.semantics = "nope";
    (*records)["fd/nope"] =
        Record(dirty, Repairer(options).Repair(dirty, fds));
    (*records)["cfd/nope"] =
        Record(dirty, Repairer(options).RepairCFDs(dirty, cfds));
  }
  for (const char* semantics : {"cardinality", "soft-fd"}) {
    RepairOptions options = BaseOptions(RepairAlgorithm::kGreedy);
    options.semantics = semantics;
    (*records)["cfd/" + std::string(semantics)] =
        Record(dirty, Repairer(options).RepairCFDs(dirty, cfds));
  }
}

bool UpdateMode() {
  const char* env = std::getenv("FTREPAIR_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(LadderGoldenTest, DegradationLadderMatchesCommittedGoldens) {
  std::map<std::string, std::string> records;
  std::map<std::string, std::set<std::string>> stages;
  ComputeRecords(&records, &stages);

  // Non-vacuity: the sweeps must actually walk both ladders.
  for (const char* stage : {"skip", "partial-graph", "exact->greedy",
                            "greedy->partial", "soft-valves", "error"}) {
    EXPECT_TRUE(stages["fd"].count(stage) > 0)
        << "FD sweep never reached " << stage;
    EXPECT_TRUE(stages["cfd"].count(stage) > 0)
        << "CFD sweep never reached " << stage;
  }
  // Only the FD entry point has multi-FD components to assign targets.
  EXPECT_TRUE(stages["fd"].count("partial-targets") > 0)
      << "FD sweep never reached partial-targets";

  if (const char* dump = std::getenv("FTREPAIR_LADDER_DUMP")) {
    std::ofstream out(dump);
    for (const auto& [key, record] : records) {
      out << key << "\n" << record << "\n\n";
    }
  }

  std::map<std::string, std::string> digests;
  for (const auto& [key, record] : records) {
    digests[key] = FingerprintDigest(record);
  }

  if (UpdateMode()) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << "# Degradation-ladder record digests (FNV-1a 64 of the record,\n"
        << "# ':', byte length). A record is the RepairResult fingerprint,\n"
        << "# every DegradationEvent and the ExplainReportJson with\n"
        << "# wall-clock fields zeroed, or the failure Status.\n"
        << "# Key: entry/semantics/algorithm/pressure, threads 1.\n"
        << "# Regenerate: FTREPAIR_UPDATE_GOLDENS=1 ./ladder_golden_test\n";
    for (const auto& [key, digest] : digests) {
      out << key << "=" << digest << "\n";
    }
    GTEST_SKIP() << "goldens rewritten at " << GoldenPath();
  }

  std::map<std::string, std::string> goldens;
  {
    std::ifstream in(GoldenPath());
    ASSERT_TRUE(in.good())
        << GoldenPath()
        << " missing; run with FTREPAIR_UPDATE_GOLDENS=1 to create it";
    std::string line;
    while (std::getline(in, line)) {
      size_t hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      std::string body(Trim(line));
      if (body.empty()) continue;
      size_t eq = body.find('=');
      ASSERT_NE(eq, std::string::npos) << "malformed golden: " << line;
      goldens[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
  ASSERT_EQ(digests.size(), goldens.size());
  for (const auto& [key, digest] : digests) {
    auto it = goldens.find(key);
    ASSERT_NE(it, goldens.end()) << "no golden for " << key;
    EXPECT_EQ(digest, it->second) << key << " drifted from the golden";
  }
}

}  // namespace
}  // namespace ftrepair
