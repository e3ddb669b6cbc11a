// Golden end-to-end regression suite for the default (ft-cost) repair
// semantics.
//
// Every (corpus, algorithm) instance is repaired at {threads 1,2,4,8},
// the whole RepairResult is fingerprinted byte for byte (repaired
// table, change list, cost, stats counters), and the fingerprint hash
// is compared against a committed golden. The committed goldens
// predate the repair-semantics layer (core/semantics.h), the single
// dictionary-coded detect path, the single distance kernel and the
// build-owned join choice, so a passing run proves the current pipeline
// is bit-identical to the original one — future refactors diff against
// these files instead of recomputing oracles.
//
// Regenerating (only when an intentional behavior change lands):
//   FTREPAIR_UPDATE_GOLDENS=1 ./semantics_golden_test
// rewrites tests/goldens/ft_cost_fingerprints.txt in the source tree.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "constraint/fd.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;

#ifndef FTREPAIR_GOLDEN_DIR
#error "build must define FTREPAIR_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

std::string GoldenPath() {
  return std::string(FTREPAIR_GOLDEN_DIR) + "/ft_cost_fingerprints.txt";
}

// Byte-level fingerprint of everything a repair produced (two runs with
// equal fingerprints made the same decisions everywhere).
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

// Stable 64-bit FNV-1a of the fingerprint bytes, committed (with the
// byte length) instead of the multi-kilobyte fingerprint itself.
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

// One repair corpus of the golden matrix.
struct Corpus {
  std::string name;
  Table table;
  std::vector<FD> fds;
  double w_l = 0.5;
  double w_r = 0.5;
  double default_tau = 0.2;
  std::unordered_map<std::string, double> tau_by_fd;
};

Table DirtySlice(const Dataset& dataset, int rows) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  Table dirty =
      std::move(InjectErrors(dataset.clean, dataset.fds, noise, nullptr))
          .ValueOrDie();
  return dirty.Head(rows);
}

// Citizens at full size; HOSP/Tax sliced so the exact expansion solver
// finishes in test time (its valves would otherwise degrade the run,
// which is still deterministic but stops pinning the exact rung).
std::vector<Corpus> GoldenCorpora() {
  std::vector<Corpus> corpora;
  {
    Corpus c;
    c.name = "citizens";
    c.table = CitizensDirty();
    c.fds = CitizensFDs(c.table.schema());
    c.default_tau = 0.4;
    corpora.push_back(std::move(c));
  }
  {
    Dataset hosp =
        std::move(GenerateHosp({.num_rows = 400, .seed = 7})).ValueOrDie();
    Corpus c;
    c.name = "hosp";
    c.table = DirtySlice(hosp, 400);
    c.fds = hosp.fds;
    c.w_l = hosp.recommended_w_l;
    c.w_r = hosp.recommended_w_r;
    c.tau_by_fd = hosp.recommended_tau;
    corpora.push_back(std::move(c));
  }
  {
    Dataset tax =
        std::move(GenerateTax({.num_rows = 300, .seed = 11})).ValueOrDie();
    Corpus c;
    c.name = "tax";
    c.table = DirtySlice(tax, 300);
    c.fds = tax.fds;
    c.w_l = tax.recommended_w_l;
    c.w_r = tax.recommended_w_r;
    c.tau_by_fd = tax.recommended_tau;
    corpora.push_back(std::move(c));
  }
  return corpora;
}

RepairOptions BaseOptions(const Corpus& corpus, RepairAlgorithm algorithm) {
  RepairOptions options;
  options.algorithm = algorithm;
  options.w_l = corpus.w_l;
  options.w_r = corpus.w_r;
  options.default_tau = corpus.default_tau;
  options.tau_by_fd = corpus.tau_by_fd;
  return options;
}

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

bool UpdateMode() {
  const char* env = std::getenv("FTREPAIR_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The full matrix evaluation: every corpus x algorithm pinned to ONE
// digest across {threads} — one golden per (corpus, algorithm), because
// the thread count may not change a single output byte.
void ComputeDigests(std::map<std::string, std::string>* digests) {
  for (const Corpus& corpus : GoldenCorpora()) {
    for (RepairAlgorithm algorithm :
         {RepairAlgorithm::kExact, RepairAlgorithm::kGreedy,
          RepairAlgorithm::kApproJoin}) {
      const std::string key =
          corpus.name + "/" + AlgorithmKey(algorithm);
      std::string reference;
      for (int threads : {1, 2, 4, 8}) {
        RepairOptions options = BaseOptions(corpus, algorithm);
        options.threads = threads;
        auto result = Repairer(options).Repair(corpus.table, corpus.fds);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::string fp = Fingerprint(result.value());
        if (reference.empty()) {
          reference = fp;
        } else {
          ASSERT_EQ(FingerprintDigest(fp), FingerprintDigest(reference))
              << key << " diverged at threads=" << threads;
        }
      }
      (*digests)[key] = FingerprintDigest(reference);
    }
  }
}

TEST(SemanticsGoldenTest, FtCostMatrixMatchesCommittedGoldens) {
  std::map<std::string, std::string> digests;
  ComputeDigests(&digests);
  if (HasFatalFailure()) return;
  ASSERT_EQ(digests.size(), 9u);  // 3 corpora x 3 algorithms

  if (UpdateMode()) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << "# Pre-refactor ft-cost RepairResult fingerprint digests\n"
        << "# (FNV-1a 64 of the full fingerprint, ':', byte length).\n"
        << "# One digest per corpus/algorithm: every {threads 1,2,4,8}\n"
        << "# run must reproduce it byte for byte.\n"
        << "# Regenerate: FTREPAIR_UPDATE_GOLDENS=1 "
           "./semantics_golden_test\n";
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
  EXPECT_EQ(digests, goldens)
      << "ft-cost output drifted from the pre-refactor goldens";
}

}  // namespace
}  // namespace ftrepair
