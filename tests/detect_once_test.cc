// One detection phase. Repairer::Repair detects every FD exactly once
// (ViolationGraph::Detect, through DetectFDs) before any component
// runs, and every component indexes what it is handed
// (ViolationGraph::Index); statistics only decide whether the
// detections are summed and whether the after count runs. These tests
// pin what makes that exact:
//   * the graph indexed from the phase's detection equals a fresh
//     ViolationGraph::Build — same pattern codes, same neighbour order,
//     bit-identical doubles — for every FD of HOSP and Tax slices, at
//     threads 1 and 4, single-FD (BuildPatterns) and multi-FD
//     (BuildComponentContext's phi-patterns) alike;
//   * BuildComponentContext's phi-patterns carry BuildPatterns' codes
//     in BuildPatterns' order, with grouping on or off;
//   * InducedSubgraph on the CSR adjacency matches the brute-force
//     oracle;
//   * one Repairer::Repair detects each FD twice with statistics on
//     (the phase and the after count) and once with them off, grouped
//     or not, on Citizens and HOSP;
//   * a phase that truncates holds no detection and every component
//     skips, with statistics on or off.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "constraint/fd_graph.h"
#include "core/multi_common.h"
#include "core/repairer.h"
#include "detect/detector.h"
#include "detect/violation_graph.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::OracleMismatch;
using testing_util::ScopedEnv;

struct Slice {
  std::string name;
  Table dirty;
  std::vector<FD> fds;
  RepairOptions options;
};

Slice MakeSlice(const std::string& name, int rows) {
  Dataset ds = name == "hosp"
                   ? std::move(GenerateHosp(HospOptions{rows, 7})).ValueOrDie()
                   : std::move(GenerateTax(TaxOptions{rows, 11})).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 42;
  Slice s;
  s.name = name;
  s.dirty = std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
  s.fds = ds.fds;
  s.options.w_l = ds.recommended_w_l;
  s.options.w_r = ds.recommended_w_r;
  s.options.tau_by_fd = ds.recommended_tau;
  return s;
}

// Same vertices (codes and rows), same neighbour order, bit-identical
// doubles and the same candidate accounting.
void ExpectSameGraph(const ViolationGraph& got, const ViolationGraph& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_patterns(), want.num_patterns()) << where;
  EXPECT_EQ(got.num_edges(), want.num_edges()) << where;
  EXPECT_EQ(got.truncated(), want.truncated()) << where;
  EXPECT_EQ(got.candidates_generated(), want.candidates_generated()) << where;
  EXPECT_EQ(got.candidates_verified(), want.candidates_verified()) << where;
  EXPECT_EQ(got.candidates_filtered(), want.candidates_filtered()) << where;
  EXPECT_EQ(got.pairs_length_filtered(), want.pairs_length_filtered())
      << where;
  for (int i = 0; i < want.num_patterns(); ++i) {
    ASSERT_EQ(got.pattern(i).codes, want.pattern(i).codes)
        << where << " vertex " << i;
    EXPECT_EQ(got.pattern(i).count(), want.pattern(i).count())
        << where << " vertex " << i;
    EXPECT_EQ(got.MinEdgeCost(i), want.MinEdgeCost(i))
        << where << " vertex " << i;
    auto a = got.Neighbors(i);
    auto b = want.Neighbors(i);
    ASSERT_EQ(a.size(), b.size()) << where << " vertex " << i;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to) << where << " vertex " << i << " edge " << k;
      EXPECT_EQ(a[k].proj_dist, b[k].proj_dist)
          << where << " vertex " << i << " edge " << k;
      EXPECT_EQ(a[k].unit_cost, b[k].unit_cost)
          << where << " vertex " << i << " edge " << k;
    }
  }
}

class DetectOnceSliceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DetectOnceSliceTest, KeptDetectionIndexesToTheFreshGraph) {
  auto [name, threads] = GetParam();
  Slice s = MakeSlice(name, name == "hosp" ? 1500 : 800);
  s.options.threads = threads;
  DistanceModel model(s.dirty);

  // What the detection phase hands the components: one detection per FD
  // over BuildPatterns.
  std::vector<Detection> kept;
  for (const FD& fd : s.fds) {
    kept.push_back(ViolationGraph::Detect(BuildPatterns(s.dirty, fd.attrs()),
                                          s.dirty, fd, model,
                                          s.options.FTFor(fd)));
    EXPECT_FALSE(kept.back().truncated) << fd.name();
  }
  int multi_components = 0;
  const FDGraph fd_graph(s.fds);
  for (const std::vector<int>& component : fd_graph.Components()) {
    if (component.size() == 1) {
      const FD& fd = s.fds[static_cast<size_t>(component[0])];
      ViolationGraph indexed = ViolationGraph::Index(
          BuildPatterns(s.dirty, fd.attrs()),
          std::move(kept[static_cast<size_t>(component[0])]), nullptr);
      ViolationGraph fresh =
          ViolationGraph::Build(BuildPatterns(s.dirty, fd.attrs()), s.dirty,
                                fd, model, s.options.FTFor(fd));
      ExpectSameGraph(indexed, fresh, name + " " + fd.name());
      continue;
    }
    ++multi_components;
    std::vector<const FD*> fds;
    std::vector<Detection> detections;
    for (int idx : component) {
      fds.push_back(&s.fds[static_cast<size_t>(idx)]);
      detections.push_back(std::move(kept[static_cast<size_t>(idx)]));
    }
    ComponentContext from_kept =
        BuildComponentContext(s.dirty, fds, s.options, std::move(detections));
    ComponentContext detected =
        BuildComponentContext(s.dirty, fds, model, s.options);
    ASSERT_EQ(from_kept.graphs.size(), fds.size());
    for (size_t k = 0; k < fds.size(); ++k) {
      const FD& fd = *fds[k];
      std::string where = name + " " + fd.name();
      ExpectSameGraph(from_kept.graphs[k], detected.graphs[k], where);
      // The phi-patterns are BuildPatterns' patterns (codes and order;
      // rows may be listed in another order), so the edges equal a
      // fresh Build over BuildPatterns too.
      ViolationGraph fresh =
          ViolationGraph::Build(BuildPatterns(s.dirty, fd.attrs()), s.dirty,
                                fd, model, s.options.FTFor(fd));
      ExpectSameGraph(from_kept.graphs[k], fresh, where);
    }
  }
  EXPECT_GT(multi_components, 0);
}

TEST_P(DetectOnceSliceTest, PhiPatternsFollowBuildPatternsOrder) {
  auto [name, threads] = GetParam();
  Slice s = MakeSlice(name, 600);
  s.options.threads = threads;
  DistanceModel model(s.dirty);
  for (bool grouped : {true, false}) {
    s.options.group_tuples = grouped;
    const FDGraph fd_graph(s.fds);
    for (const std::vector<int>& component : fd_graph.Components()) {
      std::vector<const FD*> fds;
      for (int idx : component) fds.push_back(&s.fds[static_cast<size_t>(idx)]);
      ComponentContext context =
          BuildComponentContext(s.dirty, fds, model, s.options);
      for (size_t k = 0; k < fds.size(); ++k) {
        std::vector<Pattern> want = BuildPatterns(s.dirty, fds[k]->attrs());
        const ViolationGraph& graph = context.graphs[k];
        ASSERT_EQ(graph.num_patterns(), static_cast<int>(want.size()))
            << name << " " << fds[k]->name();
        for (int j = 0; j < graph.num_patterns(); ++j) {
          ASSERT_EQ(graph.pattern(j).codes,
                    want[static_cast<size_t>(j)].codes)
              << name << " " << fds[k]->name() << " phi-pattern " << j;
          ASSERT_EQ(graph.pattern(j).count(),
                    want[static_cast<size_t>(j)].count());
        }
      }
    }
  }
}

TEST_P(DetectOnceSliceTest, InducedSubgraphOnCsrMatchesOracle) {
  auto [name, threads] = GetParam();
  Slice s = MakeSlice(name, 400);
  DistanceModel model(s.dirty);
  size_t total_edges = 0;
  for (const FD& fd : s.fds) {
    FTOptions ft = s.options.FTFor(fd);
    ft.threads = threads;
    ViolationGraph g = ViolationGraph::Build(BuildPatterns(s.dirty, fd.attrs()),
                                             s.dirty, fd, model, ft);
    ASSERT_EQ(OracleMismatch(g, s.dirty, fd, model, ft.w_l, ft.w_r, ft.tau),
              "")
        << name << " " << fd.name();
    // Whole components, and every other vertex (an induced subgraph
    // keeps exactly the oracle's edges among its vertices).
    std::vector<std::vector<int>> subsets = g.ConnectedComponents();
    std::vector<int> every_other;
    for (int v = 0; v < g.num_patterns(); v += 2) every_other.push_back(v);
    subsets.push_back(every_other);
    size_t component_edges = 0;
    for (size_t c = 0; c < subsets.size(); ++c) {
      ViolationGraph sub = g.InducedSubgraph(subsets[c]);
      if (c + 1 < subsets.size()) component_edges += sub.num_edges();
      ASSERT_EQ(OracleMismatch(sub, s.dirty, fd, model, ft.w_l, ft.w_r,
                               ft.tau),
                "")
          << name << " " << fd.name() << " subset " << c;
    }
    EXPECT_EQ(component_edges, g.num_edges()) << name << " " << fd.name();
    total_edges += g.num_edges();
  }
  EXPECT_GT(total_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Slices, DetectOnceSliceTest,
    ::testing::Combine(::testing::Values("hosp", "tax"),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DetectOnceTest, CountReadsTheDetectionAndReleasesIt) {
  // 4000 rows: enough patterns that some detections join through a
  // BlockIndex, whose charge must be returned too.
  Slice s = MakeSlice("hosp", 4000);
  DistanceModel model(s.dirty);
  int indexed = 0;
  for (const FD& fd : s.fds) {
    MemoryBudget memory;
    FTOptions ft = s.options.FTFor(fd);
    ft.memory = &memory;
    uint64_t count = CountFTViolations(s.dirty, fd, model, ft);
    ViolationGraph g = ViolationGraph::Build(
        BuildPatterns(s.dirty, fd.attrs()), s.dirty, fd, model,
        s.options.FTFor(fd));
    uint64_t want = 0;
    for (int i = 0; i < g.num_patterns(); ++i) {
      for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
        if (e.to > i) {
          want += static_cast<uint64_t>(g.pattern(i).count()) *
                  static_cast<uint64_t>(g.pattern(e.to).count());
        }
      }
    }
    EXPECT_EQ(count, want) << fd.name();
    // A count-only caller returns what detection charged, the block
    // index's postings included.
    EXPECT_EQ(memory.resident_bytes(), 0u) << fd.name();
    if (g.num_edges() > 0) {
      EXPECT_GT(memory.peak_bytes(), 0u) << fd.name();
    }
    indexed += memory.charged_bytes(MemPhase::kIndex) > 0;
  }
  EXPECT_GT(indexed, 0);
}

TEST(DetectOnceTest, IndexReplacesTheDetectionCharge) {
  Slice s = MakeSlice("hosp", 600);
  DistanceModel model(s.dirty);
  for (const FD& fd : s.fds) {
    MemoryBudget memory;
    FTOptions ft = s.options.FTFor(fd);
    ft.memory = &memory;
    std::vector<Pattern> patterns = BuildPatterns(s.dirty, fd.attrs());
    Detection detection =
        ViolationGraph::Detect(patterns, s.dirty, fd, model, ft);
    const uint64_t edges = detection.edges.size();
    EXPECT_EQ(memory.resident_bytes(), edges * sizeof(DetectedEdge))
        << fd.name();
    ViolationGraph g = ViolationGraph::Index(std::move(patterns),
                                             std::move(detection), &memory);
    // The CSR arrays, and nothing of the list they replaced.
    EXPECT_EQ(memory.resident_bytes(),
              (static_cast<uint64_t>(g.num_patterns()) + 1) * sizeof(size_t) +
                  2 * edges * sizeof(ViolationGraph::Edge))
        << fd.name();
    EXPECT_EQ(g.num_edges(), edges) << fd.name();
  }
}

uint64_t GraphBuildSamples() {
  return Metrics().GetHistogram("ftrepair.detect.graph_build_ms")->count();
}

// The paper's running example: phi1 is a single-FD component, phi2 and
// phi3 share City.
Slice CitizensSlice() {
  Slice s;
  s.name = "citizens";
  s.dirty = CitizensDirty();
  s.fds = CitizensFDs(s.dirty.schema());
  s.options.tau_by_fd = {{"phi1", 0.3}, {"phi2", 0.5}, {"phi3", 0.5}};
  return s;
}

TEST(DetectOnceTest, RepairDetectsEachFdOncePerPass) {
  int singletons = 0;
  for (const Slice& s : {CitizensSlice(), MakeSlice("hosp", 1000)}) {
    const FDGraph fd_graph(s.fds);
    for (const std::vector<int>& component : fd_graph.Components()) {
      singletons += component.size() == 1;
    }
    for (int threads : {1, 4}) {
      for (bool stats : {true, false}) {
        uint64_t grouped_before = 0;
        uint64_t grouped_after = 0;
        for (bool grouped : {true, false}) {
          std::string where = s.name + " threads " + std::to_string(threads) +
                              " stats " + std::to_string(stats) +
                              " grouped " + std::to_string(grouped);
          RepairOptions options = s.options;
          options.threads = threads;
          options.compute_violation_stats = stats;
          options.group_tuples = grouped;
          uint64_t before = GraphBuildSamples();
          auto result = Repairer(options).Repair(s.dirty, s.fds);
          ASSERT_TRUE(result.ok()) << where << ": "
                                   << result.status().ToString();
          // The detection phase, whose detections the solve indexes, and
          // with statistics on the after count.
          EXPECT_EQ(GraphBuildSamples() - before,
                    (stats ? 2 : 1) * s.fds.size())
              << where;
          const RepairStats& got = result.value().stats;
          if (grouped) {
            grouped_before = got.ft_violations_before;
            grouped_after = got.ft_violations_after;
          } else {
            // Row vertices count the same tuple pairs.
            EXPECT_EQ(got.ft_violations_before, grouped_before) << where;
            EXPECT_EQ(got.ft_violations_after, grouped_after) << where;
          }
        }
        if (stats) {
          EXPECT_GT(grouped_before, 0u) << s.name;
        }
      }
    }
  }
  // Not vacuous: grouping off gives Citizens' phi1 row vertices.
  EXPECT_GT(singletons, 0);
}

// Statistics on or off, the solve indexes the same detections.
TEST(DetectOnceTest, KeptAndSelfDetectedRepairsAgree) {
  Slice s = MakeSlice("hosp", 1000);
  RepairOptions with_stats = s.options;
  RepairOptions without_stats = s.options;
  without_stats.compute_violation_stats = false;
  auto kept = Repairer(with_stats).Repair(s.dirty, s.fds);
  auto self = Repairer(without_stats).Repair(s.dirty, s.fds);
  ASSERT_TRUE(kept.ok() && self.ok());
  EXPECT_EQ(kept.value().changes.size(), self.value().changes.size());
  EXPECT_EQ(kept.value().stats.repair_cost, self.value().stats.repair_cost);
  for (int r = 0; r < s.dirty.num_rows(); ++r) {
    for (int c = 0; c < s.dirty.num_columns(); ++c) {
      ASSERT_EQ(kept.value().repaired.cell(r, c),
                self.value().repaired.cell(r, c))
          << "row " << r << " col " << c;
    }
  }
}

// --- A detection phase that truncates -------------------------------
//
// When any detection truncates, the phase drops every detection it
// held: the resources are spent, so every component skips, with
// statistics on or off. No component detects, nothing is charged by
// the time the components skip (a hard-limit skip reason prints the
// resident bytes), and nothing stays charged at the end.

// Runs Citizens under `budget` / `memory`; true when the detection
// phase truncated, in which case it checks the invariants above. With
// `stats` the before count's degradation says so; without, the
// truncated-detection counter (no component detects).
bool ExpectTruncatedCountSkipsAll(const Budget* budget,
                                  const MemoryBudget& memory, bool stats,
                                  const std::string& where) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.default_tau = 0.3;
  options.budget = budget;
  options.memory = &memory;
  options.compute_violation_stats = stats;
  Counter* truncated_builds =
      Metrics().GetCounter("ftrepair.detect.truncated_builds");
  uint64_t truncated_before = truncated_builds->value();
  uint64_t builds_before = GraphBuildSamples();
  auto result = Repairer(options).Repair(dirty, fds);
  EXPECT_TRUE(result.ok()) << where << ": " << result.status().ToString();
  if (!result.ok()) return false;
  const RepairStats& run = result.value().stats;
  bool detection_truncated = false;
  if (stats) {
    for (const DegradationEvent& event : run.degradations) {
      detection_truncated |= event.component == "violation-stats" &&
                             event.reason.find("ft_violations_before") !=
                                 std::string::npos;
    }
  } else {
    detection_truncated = truncated_builds->value() > truncated_before;
  }
  if (!detection_truncated) return false;
  std::map<std::string, std::string> stage_of;
  for (const DegradationEvent& event : run.degradations) {
    if (event.component == "violation-stats") continue;
    stage_of[event.component] = event.stage;
    if (event.reason.find("(resident ") != std::string::npos) {
      EXPECT_NE(event.reason.find("(resident 0,"), std::string::npos)
          << where << ": " << event.reason;
    }
  }
  const FDGraph fd_graph(fds);
  for (const std::vector<int>& component : fd_graph.Components()) {
    std::string name;
    for (int idx : component) {
      if (!name.empty()) name += "+";
      name += fds[static_cast<size_t>(idx)].name();
    }
    EXPECT_EQ(stage_of[name], "skip") << where << ": component " << name;
  }
  EXPECT_TRUE(result.value().changes.empty()) << where;
  // Only the detection phase and the after count detected, and no
  // detection is left charged.
  EXPECT_EQ(GraphBuildSamples() - builds_before,
            (stats ? 2 : 1) * fds.size())
      << where;
  EXPECT_EQ(memory.resident_bytes(), 0u) << where;
  return true;
}

std::string StatsName(bool stats) {
  return stats ? " (stats on)" : " (stats off)";
}

TEST(DetectOnceChaosTest, BudgetTruncatedCountSkipsEveryComponent) {
  // Units the detection phase charges on its own: one per candidate
  // pair.
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  DistanceModel model(dirty);
  RepairOptions options;
  options.default_tau = 0.3;
  Budget calibrate(1e9);
  for (const FD& fd : fds) {
    CountFTViolations(dirty, fd, model, options.FTFor(fd), &calibrate);
  }
  ASSERT_GT(calibrate.units_charged(), 0u);
  for (bool stats : {true, false}) {
    int truncated_runs = 0;
    for (uint64_t units = 1; units <= calibrate.units_charged(); ++units) {
      ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", std::to_string(units));
      Budget budget(1e9);
      MemoryBudget memory;
      truncated_runs += ExpectTruncatedCountSkipsAll(
          &budget, memory, stats,
          "fault at " + std::to_string(units) + " units" + StatsName(stats));
    }
    EXPECT_GT(truncated_runs, 0) << StatsName(stats);
  }
}

TEST(DetectOnceChaosTest, MemoryTruncatedCountSkipsEveryComponent) {
  for (bool stats : {true, false}) {
    int truncated_runs = 0;
    for (int bytes = 1; bytes <= 1024; bytes += 8) {
      ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(bytes));
      MemoryBudget memory(uint64_t{1} << 40);  // limited → the seam is live
      truncated_runs += ExpectTruncatedCountSkipsAll(
          nullptr, memory, stats,
          "fault at " + std::to_string(bytes) + " bytes" + StatsName(stats));
    }
    EXPECT_GT(truncated_runs, 0) << StatsName(stats);
  }
}

TEST(DetectOnceChaosTest, HardLimitTruncatedCountHoldsNothing) {
  for (bool stats : {true, false}) {
    int truncated_runs = 0;
    for (int limit = 8; limit <= 1024; limit += 8) {
      MemoryBudget memory(static_cast<uint64_t>(limit));
      truncated_runs += ExpectTruncatedCountSkipsAll(
          nullptr, memory, stats,
          "hard limit " + std::to_string(limit) + " bytes" +
              StatsName(stats));
    }
    EXPECT_GT(truncated_runs, 0) << StatsName(stats);
  }
}

}  // namespace
}  // namespace ftrepair
