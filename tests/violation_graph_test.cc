#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "detect/violation_graph.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;

ViolationGraph Phi1Graph(const Table& t, const DistanceModel& model,
                         double tau = 0.35) {
  std::vector<FD> fds = CitizensFDs(t.schema());
  return ViolationGraph::Build(BuildPatterns(t, fds[0].attrs()), t, fds[0],
                               model, FTOptions{0.5, 0.5, tau});
}

// Pattern id of a phi1 graph over `t` whose values match (education,
// level); -1 if absent.
int FindPattern(const ViolationGraph& g, const Table& t,
                const char* education, double level) {
  const std::vector<int> cols = CitizensFDs(t.schema())[0].attrs();
  for (int i = 0; i < g.num_patterns(); ++i) {
    if (DecodeProjection(t, cols, g.pattern(i).codes) ==
        std::vector<Value>{Value(education), Value(level)}) {
      return i;
    }
  }
  return -1;
}

bool HasEdge(const ViolationGraph& g, int a, int b) {
  for (const ViolationGraph::Edge& e : g.Neighbors(a)) {
    if (e.to == b) return true;
  }
  return false;
}

TEST(ViolationGraphTest, PaperFig2Structure) {
  // Fig. 2 graph of phi1 over Table 1 (grouped patterns).
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  ASSERT_EQ(g.num_patterns(), 7);
  int bachelors3 = FindPattern(g, t, "Bachelors", 3);
  int bachelors1 = FindPattern(g, t, "Bachelors", 1);
  int bachelers3 = FindPattern(g, t, "Bachelers", 3);
  int masters4 = FindPattern(g, t, "Masters", 4);
  int masters3 = FindPattern(g, t, "Masters", 3);
  int masers4 = FindPattern(g, t, "Masers", 4);
  int hsgrad9 = FindPattern(g, t, "HS-grad", 9);
  ASSERT_GE(bachelors3, 0);
  ASSERT_GE(masers4, 0);
  // Edges shown in Fig. 2.
  EXPECT_TRUE(HasEdge(g, bachelors3, bachelors1));  // (t1, t9)
  EXPECT_TRUE(HasEdge(g, bachelors3, bachelers3));  // (t1, t10)
  EXPECT_TRUE(HasEdge(g, masters4, masers4));       // (t4, t6)
  EXPECT_TRUE(HasEdge(g, masters4, masters3));      // (t4, t8)
  // HS-grad is isolated (far from everything).
  EXPECT_EQ(g.degree(hsgrad9), 0);
  EXPECT_DOUBLE_EQ(g.MinEdgeCost(hsgrad9), ViolationGraph::kInfinity);
}

TEST(ViolationGraphTest, EdgeWeightsMatchExample7) {
  // omega(t1, t9) = dist(Bachelors, Bachelors) + |3-1|/8 = 0.25.
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  int bachelors3 = FindPattern(g, t, "Bachelors", 3);
  int bachelors1 = FindPattern(g, t, "Bachelors", 1);
  double unit = -1;
  for (const ViolationGraph::Edge& e : g.Neighbors(bachelors3)) {
    if (e.to == bachelors1) unit = e.unit_cost;
  }
  EXPECT_DOUBLE_EQ(unit, 0.25);
}

TEST(ViolationGraphTest, IdenticalProjectionsNeverEdge) {
  // Two patterns cannot share values by construction, but passing
  // ungrouped duplicates must not create edges either.
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  std::vector<Pattern> per_row;
  for (int r = 0; r < t.num_rows(); ++r) {
    std::vector<Pattern> one = BuildPatternsForRows(t, fds[0].attrs(), {r});
    per_row.push_back(std::move(one[0]));
  }
  ViolationGraph g = ViolationGraph::Build(std::move(per_row), t, fds[0],
                                           model, FTOptions{0.5, 0.5, 0.35});
  // Rows 0 and 1 share (Bachelors, 3): no edge between them.
  EXPECT_FALSE(HasEdge(g, 0, 1));
}

TEST(ViolationGraphTest, LengthFilterIsLossless) {
  // The cheap length filter must not change the edge set: build with a
  // model over random data and compare against a brute-force edge count.
  Table t = RandomFDTable(60, 3, 6, 20, 77);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  FTOptions opts{0.5, 0.5, 0.4};
  ViolationGraph g = ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t,
                                           fd, model, opts);
  // Recount edges without any filtering, over decoded value vectors.
  std::vector<std::vector<Value>> projections;
  for (const Pattern& p : BuildPatterns(t, fd.attrs())) {
    projections.push_back(DecodeProjection(t, fd.attrs(), p.codes));
  }
  size_t expected = 0;
  for (size_t i = 0; i < projections.size(); ++i) {
    for (size_t j = i + 1; j < projections.size(); ++j) {
      if (projections[i] == projections[j]) continue;
      double d = ViolationGraph::ProjDistance(projections[i], projections[j],
                                              fd, model, 0.5, 0.5);
      if (d <= opts.tau) ++expected;
    }
  }
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_GT(g.candidates_verified() + g.pairs_length_filtered(), 0u);
}

TEST(ViolationGraphTest, GroupedWeightsUseMultiplicity) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  int bachelors3 = FindPattern(g, t, "Bachelors", 3);
  EXPECT_EQ(g.pattern(bachelors3).count(), 3);  // t1, t2, t3
}

TEST(ViolationGraphTest, ConnectedComponentsAndSubgraph) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  auto components = g.ConnectedComponents();
  // At tau = 0.35 the Bachelors and Masters clusters are linked through
  // the (Bachelors, 3)-(Masters, 4) pair (distance 0.34); HS-grad stays
  // isolated.
  EXPECT_EQ(components.size(), 2u);
  for (const auto& comp : components) {
    ViolationGraph sub = g.InducedSubgraph(comp);
    EXPECT_EQ(sub.num_patterns(), static_cast<int>(comp.size()));
    // Edge endpoints must stay inside.
    for (int i = 0; i < sub.num_patterns(); ++i) {
      for (const ViolationGraph::Edge& e : sub.Neighbors(i)) {
        EXPECT_GE(e.to, 0);
        EXPECT_LT(e.to, sub.num_patterns());
      }
    }
  }
}

TEST(ViolationGraphTest, SubgraphPreservesEdgeData) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  auto components = g.ConnectedComponents();
  size_t total_edges = 0;
  for (const auto& comp : components) {
    total_edges += g.InducedSubgraph(comp).num_edges();
  }
  EXPECT_EQ(total_edges, g.num_edges());
}

TEST(ViolationGraphTest, SubgraphPropagatesTruncationAndStats) {
  // Regression: InducedSubgraph used to drop truncated() and the pair
  // stats, so per-component solvers working off a budget-truncated
  // graph believed detection had been complete.
  setenv("FTREPAIR_FAULT_BUDGET_UNITS", "40", 1);
  Table t = RandomFDTable(80, 3, 12, 25, 5);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  Budget budget(1e9);  // limited, so the fault seam applies
  ViolationGraph g =
      ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model,
                            FTOptions{0.5, 0.5, 0.45}, &budget);
  unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
  ASSERT_TRUE(g.truncated());
  for (const auto& comp : g.ConnectedComponents()) {
    ViolationGraph sub = g.InducedSubgraph(comp);
    EXPECT_TRUE(sub.truncated());
    EXPECT_EQ(sub.candidates_verified(), g.candidates_verified());
    EXPECT_EQ(sub.pairs_length_filtered(), g.pairs_length_filtered());
  }
}

TEST(ViolationGraphTest, SubgraphOfCompleteBuildIsNotTruncated) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  ASSERT_FALSE(g.truncated());
  for (const auto& comp : g.ConnectedComponents()) {
    EXPECT_FALSE(g.InducedSubgraph(comp).truncated());
  }
}

TEST(ViolationGraphTest, ReleasedGraphKeepsPatternsAndCounters) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  std::vector<Pattern> patterns = BuildPatterns(t, fds[0].attrs());
  FTOptions opts{0.5, 0.5, 0.35};
  MemoryBudget memory;
  opts.memory = &memory;
  Detection detection =
      ViolationGraph::Detect(patterns, t, fds[0], model, opts);
  ViolationGraph g =
      ViolationGraph::Index(patterns, std::move(detection), &memory);
  const size_t edges = g.num_edges();
  const uint64_t verified = g.candidates_verified();
  ASSERT_GT(edges, 0u);
  ASSERT_GT(memory.resident_bytes(), 0u);

  EXPECT_GT(g.ReleaseEdges(), 0u);
  EXPECT_EQ(memory.resident_bytes(), 0u);  // the CSR's charge came back
  EXPECT_EQ(g.num_patterns(), 7);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_EQ(g.candidates_verified(), verified);
  EXPECT_FALSE(g.truncated());
  EXPECT_EQ(g.pattern(0).codes, patterns[0].codes);
  EXPECT_DEATH(g.Neighbors(0), "DCHECK");
}

TEST(ViolationGraphTest, EmptyInput) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  ViolationGraph g = ViolationGraph::Build({}, t, fds[0], model,
                                           FTOptions{0.5, 0.5, 0.3});
  EXPECT_EQ(g.num_patterns(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.ConnectedComponents().empty());
}

}  // namespace
}  // namespace ftrepair
