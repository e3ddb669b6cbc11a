// Differential oracle for Greedy-M (Algorithm 4). The production grow
// loop keeps candidates in a lazy-deletion heap and rescores only the
// slots whose inputs an Add changed; the reference below is the
// historical full-rescan solver it replaced, kept verbatim (its serial
// scan) as a test-only oracle. The two must choose the same patterns in
// the same order and produce bit-identical targets and costs. The
// reference walks each neighbor's adjacency and sorts its eligible
// targets, and looks substituted projections up by value
// (ProjectionHash). The production solver merges the candidate into a
// per-pattern head of chosen targets, and finds a substituted
// projection by the dictionary-coded ids of its shared and residual
// tuples in a per-FD-pair table. So the suite also checks the heads and
// the substitution tables against that value-keyed, full-walk original.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"
#include "core/greedy_multi.h"
#include "core/repairer.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;
using testing_util::ScopedEnv;

// ---------------------------------------------------------------------------
// Reference: the full-rescan Greedy-M, verbatim.

constexpr double kInf = ViolationGraph::kInfinity;

struct GreedyMultiState {
  const ComponentContext* ctx;
  const RepairOptions* options;

  size_t num_fds;
  // Per FD: chosen membership, conflict counts against the chosen set.
  std::vector<std::vector<bool>> chosen;
  std::vector<std::vector<int>> blocked;
  std::vector<std::vector<int>> chosen_list;
  // Per FD: cheapest unit cost from each pattern to the chosen set.
  std::vector<std::vector<double>> best_unit;
  size_t remaining = 0;  // candidates not yet chosen nor blocked

  // Per FD: each phi-pattern's decoded value vector, and the lookup
  // from those values back to the phi-pattern id.
  std::vector<std::vector<std::vector<Value>>> phi_values;
  std::vector<std::unordered_map<std::vector<Value>, int, ProjectionHash>>
      phi_index;
  // Per FD: component position of each of its attrs.
  std::vector<std::vector<int>> attr_pos;
  // Per FD pair (k, j): shared component positions, empty if disjoint.
  std::vector<std::vector<std::vector<int>>> shared_pos;

  void Init(const ComponentContext& context, const RepairOptions& opts) {
    ctx = &context;
    options = &opts;
    num_fds = context.fds.size();
    chosen.resize(num_fds);
    blocked.resize(num_fds);
    chosen_list.resize(num_fds);
    best_unit.resize(num_fds);
    phi_values.resize(num_fds);
    phi_index.resize(num_fds);
    attr_pos.resize(num_fds);
    shared_pos.assign(num_fds, std::vector<std::vector<int>>(num_fds));

    std::unordered_map<int, int> col_to_pos;
    for (size_t p = 0; p < context.component_cols.size(); ++p) {
      col_to_pos.emplace(context.component_cols[p], static_cast<int>(p));
    }
    for (size_t k = 0; k < num_fds; ++k) {
      int n = context.graphs[k].num_patterns();
      chosen[k].assign(static_cast<size_t>(n), false);
      blocked[k].assign(static_cast<size_t>(n), 0);
      best_unit[k].assign(static_cast<size_t>(n), kInf);
      remaining += static_cast<size_t>(n);
      for (int j = 0; j < n; ++j) {
        phi_values[k].push_back(
            DecodeProjection(*context.table, context.fds[k]->attrs(),
                             context.graphs[k].pattern(j).codes));
        phi_index[k].emplace(phi_values[k].back(), j);
      }
      for (int c : context.fds[k]->attrs()) {
        attr_pos[k].push_back(col_to_pos.at(c));
      }
    }
    for (size_t k = 0; k < num_fds; ++k) {
      for (size_t j = 0; j < num_fds; ++j) {
        if (j == k) continue;
        for (int pk : attr_pos[k]) {
          if (std::find(attr_pos[j].begin(), attr_pos[j].end(), pk) !=
              attr_pos[j].end()) {
            shared_pos[k][j].push_back(pk);
          }
        }
      }
    }
  }

  bool IsCandidate(size_t k, int v) const {
    return !chosen[k][static_cast<size_t>(v)] &&
           blocked[k][static_cast<size_t>(v)] == 0;
  }

  // At most this many underlying Sigma-patterns (resp. candidate
  // targets) are cross-scored per neighbor — a bounded approximation
  // that keeps Eq. 12 evaluation within the paper's O(Sigma * V^2).
  static constexpr size_t kMaxCrossSigmas = 8;
  static constexpr size_t kMaxCrossTargets = 3;

  // Conflict indicator of sigma-pattern s against FD j's chosen set,
  // after hypothetically rewriting the shared positions with the values
  // of phi-pattern `u` of FD k (u < 0 means "no rewrite").
  int ConflictAfter(size_t k, int u, size_t j, int sigma) const {
    int cur_phi = ctx->phi_of_sigma[j][static_cast<size_t>(sigma)];
    if (u < 0 || shared_pos[k][j].empty()) {
      return blocked[j][static_cast<size_t>(cur_phi)] > 0 ? 1 : 0;
    }
    const std::vector<Value>& cur_values =
        phi_values[j][static_cast<size_t>(cur_phi)];
    const std::vector<Value>& u_values = phi_values[k][static_cast<size_t>(u)];
    // Check for a change before paying for a projection copy.
    bool changed = false;
    for (size_t a = 0; a < attr_pos[k].size() && !changed; ++a) {
      int pos = attr_pos[k][a];
      auto it = std::find(attr_pos[j].begin(), attr_pos[j].end(), pos);
      if (it == attr_pos[j].end()) continue;
      size_t jp = static_cast<size_t>(it - attr_pos[j].begin());
      changed = cur_values[jp] != u_values[a];
    }
    if (!changed) {
      return blocked[j][static_cast<size_t>(cur_phi)] > 0 ? 1 : 0;
    }
    std::vector<Value> proj = cur_values;
    for (size_t a = 0; a < attr_pos[k].size(); ++a) {
      int pos = attr_pos[k][a];
      auto it = std::find(attr_pos[j].begin(), attr_pos[j].end(), pos);
      if (it == attr_pos[j].end()) continue;
      proj[static_cast<size_t>(it - attr_pos[j].begin())] = u_values[a];
    }
    auto found = phi_index[j].find(proj);
    // A projection that exists nowhere in the data would be *created*
    // by this modification — count it as a triggered violation ("trigger
    // less violations for phi_j", §4.4): the close-world model would
    // have to invent the combination.
    if (found == phi_index[j].end()) return 1;
    return blocked[j][static_cast<size_t>(found->second)] > 0 ? 1 : 0;
  }

  // Synchronization-aware score of repairing neighbor v (of FD k) to
  // target u, per underlying tuple (Eq. 12's inner choice).
  double TargetScore(size_t k, int v, int u, double edge_cost) const {
    double score = edge_cost;
    double w = options->cross_weight;
    if (w <= 0) return score;
    const std::vector<int>& sigmas =
        ctx->sigma_of_phi[k][static_cast<size_t>(v)];
    size_t limit = std::min(sigmas.size(), kMaxCrossSigmas);
    for (size_t j = 0; j < num_fds; ++j) {
      if (j == k || shared_pos[k][j].empty()) continue;
      double delta = 0;
      int total = 0;
      for (size_t si = 0; si < limit; ++si) {
        int sigma = sigmas[si];
        int cnt = (*ctx->sigma_patterns)[static_cast<size_t>(sigma)].count();
        delta += cnt * (ConflictAfter(k, u, j, sigma) -
                        ConflictAfter(k, -1, j, sigma));
        total += cnt;
      }
      if (total > 0) score += w * delta / total;
    }
    return score;
  }

  // Eq. 12 with marginal accounting and exclusion regret: grouped tuple
  // cost of adding candidate phi-pattern c to FD k's chosen set. Every
  // conflicting neighbor is priced at its best eligible modification
  // (only the cheapest few targets by edge cost are cross-scored);
  // neighbors already covered by the chosen set contribute only their
  // improvement, and the candidate's own exclusion cost is netted out
  // (see greedy_single.cc for the rationale).
  double CandidateCost(size_t k, int c) const {
    const ViolationGraph& graph = ctx->graphs[k];
    double cost = 0;
    std::vector<std::pair<double, int>> eligible;
    for (const ViolationGraph::Edge& e : graph.Neighbors(c)) {
      int v = e.to;
      if (chosen[k][static_cast<size_t>(v)]) continue;  // cannot happen
      // Eligible targets for v: the candidate itself plus realized
      // members of the chosen set among v's neighbors.
      eligible.clear();
      for (const ViolationGraph::Edge& t : graph.Neighbors(v)) {
        if (t.to == c || chosen[k][static_cast<size_t>(t.to)]) {
          eligible.emplace_back(t.unit_cost, t.to);
        }
      }
      double best;
      if (eligible.empty()) {
        best = e.unit_cost;  // v's only anchor is c itself
      } else {
        std::sort(eligible.begin(), eligible.end());
        size_t limit = std::min(eligible.size(), kMaxCrossTargets);
        best = kInf;
        for (size_t t = 0; t < limit; ++t) {
          best = std::min(best, TargetScore(k, v, eligible[t].second,
                                            eligible[t].first));
        }
      }
      double covered = best_unit[k][static_cast<size_t>(v)];
      double contribution =
          covered == kInf ? best : std::min(best, covered) - covered;
      cost += graph.pattern(v).count() * contribution;
    }
    double mec = graph.MinEdgeCost(c);
    if (mec != kInf) cost -= graph.pattern(c).count() * mec;
    return cost;
  }

  void Add(size_t k, int c) {
    bool was_candidate = IsCandidate(k, c);
    chosen[k][static_cast<size_t>(c)] = true;
    chosen_list[k].push_back(c);
    if (was_candidate) --remaining;
    for (const ViolationGraph::Edge& e : ctx->graphs[k].Neighbors(c)) {
      best_unit[k][static_cast<size_t>(e.to)] = std::min(
          best_unit[k][static_cast<size_t>(e.to)], e.unit_cost);
      if (blocked[k][static_cast<size_t>(e.to)]++ == 0 &&
          !chosen[k][static_cast<size_t>(e.to)]) {
        --remaining;  // freshly blocked
      }
    }
  }
};

Result<MultiFDSolution> ReferenceGreedyMulti(const ComponentContext& context,
                                             const DistanceModel& model,
                                             const RepairOptions& options,
                                             RepairStats* stats) {
  GreedyMultiState state;
  state.Init(context, options);

  // Trusted phi-patterns are pinned first (other tuples repair toward
  // them), then isolated phi-patterns join unconditionally.
  for (size_t k = 0; k < state.num_fds; ++k) {
    if (options.trusted_rows.empty()) break;
    std::vector<bool> forced = TrustedPatternMask(
        context.graphs[k].patterns(), options.trusted_rows);
    for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
      if (!forced[static_cast<size_t>(v)]) continue;
      if (state.blocked[k][static_cast<size_t>(v)] > 0 && stats != nullptr) {
        ++stats->trusted_conflicts;
      }
      state.Add(k, v);
    }
  }
  for (size_t k = 0; k < state.num_fds; ++k) {
    for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
      if (context.graphs[k].degree(v) == 0 &&
          !state.chosen[k][static_cast<size_t>(v)]) {
        state.Add(k, v);
      }
    }
  }

  bool truncated = false;
  bool made_progress = false;
  while (state.remaining > 0) {
    // Each round appends one (fd, pattern) choice and refreshes the
    // per-pattern best-unit costs it invalidates.
    if (!BudgetCharge(options.budget) ||
        !MemCharge(options.memory, sizeof(int) + sizeof(double),
                   MemPhase::kSolve)) {
      // Out of budget: stop growing. AssignTargets still runs (and
      // itself polls), so already-chosen sets yield a valid partial
      // repair; unreached patterns stay dirty.
      truncated = true;
      break;
    }
    size_t best_fd = 0;
    int best_pattern = -1;
    double best_cost = kInf;
    for (size_t k = 0; k < state.num_fds; ++k) {
      for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
        if (!state.IsCandidate(k, v)) continue;
        double cost = state.CandidateCost(k, v);
        if (cost < best_cost) {
          best_cost = cost;
          best_fd = k;
          best_pattern = v;
        }
      }
    }
    if (best_pattern < 0) break;  // everything chosen or blocked
    state.Add(best_fd, best_pattern);
    made_progress = true;
  }

  if (truncated && !made_progress) {
    // Exhausted before the first candidate was chosen: there is no
    // partial cover for AssignTargets to complete, so hand the
    // component down the ladder instead of reporting an empty
    // "partial" success.
    return ResourceCheck(options.budget, options.memory, "greedy cover");
  }
  auto result = AssignTargets(context, state.chosen_list, model, options,
                              stats);
  if (result.ok()) {
    result.value().rung = SolverRung::kGreedy;
    if (truncated) result.value().truncated = true;
  }
  return result;
}

// ---------------------------------------------------------------------------

struct Instance {
  Table table;
  std::vector<FD> fds;
  RepairOptions options;
};

Instance Citizens() {
  Instance in{CitizensDirty(), {}, {}};
  in.fds = CitizensFDs(in.table.schema());
  in.options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}, {"phi3", 0.5}};
  return in;
}

Instance Generated(bool hosp, int rows, uint64_t gen_seed,
                   double error_rate, uint64_t noise_seed) {
  Dataset ds =
      hosp ? std::move(GenerateHosp({.num_rows = rows, .seed = gen_seed}))
                 .ValueOrDie()
           : std::move(GenerateTax({.num_rows = rows, .seed = gen_seed}))
                 .ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = error_rate;
  noise.seed = noise_seed;
  Instance in{std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
                  .ValueOrDie(),
              ds.fds,
              {}};
  in.options.w_l = ds.recommended_w_l;
  in.options.w_r = ds.recommended_w_r;
  in.options.tau_by_fd = ds.recommended_tau;
  return in;
}

// The benchmark's generator and noise seeds at 2k rows.
Instance Hosp2k() { return Generated(/*hosp=*/true, 2000, 7, 0.04, 42); }

// Four FDs over five columns, chained so every pair shares an
// attribute: substituting one FD's pattern values into another FD's
// projection lands on existing patterns, so both cross-FD invalidation
// rules fire. (Here a missing static rule changes the picks; a missing
// watch only shows on the generator instances.)
Instance Random(uint64_t seed) {
  Instance in{RandomFDTable(160, 5, 12, 40, seed), {}, {}};
  in.fds.push_back(std::move(FD::Make({0}, {1}, "r1")).ValueOrDie());
  in.fds.push_back(std::move(FD::Make({1}, {2}, "r2")).ValueOrDie());
  in.fds.push_back(std::move(FD::Make({0, 2}, {3}, "r3")).ValueOrDie());
  in.fds.push_back(std::move(FD::Make({3}, {1, 4}, "r4")).ValueOrDie());
  in.options.default_tau = 0.45;
  return in;
}

std::vector<const FD*> AllFds(const Instance& in) {
  std::vector<const FD*> fds;
  for (const FD& fd : in.fds) fds.push_back(&fd);
  return fds;
}

void ExpectSameSolution(const Result<MultiFDSolution>& want,
                        const RepairStats& want_stats,
                        const Result<MultiFDSolution>& got,
                        const RepairStats& got_stats) {
  ASSERT_EQ(want.ok(), got.ok()) << want.status().ToString() << " vs "
                                 << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code());
    return;
  }
  const MultiFDSolution& a = want.value();
  const MultiFDSolution& b = got.value();
  EXPECT_EQ(a.chosen, b.chosen);  // per FD, in round order
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.target_costs, b.target_costs);
  EXPECT_EQ(a.cost, b.cost);  // exact: same FP operations
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.rung, b.rung);
  EXPECT_EQ(want_stats.trusted_conflicts, got_stats.trusted_conflicts);
}

// Solves `context` with both implementations under `options` and
// compares; returns the production solution. A nonzero `fault_units`
// gives each solver its own budget that exhausts after that many units.
Result<MultiFDSolution> SolveBoth(const ComponentContext& context,
                                  const DistanceModel& model,
                                  RepairOptions options,
                                  size_t fault_units = 0) {
  std::optional<ScopedEnv> fault;
  if (fault_units > 0) {
    fault.emplace("FTREPAIR_FAULT_BUDGET_UNITS", std::to_string(fault_units));
  }
  RepairStats want_stats;
  Budget want_budget(1e9);
  if (fault_units > 0) options.budget = &want_budget;
  auto want = ReferenceGreedyMulti(context, model, options, &want_stats);
  RepairStats got_stats;
  Budget got_budget(1e9);
  if (fault_units > 0) options.budget = &got_budget;
  auto got = SolveGreedyMulti(context, model, options, &got_stats);
  ExpectSameSolution(want, want_stats, got, got_stats);
  return got;
}

// Every variant the invalidation rules depend on: cross-FD scoring
// on and off, trusted rows pinned first, and budget-truncated runs
// whose chosen sets must be a prefix of the unbudgeted run. A `metric`
// other than kAuto is set on every column.
void CheckAllVariants(const Instance& in,
                      ColumnMetric metric = ColumnMetric::kAuto) {
  DistanceModel model(in.table);
  if (metric != ColumnMetric::kAuto) {
    for (int col = 0; col < in.table.num_columns(); ++col) {
      model.SetColumnMetric(col, metric);
    }
  }
  ComponentContext context =
      BuildComponentContext(in.table, AllFds(in), model, in.options);
  for (double cross_weight : {0.0, RepairOptions{}.cross_weight}) {
    SCOPED_TRACE("cross_weight=" + std::to_string(cross_weight));
    RepairOptions options = in.options;
    options.cross_weight = cross_weight;
    auto full = SolveBoth(context, model, options);
    ASSERT_TRUE(full.ok()) << full.status().ToString();

    RepairOptions trusted = options;
    for (int r = 0; r < in.table.num_rows(); r += 7) {
      trusted.trusted_rows.insert(r);
    }
    {
      SCOPED_TRACE("trusted rows");
      SolveBoth(context, model, trusted);
    }

    size_t members = 0;
    for (const std::vector<int>& chosen : full.value().chosen) {
      members += chosen.size();
    }
    for (size_t units : {size_t{1}, size_t{5}, members / 2}) {
      if (units == 0) continue;
      SCOPED_TRACE("budget units=" + std::to_string(units));
      auto cut = SolveBoth(context, model, options, units);
      if (!cut.ok()) continue;  // exhausted before the first round
      for (size_t k = 0; k < context.fds.size(); ++k) {
        const std::vector<int>& prefix = cut.value().chosen[k];
        const std::vector<int>& whole = full.value().chosen[k];
        ASSERT_LE(prefix.size(), whole.size());
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), whole.begin()))
            << "fd " << k << ": truncated run is not a prefix";
      }
    }
  }
}

TEST(GreedyMultiOracleTest, Citizens) { CheckAllVariants(Citizens()); }

TEST(GreedyMultiOracleTest, HospAllNineFds) { CheckAllVariants(Hosp2k()); }

TEST(GreedyMultiOracleTest, Tax) {
  CheckAllVariants(Generated(/*hosp=*/false, 2000, 11, 0.04, 42));
}

// Small HOSP/Tax instances under fresh generator and noise seeds. These
// are where a score that read a substituted projection goes stale and
// would change the pick if its watch were missing.
TEST(GreedyMultiOracleTest, RandomizedGeneratorInstances) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (bool hosp : {true, false}) {
      SCOPED_TRACE((hosp ? "hosp" : "tax") + std::string(" seed=") +
                   std::to_string(seed));
      CheckAllVariants(Generated(hosp, 400, 100 + seed, 0.06, seed * 31));
    }
  }
}

TEST(GreedyMultiOracleTest, RandomSharedAttributeTables) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CheckAllVariants(Random(seed));
  }
}

// Under the discrete metric every cell distance is 0 or 1, so unit
// costs tie across most of a pattern's neighbors: which chosen targets
// a head keeps, and where the candidate merges into it, is decided by
// the pattern-id tie-break alone. tau = 0.5 with w_l = w_r = 0.5 makes
// every pair that differs in one cell an edge. Over two- and
// three-attribute FDs a pattern then has at most kMaxCrossTargets
// eligible targets, so the tie-break only orders them; the
// five-attribute FD below, with two-cell edges (tau = 1.0), gives
// patterns more tied targets than are scored, so the tie-break also
// picks which ones. (Its two tables are ones where scoring a different
// three changes the picks.)
TEST(GreedyMultiOracleTest, TieHeavyDiscreteMetric) {
  for (auto [keys, seed] : {std::pair<int, uint64_t>{24, 2}, {40, 4}}) {
    SCOPED_TRACE("wide keys=" + std::to_string(keys) +
                 " seed=" + std::to_string(seed));
    Instance in{RandomFDTable(300, 6, keys, 300, seed), {}, {}};
    in.fds.push_back(
        std::move(FD::Make({0}, {1, 2, 3, 4}, "w1")).ValueOrDie());
    in.fds.push_back(std::move(FD::Make({1}, {5}, "w2")).ValueOrDie());
    in.fds.push_back(std::move(FD::Make({2, 5}, {3}, "w3")).ValueOrDie());
    in.options.semantics = "ft-cost";
    in.options.w_l = 0.5;
    in.options.w_r = 0.5;
    in.options.default_tau = 1.0;
    CheckAllVariants(in, ColumnMetric::kDiscrete);
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Instance in = Random(seed);
    in.options.semantics = "ft-cost";
    in.options.w_l = 0.5;
    in.options.w_r = 0.5;
    in.options.default_tau = 0.5;
    if (seed == 1) {
      // Not vacuous: some pattern has neighbors at equal unit cost.
      DistanceModel model(in.table);
      for (int col = 0; col < in.table.num_columns(); ++col) {
        model.SetColumnMetric(col, ColumnMetric::kDiscrete);
      }
      ComponentContext context =
          BuildComponentContext(in.table, AllFds(in), model, in.options);
      size_t tied = 0;
      for (const ViolationGraph& graph : context.graphs) {
        for (int v = 0; v < graph.num_patterns(); ++v) {
          auto edges = graph.Neighbors(v);
          for (size_t i = 1; i < edges.size(); ++i) {
            if (edges[i].unit_cost == edges[0].unit_cost) ++tied;
          }
        }
      }
      EXPECT_GT(tied, 100u);
    }
    CheckAllVariants(in, ColumnMetric::kDiscrete);
  }
  Instance hosp = Hosp2k();
  hosp.options.semantics = "ft-cost";
  CheckAllVariants(hosp, ColumnMetric::kDiscrete);
}

// Trusted patterns are pinned through Add before GrowCover scores
// anything, so the first scores already read heads that those Adds
// filled. Trusting every third or fifth row of small Tax tables pins
// many patterns with neighbors; the check below makes sure some
// candidate sees two or more pinned targets, so the heads' order is
// exercised, not only their presence.
TEST(GreedyMultiOracleTest, TrustedRowsSeedTheHeads) {
  for (auto [seed, every] : {std::pair<uint64_t, int>{1, 3}, {1, 5}, {2, 3},
                             {2, 5}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " every=" + std::to_string(every));
    Instance in = Generated(/*hosp=*/false, 400, 100 + seed, 0.06, seed * 31);
    DistanceModel model(in.table);
    ComponentContext context =
        BuildComponentContext(in.table, AllFds(in), model, in.options);
    RepairOptions options = in.options;
    for (int r = 0; r < in.table.num_rows(); r += every) {
      options.trusted_rows.insert(r);
    }
    size_t multi_pinned = 0;  // patterns with >= 2 pinned neighbors
    for (size_t k = 0; k < context.fds.size(); ++k) {
      const ViolationGraph& graph = context.graphs[k];
      std::vector<bool> pinned =
          TrustedPatternMask(graph.patterns(), options.trusted_rows);
      for (int v = 0; v < graph.num_patterns(); ++v) {
        if (pinned[static_cast<size_t>(v)]) continue;
        int seen = 0;
        for (const ViolationGraph::Edge& e : graph.Neighbors(v)) {
          seen += pinned[static_cast<size_t>(e.to)] ? 1 : 0;
        }
        if (seen >= 2) ++multi_pinned;
      }
    }
    EXPECT_GT(multi_pinned, 0u);
    for (double cross_weight : {0.0, RepairOptions{}.cross_weight}) {
      SCOPED_TRACE("cross_weight=" + std::to_string(cross_weight));
      options.cross_weight = cross_weight;
      auto solved = SolveBoth(context, model, options);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    }
  }
}

// Greedy-M inside the concurrent component fan-out: the repair at four
// threads equals the serial one (under TSan this also covers the
// solver running on pool workers).
TEST(GreedyMultiOracleTest, ConcurrentComponentsMatchSerial) {
  Instance in = Hosp2k();
  RepairOptions serial = in.options;
  serial.algorithm = RepairAlgorithm::kGreedy;
  RepairOptions parallel = serial;
  parallel.threads = 4;
  auto a = Repairer(serial).Repair(in.table, in.fds);
  auto b = Repairer(parallel).Repair(in.table, in.fds);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a.value().changes.size(), b.value().changes.size());
  EXPECT_GT(a.value().changes.size(), 0u);
  for (size_t i = 0; i < a.value().changes.size(); ++i) {
    const CellChange& x = a.value().changes[i];
    const CellChange& y = b.value().changes[i];
    EXPECT_EQ(x.row, y.row);
    EXPECT_EQ(x.col, y.col);
    EXPECT_EQ(x.new_value, y.new_value);
  }
}

// The incremental loop rescores far fewer candidates than a full scan
// per round would, and the counters report exactly what ran.
TEST(GreedyMultiCounterTest, RescoredBelowRoundsTimesSlots) {
  Instance in = Hosp2k();
  DistanceModel model(in.table);
  ComponentContext context =
      BuildComponentContext(in.table, AllFds(in), model, in.options);
  Counter* rounds = Metrics().GetCounter("ftrepair.solve.greedy_rounds");
  Counter* rescored =
      Metrics().GetCounter("ftrepair.solve.candidates_rescored");
  const uint64_t rounds_before = rounds->value();
  const uint64_t rescored_before = rescored->value();
  auto solution = SolveGreedyMulti(context, model, in.options, nullptr);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  const uint64_t ran = rounds->value() - rounds_before;
  const uint64_t scored = rescored->value() - rescored_before;

  uint64_t slots = 0;
  uint64_t grown = 0;  // chosen by the loop, not isolated up front
  for (size_t k = 0; k < context.fds.size(); ++k) {
    slots += static_cast<uint64_t>(context.graphs[k].num_patterns());
    for (int v : solution.value().chosen[k]) {
      if (context.graphs[k].degree(v) > 0) ++grown;
    }
  }
  EXPECT_EQ(ran, grown);
  EXPECT_GT(ran, 10u);
  EXPECT_GE(scored, ran);
  EXPECT_LT(scored, ran * slots);
}

}  // namespace
}  // namespace ftrepair
