#include "core/greedy_multi.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ftrepair {

namespace {

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
  // Patterns whose `blocked` count went 0 -> 1 during the latest Add.
  std::vector<int> newly_blocked;

  // Per FD: lookup from phi projection codes to phi-pattern id. Every
  // FD's patterns carry codes from the one table's column dictionaries,
  // so a code vector spliced from two FDs' patterns still identifies a
  // projection exactly (equal code == equal value per column).
  std::vector<std::unordered_map<std::vector<uint32_t>, int, CodeVectorHash>>
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
        phi_index[k].emplace(context.graphs[k].pattern(j).codes, j);
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

  // A still-unblocked FD-j phi-pattern that a score read through a
  // substituted projection: (j, phi id).
  using UnblockedRead = std::pair<size_t, int>;

  // Conflict indicator of sigma-pattern s against FD j's chosen set,
  // after hypothetically rewriting the shared positions with the values
  // of phi-pattern `u` of FD k (u < 0 means "no rewrite"). When `reads`
  // is given, a substituted projection whose `blocked` count is still 0
  // is recorded there: it is the one input of the score that no static
  // map predicts.
  int ConflictAfter(size_t k, int u, size_t j, int sigma,
                    std::vector<UnblockedRead>* reads) const {
    int cur_phi = ctx->phi_of_sigma[j][static_cast<size_t>(sigma)];
    if (u < 0 || shared_pos[k][j].empty()) {
      return blocked[j][static_cast<size_t>(cur_phi)] > 0 ? 1 : 0;
    }
    const std::vector<uint32_t>& cur_codes =
        ctx->graphs[j].pattern(cur_phi).codes;
    const std::vector<uint32_t>& u_codes = ctx->graphs[k].pattern(u).codes;
    // Check for a change before paying for a projection copy.
    bool changed = false;
    for (size_t a = 0; a < attr_pos[k].size() && !changed; ++a) {
      int pos = attr_pos[k][a];
      auto it = std::find(attr_pos[j].begin(), attr_pos[j].end(), pos);
      if (it == attr_pos[j].end()) continue;
      size_t jp = static_cast<size_t>(it - attr_pos[j].begin());
      changed = cur_codes[jp] != u_codes[a];
    }
    if (!changed) {
      return blocked[j][static_cast<size_t>(cur_phi)] > 0 ? 1 : 0;
    }
    std::vector<uint32_t> proj = cur_codes;
    for (size_t a = 0; a < attr_pos[k].size(); ++a) {
      int pos = attr_pos[k][a];
      auto it = std::find(attr_pos[j].begin(), attr_pos[j].end(), pos);
      if (it == attr_pos[j].end()) continue;
      proj[static_cast<size_t>(it - attr_pos[j].begin())] = u_codes[a];
    }
    auto found = phi_index[j].find(proj);
    // A projection that exists nowhere in the data would be *created*
    // by this modification — count it as a triggered violation ("trigger
    // less violations for phi_j", §4.4): the close-world model would
    // have to invent the combination.
    if (found == phi_index[j].end()) return 1;
    if (blocked[j][static_cast<size_t>(found->second)] > 0) return 1;
    if (reads != nullptr) reads->emplace_back(j, found->second);
    return 0;
  }

  // Synchronization-aware score of repairing neighbor v (of FD k) to
  // target u, per underlying tuple (Eq. 12's inner choice).
  double TargetScore(size_t k, int v, int u, double edge_cost,
                     std::vector<UnblockedRead>* reads) const {
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
        int cnt = ctx->sigma_patterns[static_cast<size_t>(sigma)].count();
        delta += cnt * (ConflictAfter(k, u, j, sigma, reads) -
                        ConflictAfter(k, -1, j, sigma, nullptr));
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
  // (see greedy_single.cc for the rationale). `reads` as in
  // ConflictAfter.
  double CandidateCost(size_t k, int c,
                       std::vector<UnblockedRead>* reads) const {
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
                                            eligible[t].first, reads));
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
    newly_blocked.clear();
    for (const ViolationGraph::Edge& e : ctx->graphs[k].Neighbors(c)) {
      best_unit[k][static_cast<size_t>(e.to)] = std::min(
          best_unit[k][static_cast<size_t>(e.to)], e.unit_cost);
      if (blocked[k][static_cast<size_t>(e.to)]++ == 0) {
        newly_blocked.push_back(e.to);
        if (!chosen[k][static_cast<size_t>(e.to)]) --remaining;
      }
    }
  }
};

// What GrowCover did, reported once per solve.
struct GrowOutcome {
  bool truncated = false;
  uint64_t rounds = 0;    // candidates added by the grow loop
  uint64_t rescored = 0;  // CandidateCost evaluations
};

// Algorithm 4's grow loop: each round adds the candidate with the
// smallest CandidateCost, the first strict minimum in flattened
// (fd, pattern) slot order.
//
// Candidates sit in a lazy-deletion min-heap keyed on (cost, slot).
// Unlike Greedy-S, a candidate's cost can move either way as the sets
// grow, so an entry is valid only while its slot is still a candidate
// and its cost equals the slot's stored score; anything else was
// superseded and is dropped on pop. Equal costs pop the smaller slot
// first, which is the full scan's first-strict-minimum. A cost that is
// NaN or >= kInf never enters the heap, as it never passes the scan's
// `cost < best_cost`.
//
// After each Add(k, c), every slot whose score inputs may have changed
// is rescored (a superset never changes the pick, a missed slot would):
//  * within FD k, candidates within two hops of c: `chosen`, `best_unit`
//    and the eligible targets change only there;
//  * across FDs, for each phi-pattern x of FD k whose `blocked` count
//    went 0 -> 1, every FD-j candidate adjacent to phi_of_sigma[j][s] for
//    s in sigma_of_phi[k][x] (the unsubstituted conflict reads);
//  * across FDs, the candidates watching x: a score that read `blocked`
//    of a substituted projection (ConflictAfter's phi_index lookup)
//    while it was 0 registers on that phi-pattern, and the registration
//    fires once when it blocks. Counts only grow, so a read of an
//    already-blocked phi-pattern needs no watch.
// With cross_weight <= 0, TargetScore reads no other FD and both
// cross-FD rules are idle.
GrowOutcome GrowCover(GreedyMultiState* state, const RepairOptions& options) {
  GrowOutcome out;
  const ComponentContext& context = *state->ctx;
  const size_t num_fds = state->num_fds;
  std::vector<size_t> slot_base(num_fds + 1, 0);
  for (size_t k = 0; k < num_fds; ++k) {
    slot_base[k + 1] =
        slot_base[k] + static_cast<size_t>(context.graphs[k].num_patterns());
  }
  const size_t total_slots = slot_base[num_fds];
  auto fd_of = [&slot_base](size_t slot) {
    return static_cast<size_t>(std::upper_bound(slot_base.begin(),
                                                slot_base.end(), slot) -
                               slot_base.begin()) -
           1;
  };

  using HeapEntry = std::pair<double, size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  std::vector<double> score(total_slots, kInf);
  // watchers[k][x]: slots whose stored score read blocked[k][x] == 0
  // through a substituted projection.
  std::vector<std::vector<std::vector<size_t>>> watchers(num_fds);
  for (size_t k = 0; k < num_fds; ++k) {
    watchers[k].resize(static_cast<size_t>(context.graphs[k].num_patterns()));
  }
  std::vector<GreedyMultiState::UnblockedRead> reads;
  auto rescore = [&](size_t k, int c) {
    const size_t slot = slot_base[k] + static_cast<size_t>(c);
    reads.clear();
    const double cost = state->CandidateCost(k, c, &reads);
    ++out.rescored;
    score[slot] = cost;
    if (cost < kInf) heap.emplace(cost, slot);
    for (const auto& [j, x] : reads) {
      std::vector<size_t>& w = watchers[j][static_cast<size_t>(x)];
      if (w.empty() || w.back() != slot) w.push_back(slot);
    }
  };

  // Slots to rescore after the latest Add, each once.
  std::vector<std::pair<size_t, int>> dirty;
  std::vector<uint64_t> dirty_round(total_slots, 0);
  auto touch = [&](size_t k, int v) {
    const size_t slot = slot_base[k] + static_cast<size_t>(v);
    if (dirty_round[slot] == out.rounds || !state->IsCandidate(k, v)) return;
    dirty_round[slot] = out.rounds;
    dirty.emplace_back(k, v);
  };

  for (size_t k = 0; k < num_fds; ++k) {
    for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
      if (state->IsCandidate(k, v)) rescore(k, v);
    }
  }
  const bool cross = !(options.cross_weight <= 0);
  while (state->remaining > 0) {
    // Each round appends one (fd, pattern) choice and refreshes the
    // per-pattern best-unit costs it invalidates.
    if (!BudgetCharge(options.budget) ||
        !MemCharge(options.memory, sizeof(int) + sizeof(double),
                   MemPhase::kSolve)) {
      // Out of budget: stop growing. AssignTargets still runs (and
      // itself polls), so already-chosen sets yield a valid partial
      // repair; unreached patterns stay dirty.
      out.truncated = true;
      break;
    }
    size_t k = 0;
    int c = -1;
    while (!heap.empty()) {
      const auto [cost, slot] = heap.top();
      heap.pop();
      const size_t fd = fd_of(slot);
      const int v = static_cast<int>(slot - slot_base[fd]);
      if (state->IsCandidate(fd, v) && cost == score[slot]) {
        k = fd;
        c = v;
        break;
      }
    }
    if (c < 0) break;  // everything chosen, blocked or unscorable
    state->Add(k, c);
    ++out.rounds;

    dirty.clear();
    const ViolationGraph& graph = context.graphs[k];
    for (const ViolationGraph::Edge& e : graph.Neighbors(c)) {
      for (const ViolationGraph::Edge& t : graph.Neighbors(e.to)) {
        touch(k, t.to);
      }
    }
    for (int x : state->newly_blocked) {
      if (cross) {
        for (int sigma : context.sigma_of_phi[k][static_cast<size_t>(x)]) {
          for (size_t j = 0; j < num_fds; ++j) {
            if (j == k || state->shared_pos[k][j].empty()) continue;
            const int y = context.phi_of_sigma[j][static_cast<size_t>(sigma)];
            // TargetScore reads only the first kMaxCrossSigmas of y.
            const std::vector<int>& read =
                context.sigma_of_phi[j][static_cast<size_t>(y)];
            auto read_end =
                read.begin() +
                static_cast<std::ptrdiff_t>(std::min(
                    read.size(), GreedyMultiState::kMaxCrossSigmas));
            if (std::find(read.begin(), read_end, sigma) == read_end) {
              continue;
            }
            for (const ViolationGraph::Edge& e :
                 context.graphs[j].Neighbors(y)) {
              touch(j, e.to);
            }
          }
        }
      }
      std::vector<size_t>& w = watchers[k][static_cast<size_t>(x)];
      for (size_t slot : w) {
        const size_t fd = fd_of(slot);
        touch(fd, static_cast<int>(slot - slot_base[fd]));
      }
      std::vector<size_t>().swap(w);
    }
    for (const auto& [fd, v] : dirty) rescore(fd, v);
  }
  return out;
}

}  // namespace

Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats) {
  FTR_TRACE_SPAN("greedy.solve_multi");
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

  // The heap, scores and watchers die with GrowCover's frame, before
  // AssignTargets sets the solve's memory peak.
  const GrowOutcome grown = GrowCover(&state, options);
  static Counter* rounds =
      Metrics().GetCounter("ftrepair.solve.greedy_rounds");
  static Counter* rescored =
      Metrics().GetCounter("ftrepair.solve.candidates_rescored");
  rounds->Increment(grown.rounds);
  rescored->Increment(grown.rescored);

  if (grown.truncated && grown.rounds == 0) {
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
    if (grown.truncated) result.value().truncated = true;
  }
  return result;
}

}  // namespace ftrepair
