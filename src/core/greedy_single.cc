#include "core/greedy_single.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace ftrepair {

SingleFDSolution SolveGreedySingle(const ViolationGraph& graph,
                                   const std::vector<bool>* forced,
                                   uint64_t* trusted_conflicts,
                                   const Budget* budget,
                                   const MemoryBudget* memory) {
  FTR_TRACE_SPAN("greedy.solve_single");
  SingleFDSolution solution;
  solution.rung = SolverRung::kGreedy;
  int n = graph.num_patterns();
  solution.repair_target.assign(static_cast<size_t>(n), -1);
  if (n == 0) return solution;

  constexpr double kInf = ViolationGraph::kInfinity;
  std::vector<bool> in_set(static_cast<size_t>(n), false);
  // blocked[v] = number of chosen members v conflicts with.
  std::vector<int> blocked(static_cast<size_t>(n), 0);
  // best[v] / best_to[v]: cheapest repair of v into the current set
  // (unit cost; the grouped cost is count(v) * best[v]).
  std::vector<double> best(static_cast<size_t>(n), kInf);
  std::vector<int> best_to(static_cast<size_t>(n), -1);

  // Isolated patterns join the set unconditionally (they are members of
  // every maximal independent set).
  int pending = 0;
  for (int v = 0; v < n; ++v) {
    if (graph.degree(v) == 0) {
      in_set[static_cast<size_t>(v)] = true;
      solution.chosen_set.push_back(v);
    } else {
      ++pending;
    }
  }

  // Vertices whose `best` decreased during the latest add_member call;
  // only candidates adjacent to one of them can have a changed
  // incremental cost, which is what the grow loop's re-scoring keys on.
  std::vector<int> best_lowered;
  auto add_member = [&](int t) {
    in_set[static_cast<size_t>(t)] = true;
    solution.chosen_set.push_back(t);
    --pending;
    best_lowered.clear();
    for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
      ++blocked[static_cast<size_t>(e.to)];
      if (e.unit_cost < best[static_cast<size_t>(e.to)]) {
        best[static_cast<size_t>(e.to)] = e.unit_cost;
        best_to[static_cast<size_t>(e.to)] = t;
        best_lowered.push_back(e.to);
      }
    }
  };

  // Trusted patterns are pinned first: other tuples repair toward
  // them. A forced pattern conflicting with an earlier forced member is
  // kept regardless (trusted rows are never modified) and the conflict
  // is surfaced to the caller.
  if (forced != nullptr) {
    for (int t = 0; t < n; ++t) {
      if (!(*forced)[static_cast<size_t>(t)] ||
          in_set[static_cast<size_t>(t)]) {
        continue;
      }
      if (blocked[static_cast<size_t>(t)] > 0 &&
          trusted_conflicts != nullptr) {
        ++*trusted_conflicts;
      }
      add_member(t);
    }
  }

  // The exclusion regret of a pattern: the grouped cost it pays if it
  // ends up outside the set (repaired to its cheapest neighbor). The
  // Eq. 7/8 costs alone charge a candidate the full repair bill of its
  // neighbors — which a low-frequency near-duplicate of a frequent
  // pattern wins by a landslide, anchoring the set on the typo. Netting
  // out the candidate's own exclusion cost restores the MIS objective's
  // frequency preference (cf. §3.1 "the maximal independent set with
  // the highest frequent tuples is likely to have small repair cost").
  auto regret = [&graph](int t) {
    double mec = graph.MinEdgeCost(t);
    return mec == kInf ? 0.0 : graph.pattern(t).count() * mec;
  };

  // Initial member: smallest net initial cost, S(t) of Eq. 7 minus the
  // exclusion regret.
  if (pending > 0) {
    int first = -1;
    double first_cost = kInf;
    for (int t = 0; t < n; ++t) {
      if (in_set[static_cast<size_t>(t)] ||
          blocked[static_cast<size_t>(t)] != 0) {
        continue;  // forced members may already block candidates
      }
      double s = 0;
      for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
        s += graph.pattern(e.to).count() * e.unit_cost;
      }
      s -= regret(t);
      if (s < first_cost) {
        first_cost = s;
        first = t;
      }
    }
    if (first >= 0) add_member(first);
  }

  // The net incremental cost of candidate t (Eq. 8 minus the exclusion
  // regret), summed in adjacency order — the exact FP operation
  // sequence of the historical full rescan, so the priority-queue grow
  // loop below selects bit-identical members.
  auto score_of = [&](int t) {
    double s = 0;
    for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
      int v = e.to;
      double m = graph.pattern(v).count();
      if (best[static_cast<size_t>(v)] == kInf) {
        s += m * e.unit_cost;  // newly covered neighbor
      } else if (e.unit_cost < best[static_cast<size_t>(v)]) {
        s += m * (e.unit_cost - best[static_cast<size_t>(v)]);  // <= 0
      }
    }
    return s - regret(t);
  };

  // Grow: repeatedly add the FT-consistent pattern with the smallest
  // net incremental cost. Instead of rescanning all n candidates per
  // accepted member (O(n^2 * deg) over a run), candidates sit in a
  // lazy-deletion min-heap keyed on (score, id). A candidate's score
  // only changes when `best` drops for one of its neighbors, so after
  // each accepted member only the 2-hop neighborhood (candidates
  // adjacent to a best-lowered vertex) is re-scored and re-pushed;
  // superseded heap entries are discarded on pop by comparing against
  // score[t]. Scores are monotonically non-increasing as the set grows
  // (IEEE addition/multiplication are monotone and each term can only
  // shrink), so the freshest entry for a candidate is also its
  // smallest — popping the heap minimum always yields the candidate
  // the full rescan would have picked, with the same
  // smallest-id-wins tie-break.
  if (pending > 0) {
    using HeapEntry = std::pair<double, int>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap;
    std::vector<double> score(static_cast<size_t>(n), kInf);
    MemoryCharge rounds(memory);  // returned with the heap
    auto push_fresh = [&](int t) {
      double s = score_of(t);
      score[static_cast<size_t>(t)] = s;
      heap.emplace(s, t);
    };
    for (int t = 0; t < n; ++t) {
      if (!in_set[static_cast<size_t>(t)] &&
          blocked[static_cast<size_t>(t)] == 0) {
        push_fresh(t);
      }
    }
    while (pending > 0) {
      if (!BudgetCharge(budget) ||
          !rounds.Add(sizeof(HeapEntry), MemPhase::kSolve)) {
        // Out of budget (time or memory): stop growing. Patterns
        // without a chosen neighbor stay unrepaired (detect-only
        // remainder).
        solution.truncated = true;
        break;
      }
      int pick = -1;
      while (!heap.empty()) {
        const auto [s, t] = heap.top();
        if (in_set[static_cast<size_t>(t)] ||
            blocked[static_cast<size_t>(t)] != 0 ||
            s != score[static_cast<size_t>(t)]) {
          heap.pop();  // member, blocked, or superseded entry
          continue;
        }
        heap.pop();
        pick = t;
        break;
      }
      if (pick < 0) break;  // every remaining pattern is blocked
      add_member(pick);
      for (int v : best_lowered) {
        for (const ViolationGraph::Edge& e : graph.Neighbors(v)) {
          int t = e.to;
          if (!in_set[static_cast<size_t>(t)] &&
              blocked[static_cast<size_t>(t)] == 0) {
            push_fresh(t);
          }
        }
      }
    }
  }

  // Repair: every excluded pattern goes to its cheapest chosen neighbor.
  // After a truncated run some patterns have no chosen neighbor yet
  // (best == kInf); they keep their values and stay unrepaired.
  solution.cost = 0;
  for (int v = 0; v < n; ++v) {
    if (in_set[static_cast<size_t>(v)]) continue;
    if (best[static_cast<size_t>(v)] == kInf) continue;
    solution.repair_target[static_cast<size_t>(v)] =
        best_to[static_cast<size_t>(v)];
    solution.cost += graph.pattern(v).count() * best[static_cast<size_t>(v)];
  }
  std::sort(solution.chosen_set.begin(), solution.chosen_set.end());
  return solution;
}

}  // namespace ftrepair
