#include "core/greedy_multi.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ftrepair {

namespace {

constexpr double kInf = ViolationGraph::kInfinity;

struct GreedyMultiState {
  const ComponentContext* ctx;
  const RepairOptions* options;

  // At most this many underlying Sigma-patterns (resp. candidate
  // targets) are cross-scored per neighbor — a bounded approximation
  // that keeps Eq. 12 evaluation within the paper's O(Sigma * V^2).
  static constexpr size_t kMaxCrossSigmas = 8;
  static constexpr size_t kMaxCrossTargets = 3;

  size_t num_fds;
  // Per FD: chosen membership, conflict counts against the chosen set.
  std::vector<std::vector<bool>> chosen;
  std::vector<std::vector<int>> blocked;
  std::vector<std::vector<int>> chosen_list;
  size_t remaining = 0;  // candidates not yet chosen nor blocked
  // Patterns whose `blocked` count went 0 -> 1 during the latest Add.
  std::vector<int> newly_blocked;
  uint64_t target_scores = 0;  // TargetScore evaluations

  // Per FD, kMaxCrossTargets entries per pattern v: v's cheapest chosen
  // neighbors by (unit_cost, id), ascending, each as its edge's position
  // in Neighbors(v), padded with kNoEdge. Chosen sets only grow, so Add
  // keeps them exact by insertion. The first entry is v's cheapest edge
  // to the chosen set.
  static constexpr uint32_t kNoEdge = UINT32_MAX;
  std::vector<std::vector<uint32_t>> heads;

  // What TargetScore reads about partner FD j of FD k (the two share a
  // column) when it rewrites FD k's shared positions with the values of
  // a target u. A phi-pattern of FD j splits into its shared tuple (the
  // positions it shares with FD k) and its residual tuple (the rest);
  // both are numbered densely. Every FD's patterns carry codes from the
  // one table's column dictionaries, so equal ids mean equal values, and
  // the rewritten projection (residual of y, shared of u) is an FD-j
  // phi-pattern exactly when `slots` holds that pair.
  struct CrossFd {
    size_t j;
    // Per FD-k pattern: its shared tuple's id in FD j's numbering, or
    // -1 when no FD-j pattern has those values.
    std::vector<int> shared_of_k;
    // Open addressing on (residual, shared); an empty slot has y -1.
    struct Slot {
      int residual;
      int shared;
      int y;  // FD-j pattern id
    };
    std::vector<Slot> slots;
    // Per FD-k pattern v, groups[group_begin[v] .. group_begin[v + 1]):
    // the FD-j phi-patterns y that v's first kMaxCrossSigmas
    // Sigma-patterns project onto, each once, with the tuples they
    // stand for. Each y carries v's shared tuple, so a rewrite to a
    // target with the same shared tuple changes nothing.
    struct Group {
      int y;
      int residual;  // y's residual tuple
      int tuples;
    };
    std::vector<uint32_t> group_begin;
    std::vector<Group> groups;

    static size_t Hash(int residual, int shared) {
      return static_cast<size_t>(
          HashMix64((static_cast<uint64_t>(static_cast<uint32_t>(residual))
                     << 32) |
                    static_cast<uint32_t>(shared)));
    }

    // The FD-j pattern with these tuple ids, or -1.
    int Find(int residual, int shared) const {
      const size_t mask = slots.size() - 1;
      for (size_t i = Hash(residual, shared) & mask;; i = (i + 1) & mask) {
        const Slot& slot = slots[i];
        if (slot.y < 0 ||
            (slot.residual == residual && slot.shared == shared)) {
          return slot.y;
        }
      }
    }
  };
  // Per FD k: its partner FDs in ascending order. Built only when
  // cross_weight > 0; otherwise TargetScore reads no other FD.
  std::vector<std::vector<CrossFd>> partners;

  void Init(const ComponentContext& context, const RepairOptions& opts) {
    ctx = &context;
    options = &opts;
    num_fds = context.fds.size();
    chosen.resize(num_fds);
    blocked.resize(num_fds);
    chosen_list.resize(num_fds);
    heads.resize(num_fds);
    partners.resize(num_fds);

    for (size_t k = 0; k < num_fds; ++k) {
      const size_t n = static_cast<size_t>(context.graphs[k].num_patterns());
      chosen[k].assign(n, false);
      blocked[k].assign(n, 0);
      heads[k].assign(n * kMaxCrossTargets, kNoEdge);
      remaining += n;
    }
    if (opts.cross_weight <= 0) return;
    for (size_t k = 0; k < num_fds; ++k) {
      for (size_t j = 0; j < num_fds; ++j) {
        CrossFd cross;
        if (j != k && BuildCrossFd(k, j, &cross)) {
          partners[k].push_back(std::move(cross));
        }
      }
    }
  }

  // Fills `cross` for FDs k and j; false when they share no column.
  bool BuildCrossFd(size_t k, size_t j, CrossFd* cross) const {
    const FD& fd_k = *ctx->fds[k];
    const std::vector<int>& attrs_j = ctx->fds[j]->attrs();
    // Positions within FD j's codes, and FD k's position of each shared
    // one.
    std::vector<size_t> shared_j, shared_k, residual_j;
    for (size_t p = 0; p < attrs_j.size(); ++p) {
      const int pk = fd_k.AttrPosition(attrs_j[p]);
      if (pk < 0) {
        residual_j.push_back(p);
      } else {
        shared_j.push_back(p);
        shared_k.push_back(static_cast<size_t>(pk));
      }
    }
    if (shared_j.empty()) return false;
    cross->j = j;

    std::unordered_map<std::vector<uint32_t>, int, CodeVectorHash> shared_ids,
        residual_ids;
    std::vector<uint32_t> key;
    auto project = [&key](const std::vector<uint32_t>& codes,
                          const std::vector<size_t>& positions)
        -> const std::vector<uint32_t>& {
      key.clear();
      for (size_t p : positions) key.push_back(codes[p]);
      return key;
    };
    const ViolationGraph& graph_j = ctx->graphs[j];
    const size_t n_j = static_cast<size_t>(graph_j.num_patterns());
    size_t capacity = 2;  // a power of two, at most 3/4 full
    while (capacity * 3 < n_j * 4) capacity *= 2;
    cross->slots.assign(capacity, {-1, -1, -1});
    const size_t mask = capacity - 1;
    std::vector<int> residual_of_j(n_j);
    for (size_t y = 0; y < n_j; ++y) {
      const std::vector<uint32_t>& codes =
          graph_j.pattern(static_cast<int>(y)).codes;
      const int shared = shared_ids
                             .try_emplace(project(codes, shared_j),
                                          static_cast<int>(shared_ids.size()))
                             .first->second;
      const int residual =
          residual_ids
              .try_emplace(project(codes, residual_j),
                           static_cast<int>(residual_ids.size()))
              .first->second;
      residual_of_j[y] = residual;
      size_t i = CrossFd::Hash(residual, shared) & mask;
      while (cross->slots[i].y >= 0) i = (i + 1) & mask;
      cross->slots[i] = {residual, shared, static_cast<int>(y)};
    }

    const ViolationGraph& graph_k = ctx->graphs[k];
    const size_t n_k = static_cast<size_t>(graph_k.num_patterns());
    cross->shared_of_k.resize(n_k);
    cross->group_begin.reserve(n_k + 1);
    cross->group_begin.push_back(0);
    for (size_t v = 0; v < n_k; ++v) {
      auto it = shared_ids.find(
          project(graph_k.pattern(static_cast<int>(v)).codes, shared_k));
      cross->shared_of_k[v] = it == shared_ids.end() ? -1 : it->second;
      const std::vector<int>& sigmas = ctx->sigma_of_phi[k][v];
      const size_t first = cross->groups.size();
      for (size_t si = 0; si < std::min(sigmas.size(), kMaxCrossSigmas);
           ++si) {
        const size_t sigma = static_cast<size_t>(sigmas[si]);
        const int y = ctx->phi_of_sigma[j][sigma];
        const int tuples = (*ctx->sigma_patterns)[sigma].count();
        size_t g = first;
        while (g < cross->groups.size() && cross->groups[g].y != y) ++g;
        if (g == cross->groups.size()) {
          cross->groups.push_back(
              {y, residual_of_j[static_cast<size_t>(y)], tuples});
        } else {
          cross->groups[g].tuples += tuples;
        }
      }
      cross->group_begin.push_back(
          static_cast<uint32_t>(cross->groups.size()));
    }
    cross->groups.shrink_to_fit();
    return true;
  }

  bool IsCandidate(size_t k, int v) const {
    return !chosen[k][static_cast<size_t>(v)] &&
           blocked[k][static_cast<size_t>(v)] == 0;
  }

  // A still-unblocked FD-j phi-pattern that a score read through a
  // substituted projection: (j, phi id).
  using UnblockedRead = std::pair<size_t, int>;

  // Synchronization-aware score of repairing neighbor v (of FD k) to
  // target u, per underlying tuple (Eq. 12's inner choice): the edge
  // cost plus `cross_weight` per tuple-weighted conflict the rewrite
  // triggers (minus per conflict it removes) against each partner FD's
  // chosen set, as a share of v's first kMaxCrossSigmas Sigma-patterns'
  // tuples. The sums are integers, so each delta is exact. A
  // substituted projection that exists nowhere in the data would be
  // *created* by this modification and counts as a triggered violation
  // ("trigger less violations for phi_j", §4.4): the close-world model
  // would have to invent the combination. One that exists and is still
  // unblocked is recorded in `reads`: it is the one input of the score
  // that no static map predicts.
  double TargetScore(size_t k, int v, int u, double edge_cost,
                     std::vector<UnblockedRead>* reads) {
    ++target_scores;
    double score = edge_cost;
    double w = options->cross_weight;
    if (w <= 0) return score;
    for (const CrossFd& cross : partners[k]) {
      const int shared = cross.shared_of_k[static_cast<size_t>(u)];
      // Same shared tuple as v: a delta of 0 adds nothing.
      if (shared == cross.shared_of_k[static_cast<size_t>(v)]) continue;
      const std::vector<int>& blocked_j = blocked[cross.j];
      int before = 0;
      int after = 0;
      int total = 0;
      for (uint32_t g = cross.group_begin[static_cast<size_t>(v)];
           g < cross.group_begin[static_cast<size_t>(v) + 1]; ++g) {
        const CrossFd::Group& group = cross.groups[g];
        total += group.tuples;
        if (blocked_j[static_cast<size_t>(group.y)] > 0) {
          before += group.tuples;
        }
        const int found =
            shared < 0 ? -1 : cross.Find(group.residual, shared);
        if (found < 0 || blocked_j[static_cast<size_t>(found)] > 0) {
          after += group.tuples;
        } else {
          reads->emplace_back(cross.j, found);
        }
      }
      if (total > 0) {
        score += w * static_cast<double>(after - before) / total;
      }
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
  // TargetScore.
  double CandidateCost(size_t k, int c, std::vector<UnblockedRead>* reads) {
    const ViolationGraph& graph = ctx->graphs[k];
    double cost = 0;
    for (const ViolationGraph::Edge& e : graph.Neighbors(c)) {
      const int v = e.to;
      // Eligible targets for v: the candidate itself plus v's chosen
      // neighbors, cheapest first by (unit_cost, id). That is c's edge
      // merged into v's head, at position `at`.
      const std::span<const ViolationGraph::Edge> adj = graph.Neighbors(v);
      const uint32_t* head = Head(k, v);
      const size_t at = HeadPosition(adj, head, e.unit_cost, c);
      double best = kInf;
      for (size_t t = 0; t < kMaxCrossTargets; ++t) {
        double unit = e.unit_cost;
        int to = c;
        if (t != at) {
          const uint32_t edge = head[t < at ? t : t - 1];
          if (edge == kNoEdge) break;
          unit = adj[edge].unit_cost;
          to = adj[edge].to;
        }
        best = std::min(best, TargetScore(k, v, to, unit, reads));
      }
      const double covered =
          head[0] == kNoEdge ? kInf : adj[head[0]].unit_cost;
      const double contribution =
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
      InsertHead(k, e.to, c);
      if (blocked[k][static_cast<size_t>(e.to)]++ == 0) {
        newly_blocked.push_back(e.to);
        if (!chosen[k][static_cast<size_t>(e.to)]) --remaining;
      }
    }
  }

  uint32_t* Head(size_t k, int v) {
    return heads[k].data() + static_cast<size_t>(v) * kMaxCrossTargets;
  }

  // Number of entries of `head` (over edges `adj`) that precede
  // (unit, to).
  static size_t HeadPosition(std::span<const ViolationGraph::Edge> adj,
                             const uint32_t* head, double unit, int to) {
    size_t p = 0;
    while (p < kMaxCrossTargets && head[p] != kNoEdge) {
      const ViolationGraph::Edge& h = adj[head[p]];
      if (!(h.unit_cost < unit || (h.unit_cost == unit && h.to < to))) break;
      ++p;
    }
    return p;
  }

  // Offers chosen neighbor c to v's head.
  void InsertHead(size_t k, int v, int c) {
    const std::span<const ViolationGraph::Edge> adj =
        ctx->graphs[k].Neighbors(v);
    // Neighbors come out sorted by id (ViolationGraph::Index).
    const auto it = std::lower_bound(
        adj.begin(), adj.end(), c,
        [](const ViolationGraph::Edge& e, int id) { return e.to < id; });
    FTR_DCHECK(it != adj.end() && it->to == c);
    uint32_t* head = Head(k, v);
    const size_t p = HeadPosition(adj, head, it->unit_cost, c);
    if (p == kMaxCrossTargets) return;
    for (size_t q = kMaxCrossTargets - 1; q > p; --q) head[q] = head[q - 1];
    head[p] = static_cast<uint32_t>(it - adj.begin());
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
//  * within FD k, candidates within two hops of c: `chosen` and the
//    heads (so the eligible targets) change only there;
//  * across FDs, for each phi-pattern x of FD k whose `blocked` count
//    went 0 -> 1, every FD-j candidate adjacent to phi_of_sigma[j][s] for
//    s in sigma_of_phi[k][x] (the unsubstituted conflict reads);
//  * across FDs, the candidates watching x: a score that read `blocked`
//    of a substituted projection (TargetScore's substitution probe)
//    while it was 0 registers on that phi-pattern, and the registration
//    fires once when it blocks. Counts only grow, so a read of an
//    already-blocked phi-pattern needs no watch.
// With cross_weight <= 0, TargetScore reads no other FD and both
// cross-FD rules are idle.
//
// The loop's transient memory stays proportional to the live
// candidates: a rescore that leaves a slot's cost unchanged pushes
// nothing (its entry is still queued), the heap is rebuilt from the
// valid entries once superseded ones outnumber the live candidates
// (entries are total (cost, slot) pairs, so the pop order does not
// depend on the heap's layout), and the watch lists are FIFO chains of
// uint32_t slot ids in one pool, rebuilt once it doubles from the
// links a firing could still act on.
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

  // A min-heap (std::greater) of (cost, slot) entries; an entry is
  // valid while its slot is a candidate whose stored score is `cost`.
  using HeapEntry = std::pair<double, size_t>;
  std::vector<HeapEntry> heap;
  std::vector<double> score(total_slots, kInf);
  auto valid = [&](const HeapEntry& entry) {
    const size_t fd = fd_of(entry.second);
    return state->IsCandidate(fd,
                              static_cast<int>(entry.second - slot_base[fd])) &&
           entry.first == score[entry.second];
  };
  // Candidates with a finite score: each has exactly one valid entry.
  size_t live = 0;
  auto finite = [](double cost) { return cost < kInf; };

  // Watch list of phi-pattern x of FD k, at flat index slot_base[k] + x:
  // the slots whose stored score read blocked[k][x] == 0 through a
  // substituted projection, a FIFO chain of links in `watch_pool`.
  constexpr uint32_t kNoLink = UINT32_MAX;
  struct WatchLink {
    uint32_t slot;
    uint32_t next;
  };
  std::vector<WatchLink> watch_pool;
  std::vector<uint32_t> watch_head(total_slots, kNoLink);
  std::vector<uint32_t> watch_tail(total_slots, kNoLink);
  auto append = [&](std::vector<WatchLink>* pool, size_t list, size_t slot) {
    const uint32_t link = static_cast<uint32_t>(pool->size());
    pool->push_back(WatchLink{static_cast<uint32_t>(slot), kNoLink});
    const uint32_t tail = watch_tail[list];
    (tail == kNoLink ? watch_head[list] : (*pool)[tail].next) = link;
    watch_tail[list] = link;
  };
  auto watch = [&](size_t list, size_t slot) {
    const uint32_t tail = watch_tail[list];
    if (tail == kNoLink || watch_pool[tail].slot != slot) {
      append(&watch_pool, list, slot);
    }
  };
  // Rebuilds the pool from the links a firing could still act on: per
  // list, in order, the first link of each slot that is still a
  // candidate (a slot never becomes one again, and touch ignores
  // repeats). Fired lists' links are dropped with the old pool.
  size_t pool_bound = 2 * total_slots;
  auto compact_watches = [&] {
    std::vector<WatchLink> kept;
    std::vector<uint32_t> seen_in(total_slots, kNoLink);
    for (size_t list = 0; list < total_slots; ++list) {
      uint32_t link = watch_head[list];
      watch_head[list] = watch_tail[list] = kNoLink;
      for (; link != kNoLink; link = watch_pool[link].next) {
        const size_t slot = watch_pool[link].slot;
        const size_t fd = fd_of(slot);
        if (seen_in[slot] == list ||
            !state->IsCandidate(fd, static_cast<int>(slot - slot_base[fd]))) {
          continue;
        }
        seen_in[slot] = static_cast<uint32_t>(list);
        append(&kept, list, slot);
      }
    }
    watch_pool = std::move(kept);
    pool_bound = 2 * std::max(total_slots, watch_pool.size());
  };

  std::vector<GreedyMultiState::UnblockedRead> reads;
  auto rescore = [&](size_t k, int c) {
    const size_t slot = slot_base[k] + static_cast<size_t>(c);
    reads.clear();
    const double cost = state->CandidateCost(k, c, &reads);
    ++out.rescored;
    live += static_cast<size_t>(finite(cost)) -
            static_cast<size_t>(finite(score[slot]));
    if (finite(cost) && cost != score[slot]) {
      heap.emplace_back(cost, slot);
      std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    }
    score[slot] = cost;
    for (const auto& [j, x] : reads) {
      watch(slot_base[j] + static_cast<size_t>(x), slot);
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
  MemoryCharge round_charge(options.memory);  // returned with the loop
  while (state->remaining > 0) {
    // Each round appends one (fd, pattern) choice and refreshes the
    // per-pattern best-unit costs it invalidates.
    // A round can take milliseconds, so the deadline is read every
    // round rather than every Budget::kCheckInterval charged units.
    if (!BudgetCharge(options.budget) || BudgetExhausted(options.budget) ||
        !round_charge.Add(sizeof(int) + sizeof(double), MemPhase::kSolve)) {
      // Out of budget: stop growing. The target phase still runs (and
      // itself polls), so already-chosen sets yield a valid partial
      // repair; unreached patterns stay dirty.
      out.truncated = true;
      break;
    }
    size_t k = 0;
    int c = -1;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
      const HeapEntry top = heap.back();
      heap.pop_back();
      if (valid(top)) {
        k = fd_of(top.second);
        c = static_cast<int>(top.second - slot_base[k]);
        break;
      }
    }
    if (c < 0) break;  // everything chosen, blocked or unscorable
    state->Add(k, c);
    ++out.rounds;
    --live;  // c, and below its newly blocked neighbours, stop competing
    for (int x : state->newly_blocked) {
      const size_t slot = slot_base[k] + static_cast<size_t>(x);
      if (!state->chosen[k][static_cast<size_t>(x)] && finite(score[slot])) {
        --live;
      }
    }

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
          for (const auto& partner : state->partners[k]) {
            const size_t j = partner.j;
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
      const size_t list = slot_base[k] + static_cast<size_t>(x);
      for (uint32_t link = watch_head[list]; link != kNoLink;
           link = watch_pool[link].next) {
        const size_t fd = fd_of(watch_pool[link].slot);
        touch(fd, static_cast<int>(watch_pool[link].slot - slot_base[fd]));
      }
      // The registration fires once.
      watch_head[list] = watch_tail[list] = kNoLink;
    }
    for (const auto& [fd, v] : dirty) rescore(fd, v);
    if (heap.size() - live > live) {
      // Superseded entries outnumber the live ones: keep one valid
      // entry per live candidate. Ascending order is a valid min-heap.
      std::erase_if(heap, [&](const HeapEntry& e) { return !valid(e); });
      std::sort(heap.begin(), heap.end());
      heap.erase(std::unique(heap.begin(), heap.end()), heap.end());
      FTR_DCHECK(heap.size() == live);
    }
    if (watch_pool.size() >= pool_bound) compact_watches();
  }
  return out;
}

}  // namespace

Result<MultiFDCover> CoverGreedyMulti(const ComponentContext& context,
                                      const RepairOptions& options,
                                      RepairStats* stats) {
  FTR_TRACE_SPAN("greedy.solve_multi");
  MultiFDCover cover;
  GrowOutcome grown;
  uint64_t target_scores = 0;
  {
    // The state, heads and substitution tables die with this scope, and
    // the heap, scores and watchers with GrowCover's frame.
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
    grown = GrowCover(&state, options);
    target_scores = state.target_scores;
    cover.chosen = std::move(state.chosen_list);
  }
  static Counter* rounds =
      Metrics().GetCounter("ftrepair.solve.greedy_rounds");
  static Counter* rescored =
      Metrics().GetCounter("ftrepair.solve.candidates_rescored");
  static Counter* scored =
      Metrics().GetCounter("ftrepair.solve.target_scores");
  rounds->Increment(grown.rounds);
  rescored->Increment(grown.rescored);
  scored->Increment(target_scores);

  if (grown.truncated && grown.rounds == 0) {
    // Exhausted before the first candidate was chosen: there is no
    // partial cover for the target phase to complete, so hand the
    // component down the ladder instead of reporting an empty
    // "partial" success.
    return ResourceCheck(options.budget, options.memory, "greedy cover");
  }
  cover.rung = SolverRung::kGreedy;
  cover.truncated = grown.truncated;
  return cover;
}

Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats) {
  return SolveCover(context, CoverGreedyMulti(context, options, stats), model,
                    options, stats);
}

}  // namespace ftrepair
