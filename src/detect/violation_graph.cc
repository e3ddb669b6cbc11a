#include "detect/violation_graph.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "detect/block_index.h"
#include "metric/distance.h"

namespace ftrepair {

namespace {

// True when |Δlen| / max_len lower-bounds CellDistance on a string
// pair of this attribute. Edit distance needs >= |Δlen| edits; kAuto
// resolves string-string pairs to edit distance; discrete distance is
// 1 for any differing pair (and differing lengths imply differing
// strings), which dominates the bound. The set-/similarity-based
// metrics (Jaccard, q-gram cosine, Jaro-Winkler) admit no such bound —
// "aaaa" vs "aaaaaaaa" has Jaccard bigram distance 0 — so they must
// skip the filter entirely.
bool LengthBoundValid(ColumnMetric metric) {
  return metric == ColumnMetric::kEdit || metric == ColumnMetric::kAuto ||
         metric == ColumnMetric::kDiscrete;
}

// Cheap per-pair lower bound on the weighted projection distance using
// only string lengths (numbers, nulls, and attributes whose metric
// does not admit a length bound contribute 0).
double LengthLowerBound(const Pattern& a, const Pattern& b,
                        const ProjectionDecoder& decoder, const FD& fd,
                        const DistanceModel& model, double w_l, double w_r) {
  double lb = 0;
  int lhs = fd.lhs_size();
  for (int p = 0; p < fd.num_attrs(); ++p) {
    size_t k = static_cast<size_t>(p);
    const Value& va = decoder.value(k, a.codes[k]);
    const Value& vb = decoder.value(k, b.codes[k]);
    if (!va.is_string() || !vb.is_string()) continue;
    if (!LengthBoundValid(
            model.column_metric(fd.attrs()[static_cast<size_t>(p)]))) {
      continue;
    }
    double w = p < lhs ? w_l : w_r;
    lb += w * EditDistanceLengthLowerBound(va.str().size(), vb.str().size());
  }
  return lb;
}

// One shard of the triangular i<j pair join = a contiguous block of
// i-rows. Small enough that dynamic claiming balances the (very uneven,
// row i has n-1-i pairs) costs across threads; large enough that the
// claim overhead vanishes.
constexpr int kShardRows = 64;

// ViolationGraph::ProjDistance with a cutoff at tau and a per-shard
// distance memo, the graph build's hot path. Whenever the exact
// ProjDistance is <= tau the return value is bit-identical to it:
// same weights and term order, and every term that enters `sum` is an
// exact cell distance (a memo hit replays a previously computed exact
// value, a fresh capped result only enters when unclipped, and the
// borderline fallback is exact). Otherwise the return value is merely
// guaranteed to be > tau (the attribute loop exits early and each edit
// distance runs banded), so callers only compare it against tau.
double ProjDistanceCutoffMemo(const Pattern& a, const Pattern& b,
                              const ProjectionDecoder& decoder, const FD& fd,
                              const DistanceModel& model,
                              double w_l, double w_r, double tau,
                              PairDistanceMemo* memo) {
  double sum = 0;
  int lhs = fd.lhs_size();
  for (int p = 0; p < fd.num_attrs(); ++p) {
    double w = p < lhs ? w_l : w_r;
    // A zero-weight attribute contributes w * d == +0.0 whatever d is,
    // so skipping it leaves `sum` bit-identical to ProjDistance.
    if (w == 0.0) continue;
    int col = fd.attrs()[static_cast<size_t>(p)];
    uint32_t ca = a.codes[static_cast<size_t>(p)];
    uint32_t cb = b.codes[static_cast<size_t>(p)];
    const Value& va = decoder.value(static_cast<size_t>(p), ca);
    const Value& vb = decoder.value(static_cast<size_t>(p), cb);
    // Remaining slack in cell-distance units: any attribute distance
    // beyond this pushes the pair past tau.
    double cap = (tau - sum) / w;
    bool clipped = false;
    double d = model.CellDistanceCappedInterned(
        col, va, vb, ca, cb, cap, &clipped, static_cast<size_t>(p), memo);
    if (clipped) {
      // d is only a lower bound on the true distance. IEEE addition
      // and multiplication by a positive weight are monotone and every
      // later term is non-negative, so the exact ProjDistance is
      // >= sum + w * d evaluated here: if that already beats tau the
      // pair is rejected without ever running the full kernel.
      double reject = sum + w * d;
      if (reject > tau) return reject;
      // Borderline (rounding ate the slack): fall back to exact.
      d = model.CellDistanceInterned(col, va, vb, ca, cb,
                                     static_cast<size_t>(p), memo);
    }
    sum += w * d;
    if (sum > tau) return sum;  // later terms only grow the sum
  }
  return sum;
}

// ViolationGraph::UnitCost over coded patterns, sharing the shard memo
// (same slots as the cutoff: slot p is attribute p's column).
// Bit-identical sums.
double UnitCostMemo(const Pattern& a, const Pattern& b,
                    const ProjectionDecoder& decoder, const FD& fd,
                    const DistanceModel& model, PairDistanceMemo* memo) {
  double sum = 0;
  for (int p = 0; p < fd.num_attrs(); ++p) {
    size_t k = static_cast<size_t>(p);
    uint32_t ca = a.codes[k];
    uint32_t cb = b.codes[k];
    sum += model.CellDistanceInterned(fd.attrs()[k], decoder.value(k, ca),
                                      decoder.value(k, cb), ca, cb, k, memo);
  }
  return sum;
}

// An edge discovered by one shard, recorded in (i, then j) order so the
// merge can replay the exact serial adjacency push order.
struct ShardEdge {
  int i;
  int j;
  double proj;
  double unit;
};

struct ShardResult {
  std::vector<ShardEdge> edges;
  size_t pairs_length_filtered = 0;
  uint64_t candidates_generated = 0;
  uint64_t candidates_verified = 0;
  uint64_t candidates_filtered = 0;
  bool truncated = false;
};

}  // namespace

double ViolationGraph::ProjDistance(const std::vector<Value>& a,
                                    const std::vector<Value>& b, const FD& fd,
                                    const DistanceModel& model, double w_l,
                                    double w_r) {
  double sum = 0;
  int lhs = fd.lhs_size();
  for (int p = 0; p < fd.num_attrs(); ++p) {
    int col = fd.attrs()[static_cast<size_t>(p)];
    double w = p < lhs ? w_l : w_r;
    sum += w * model.CellDistance(col, a[static_cast<size_t>(p)],
                                  b[static_cast<size_t>(p)]);
  }
  return sum;
}

double ViolationGraph::UnitCost(const std::vector<Value>& a,
                                const std::vector<Value>& b, const FD& fd,
                                const DistanceModel& model) {
  double sum = 0;
  for (int p = 0; p < fd.num_attrs(); ++p) {
    int col = fd.attrs()[static_cast<size_t>(p)];
    sum += model.CellDistance(col, a[static_cast<size_t>(p)],
                              b[static_cast<size_t>(p)]);
  }
  return sum;
}

ViolationGraph ViolationGraph::Build(std::vector<Pattern> patterns,
                                     const Table& table, const FD& fd,
                                     const DistanceModel& model,
                                     const FTOptions& opts,
                                     const Budget* budget) {
  int threads = ResolveThreads(opts.threads);
  FTR_TRACE_SPAN("detect.graph_build",
                 {{"fd", fd.name()}, {"threads", std::to_string(threads)}});
  Timer build_timer;
  ViolationGraph g;
  g.patterns_ = std::move(patterns);
  int n = g.num_patterns();
  g.adj_.assign(static_cast<size_t>(n), {});
  g.min_edge_cost_.assign(static_cast<size_t>(n), kInfinity);

  int num_shards = (n + kShardRows - 1) / kShardRows;
  std::vector<ShardResult> shards(static_cast<size_t>(num_shards));
  static Histogram* shard_ms =
      Metrics().GetHistogram("ftrepair.detect.shard_ms");

  // The FD's column dictionaries, resolved once for every kernel below.
  const ProjectionDecoder decoder(table, fd.attrs());

  // The memo only pays when a (code, code) pair recurs. Patterns are
  // *distinct* FD projections, so an attribute whose codes are nearly
  // unique across patterns (typically the LHS key itself) never repeats
  // a pair — every probe there would be a guaranteed miss. Disable such
  // slots up front: each code must recur >= 4x on average for the slot
  // to stay on. Computed once before sharding, so the mask — and hence
  // every emitted distance — is identical at every thread count (and
  // identical to memo-off anyway, since memoized values are exact).
  std::vector<bool> memo_slot_on(static_cast<size_t>(fd.num_attrs()));
  std::vector<uint32_t> distinct;
  for (int p = 0; p < fd.num_attrs(); ++p) {
    distinct.clear();
    distinct.reserve(static_cast<size_t>(n));
    for (const Pattern& pat : g.patterns_) {
      distinct.push_back(pat.codes[static_cast<size_t>(p)]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    memo_slot_on[static_cast<size_t>(p)] =
        distinct.size() * 4 <= static_cast<size_t>(n);
  }

  std::unique_ptr<BlockIndex> index =
      BlockIndex::ForBuild(g.patterns_, table, fd, model, opts);

  // Both joins run the identical per-candidate sequence — budget
  // charge, identical-projection skip, length lower bound, cutoff
  // kernel — and candidates arrive in ascending j within ascending i,
  // so the surviving edges (and their doubles) are bit-identical
  // whichever join runs; only how many candidates were *generated*
  // differs.
  auto verify_candidate = [&](ShardResult& r, int i, int j,
                              PairDistanceMemo& memo) {
    if (!BudgetCharge(budget)) {
      r.truncated = true;
      return false;
    }
    ++r.candidates_generated;
    const Pattern& pi = g.patterns_[static_cast<size_t>(i)];
    const Pattern& pj = g.patterns_[static_cast<size_t>(j)];
    // Identical projections: codes are a bijection onto the referenced
    // values, so the code-vector compare answers exactly the value one.
    if (pi.codes == pj.codes) {
      ++r.candidates_filtered;
      return true;
    }
    if (LengthLowerBound(pi, pj, decoder, fd, model, opts.w_l, opts.w_r) >
        opts.tau) {
      ++r.pairs_length_filtered;
      ++r.candidates_filtered;
      return true;
    }
    ++r.candidates_verified;
    double proj = ProjDistanceCutoffMemo(pi, pj, decoder, fd, model,
                                         opts.w_l, opts.w_r, opts.tau, &memo);
    if (proj > opts.tau) return true;
    if (!MemCharge(opts.memory, sizeof(ShardEdge), MemPhase::kGraph)) {
      r.truncated = true;  // per-shard edge scratch out of memory
      return false;
    }
    double unit = UnitCostMemo(pi, pj, decoder, fd, model, &memo);
    r.edges.push_back(ShardEdge{i, j, proj, unit});
    return true;
  };

  auto run_shard = [&](int s) {
    ShardResult& r = shards[static_cast<size_t>(s)];
    int row_lo = s * kShardRows;
    int row_hi = std::min(n, row_lo + kShardRows);
    // A budget that already ran out (possibly in another shard)
    // truncates this shard before it charges anything — the parallel
    // analogue of the serial build breaking out of the outer loop.
    // A shard whose only row is the last pattern has no pairs and
    // cannot be truncated, matching the serial loop bounds. An
    // exhausted memory budget (possibly latched by the block-index
    // build above) truncates the same way.
    if (BudgetExhausted(budget) || MemExhausted(opts.memory)) {
      if (row_lo < n - 1) r.truncated = true;
      return;
    }
    Timer shard_timer;
    // Shard-local distance memo. Shard-local keeps thread-count
    // invariance trivial (no cross-shard state), and the memoized
    // values are exact, so hits only skip redundant kernels — the
    // emitted edges are bit-identical to ProjDistance / UnitCost.
    // Deliberately uncharged scratch: it is bounded by the shard's
    // distinct code pairs, freed at shard end, and charging it would
    // move the exhaustion trip points of governed runs that pin them.
    PairDistanceMemo memo(static_cast<size_t>(fd.num_attrs()));
    for (int p = 0; p < fd.num_attrs(); ++p) {
      memo.SetSlotEnabled(static_cast<size_t>(p),
                          memo_slot_on[static_cast<size_t>(p)]);
    }
    if (index != nullptr) {
      BlockIndex::Scratch scratch;
      std::vector<int> candidates;
      for (int i = row_lo; i < row_hi && !r.truncated; ++i) {
        candidates.clear();
        index->AppendCandidates(i, &scratch, &candidates);
        for (int j : candidates) {
          if (!verify_candidate(r, i, j, memo)) break;
        }
      }
    } else {
      for (int i = row_lo; i < row_hi && !r.truncated; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (!verify_candidate(r, i, j, memo)) break;
        }
      }
    }
    shard_ms->Observe(shard_timer.Millis());
  };
  ParallelFor(num_shards, threads, run_shard);

  // Deterministic merge: shards cover disjoint ascending i-ranges and
  // record edges in (i, j) order, so replaying them in shard order
  // reproduces the serial build's exact adjacency push order — the
  // graph is bit-identical for every thread count.
  uint64_t shard_scratch_bytes = 0;
  bool merge_exhausted = false;
  for (const ShardResult& r : shards) {
    g.pairs_length_filtered_ += r.pairs_length_filtered;
    g.candidates_generated_ += r.candidates_generated;
    g.candidates_verified_ += r.candidates_verified;
    g.candidates_filtered_ += r.candidates_filtered;
    if (r.truncated) g.truncated_ = true;
    shard_scratch_bytes += r.edges.size() * sizeof(ShardEdge);
    for (const ShardEdge& e : r.edges) {
      // The adjacency lists hold two directed copies of each edge; a
      // failed charge keeps the (deterministic) prefix merged so far
      // and surfaces truncation, never a half-pushed edge pair.
      if (merge_exhausted ||
          !MemCharge(opts.memory, 2 * sizeof(Edge), MemPhase::kGraph)) {
        merge_exhausted = true;
        g.truncated_ = true;
        break;
      }
      g.adj_[static_cast<size_t>(e.i)].push_back(Edge{e.j, e.proj, e.unit});
      g.adj_[static_cast<size_t>(e.j)].push_back(Edge{e.i, e.proj, e.unit});
      ++g.num_edges_;
      g.min_edge_cost_[static_cast<size_t>(e.i)] =
          std::min(g.min_edge_cost_[static_cast<size_t>(e.i)], e.unit);
      g.min_edge_cost_[static_cast<size_t>(e.j)] =
          std::min(g.min_edge_cost_[static_cast<size_t>(e.j)], e.unit);
    }
  }
  if (opts.memory != nullptr) {
    // The per-shard scratch buffers die with this function; return
    // their footprint so resident occupancy tracks the merged graph.
    opts.memory->Release(shard_scratch_bytes);
  }
  // Similarity-join accounting, once per build (not per pair): the
  // pair-filter effectiveness is the first thing to look at when
  // detection dominates a trace.
  static Counter* pairs_filtered =
      Metrics().GetCounter("ftrepair.detect.pairs_length_filtered");
  static Counter* edges = Metrics().GetCounter("ftrepair.detect.edges");
  static Counter* truncated_builds =
      Metrics().GetCounter("ftrepair.detect.truncated_builds");
  static Counter* cand_generated =
      Metrics().GetCounter("ftrepair.detect.candidates_generated");
  static Counter* cand_verified =
      Metrics().GetCounter("ftrepair.detect.candidates_verified");
  static Counter* cand_filtered =
      Metrics().GetCounter("ftrepair.detect.candidates_filtered");
  static Histogram* build_ms =
      Metrics().GetHistogram("ftrepair.detect.graph_build_ms");
  static Gauge* detect_threads =
      Metrics().GetGauge("ftrepair.detect.threads");
  detect_threads->Set(threads);
  pairs_filtered->Increment(g.pairs_length_filtered_);
  cand_generated->Increment(g.candidates_generated_);
  cand_verified->Increment(g.candidates_verified_);
  cand_filtered->Increment(g.candidates_filtered_);
  edges->Increment(g.num_edges_);
  if (g.truncated_) truncated_builds->Increment();
  build_ms->Observe(build_timer.Millis());
  return g;
}

std::vector<std::vector<int>> ViolationGraph::ConnectedComponents() const {
  int n = num_patterns();
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<std::vector<int>> components;
  for (int i = 0; i < n; ++i) {
    if (visited[static_cast<size_t>(i)]) continue;
    std::vector<int> comp;
    std::vector<int> stack = {i};
    visited[static_cast<size_t>(i)] = true;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (const Edge& e : Neighbors(u)) {
        if (!visited[static_cast<size_t>(e.to)]) {
          visited[static_cast<size_t>(e.to)] = true;
          stack.push_back(e.to);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    components.push_back(std::move(comp));
  }
  return components;
}

ViolationGraph ViolationGraph::InducedSubgraph(
    const std::vector<int>& vertices) const {
  ViolationGraph g;
  std::vector<int> local(static_cast<size_t>(num_patterns()), -1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    local[static_cast<size_t>(vertices[i])] = static_cast<int>(i);
    g.patterns_.push_back(patterns_[static_cast<size_t>(vertices[i])]);
  }
  g.adj_.resize(vertices.size());
  g.min_edge_cost_.assign(vertices.size(), kInfinity);
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (const Edge& e : Neighbors(vertices[i])) {
      int to = local[static_cast<size_t>(e.to)];
      if (to < 0) continue;
      g.adj_[i].push_back(Edge{to, e.proj_dist, e.unit_cost});
      if (vertices[i] < e.to) ++g.num_edges_;
      g.min_edge_cost_[i] = std::min(g.min_edge_cost_[i], e.unit_cost);
    }
  }
  // Build provenance carries over: a component cut out of a
  // budget-truncated graph may itself be missing edges, and its solver
  // must not believe detection was complete.
  g.truncated_ = truncated_;
  g.pairs_length_filtered_ = pairs_length_filtered_;
  g.candidates_generated_ = candidates_generated_;
  g.candidates_verified_ = candidates_verified_;
  g.candidates_filtered_ = candidates_filtered_;
  return g;
}

}  // namespace ftrepair
