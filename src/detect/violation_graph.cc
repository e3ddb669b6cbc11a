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

uint64_t Detection::TuplePairs(const std::vector<Pattern>& patterns) const {
  uint64_t total = 0;
  for (const DetectedEdge& e : edges) {
    total += static_cast<uint64_t>(patterns[static_cast<size_t>(e.i)].count()) *
             static_cast<uint64_t>(patterns[static_cast<size_t>(e.j)].count());
  }
  return total;
}

void Detection::Release(const MemoryBudget* memory) {
  if (memory != nullptr) memory->Release(charged_bytes());
  std::vector<DetectedEdge>().swap(edges);  // frees the buffer too
}

Detection ViolationGraph::Detect(const std::vector<Pattern>& patterns,
                                 const Table& table, const FD& fd,
                                 const DistanceModel& model,
                                 const FTOptions& opts, const Budget* budget) {
  int threads = ResolveThreads(opts.threads);
  FTR_TRACE_SPAN("detect.graph_build",
                 {{"fd", fd.name()}, {"threads", std::to_string(threads)}});
  Timer build_timer;
  int n = static_cast<int>(patterns.size());

  // One detection per shard: its edges in (i, j) order and its share
  // of the candidate accounting.
  int num_shards = (n + kShardRows - 1) / kShardRows;
  std::vector<Detection> shards(static_cast<size_t>(num_shards));
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
    for (const Pattern& pat : patterns) {
      distinct.push_back(pat.codes[static_cast<size_t>(p)]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    memo_slot_on[static_cast<size_t>(p)] =
        distinct.size() * 4 <= static_cast<size_t>(n);
  }

  std::unique_ptr<BlockIndex> index =
      BlockIndex::ForBuild(patterns, table, fd, model, opts);

  // Both joins run the identical per-candidate sequence — budget
  // charge, identical-projection skip, length lower bound, cutoff
  // kernel — and candidates arrive in ascending j within ascending i,
  // so the surviving edges (and their doubles) are bit-identical
  // whichever join runs; only how many candidates were *generated*
  // differs.
  auto verify_candidate = [&](Detection& r, int i, int j,
                              PairDistanceMemo& memo) {
    if (!BudgetCharge(budget)) {
      r.truncated = true;
      return false;
    }
    ++r.candidates_generated;
    const Pattern& pi = patterns[static_cast<size_t>(i)];
    const Pattern& pj = patterns[static_cast<size_t>(j)];
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
    if (!MemCharge(opts.memory, sizeof(DetectedEdge), MemPhase::kGraph)) {
      r.truncated = true;  // the edge list is out of memory
      return false;
    }
    double unit = UnitCostMemo(pi, pj, decoder, fd, model, &memo);
    r.edges.push_back(DetectedEdge{i, j, proj, unit});
    return true;
  };

  auto run_shard = [&](int s) {
    Detection& r = shards[static_cast<size_t>(s)];
    int row_lo = s * kShardRows;
    int row_hi = std::min(n, row_lo + kShardRows);
    // A budget that already ran out (possibly in another shard)
    // truncates this shard before it charges anything — the parallel
    // analogue of the serial loop breaking out of the outer loop.
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
  // record edges in (i, j) order, so concatenating them in shard order
  // gives the serial detection's exact edge order at every thread
  // count. The shard lists' charges carry over to the merged list.
  Detection d;
  size_t num_edges = 0;
  for (const Detection& r : shards) num_edges += r.edges.size();
  d.edges.reserve(num_edges);
  for (Detection& r : shards) {
    d.pairs_length_filtered += r.pairs_length_filtered;
    d.candidates_generated += r.candidates_generated;
    d.candidates_verified += r.candidates_verified;
    d.candidates_filtered += r.candidates_filtered;
    d.truncated = d.truncated || r.truncated;
    d.edges.insert(d.edges.end(), r.edges.begin(), r.edges.end());
    std::vector<DetectedEdge>().swap(r.edges);
  }
  // Similarity-join accounting, once per detection (not per pair): the
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
  pairs_filtered->Increment(d.pairs_length_filtered);
  cand_generated->Increment(d.candidates_generated);
  cand_verified->Increment(d.candidates_verified);
  cand_filtered->Increment(d.candidates_filtered);
  edges->Increment(d.edges.size());
  if (d.truncated) truncated_builds->Increment();
  build_ms->Observe(build_timer.Millis());
  return d;
}

ViolationGraph ViolationGraph::Index(std::vector<Pattern> patterns,
                                     Detection detection,
                                     const MemoryBudget* memory) {
  ViolationGraph g;
  g.patterns_ = std::move(patterns);
  size_t n = g.patterns_.size();
  g.offsets_.assign(n + 1, 0);
  g.min_edge_cost_.assign(n, kInfinity);
  size_t m = detection.edges.size();
  g.charge_ = MemoryCharge(memory);
  if (!g.charge_.Add((n + 1) * sizeof(size_t) + 2 * m * sizeof(Edge),
                     MemPhase::kGraph)) {
    // Out of memory: a graph with no edges, marked like any other
    // detection that missed violations.
    detection.truncated = true;
    m = 0;
  }
  for (size_t k = 0; k < m; ++k) {
    const DetectedEdge& e = detection.edges[k];
    ++g.offsets_[static_cast<size_t>(e.i) + 1];
    ++g.offsets_[static_cast<size_t>(e.j) + 1];
  }
  for (size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  // Replaying the edges in (i, j) order appends each vertex's lower
  // neighbours before its higher ones, both ascending, so every
  // neighbour list is ascending by `to`.
  g.edges_.resize(2 * m);
  std::vector<size_t> next(g.offsets_.begin(), g.offsets_.end() - 1);
  for (size_t k = 0; k < m; ++k) {
    const DetectedEdge& e = detection.edges[k];
    size_t i = static_cast<size_t>(e.i);
    size_t j = static_cast<size_t>(e.j);
    g.edges_[next[i]++] = Edge{e.j, e.proj_dist, e.unit_cost};
    g.edges_[next[j]++] = Edge{e.i, e.proj_dist, e.unit_cost};
    g.min_edge_cost_[i] = std::min(g.min_edge_cost_[i], e.unit_cost);
    g.min_edge_cost_[j] = std::min(g.min_edge_cost_[j], e.unit_cost);
  }
  g.num_edges_ = m;
  detection.Release(memory);
  g.detection_ = std::move(detection);
  return g;
}

ViolationGraph ViolationGraph::Build(std::vector<Pattern> patterns,
                                     const Table& table, const FD& fd,
                                     const DistanceModel& model,
                                     const FTOptions& opts,
                                     const Budget* budget) {
  Detection detection = Detect(patterns, table, fd, model, opts, budget);
  return Index(std::move(patterns), std::move(detection), opts.memory);
}

uint64_t ViolationGraph::ReleaseEdges() {
  const uint64_t freed = offsets_.capacity() * sizeof(size_t) +
                         edges_.capacity() * sizeof(Edge) +
                         min_edge_cost_.capacity() * sizeof(double);
  std::vector<size_t>().swap(offsets_);
  std::vector<Edge>().swap(edges_);
  std::vector<double>().swap(min_edge_cost_);
  charge_.Reset();
  return freed;
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
  g.offsets_.assign(vertices.size() + 1, 0);
  g.min_edge_cost_.assign(vertices.size(), kInfinity);
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (const Edge& e : Neighbors(vertices[i])) {
      int to = local[static_cast<size_t>(e.to)];
      if (to < 0) continue;
      g.edges_.push_back(Edge{to, e.proj_dist, e.unit_cost});
      if (vertices[i] < e.to) ++g.num_edges_;
      g.min_edge_cost_[i] = std::min(g.min_edge_cost_[i], e.unit_cost);
    }
    g.offsets_[i + 1] = g.edges_.size();
  }
  // Build provenance carries over: a component cut out of a
  // budget-truncated graph may itself be missing edges, and its solver
  // must not believe detection was complete.
  g.detection_ = detection_;
  return g;
}

}  // namespace ftrepair
