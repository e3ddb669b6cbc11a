#include "detect/detector.h"

#include <algorithm>
#include <unordered_map>

#include "common/metrics.h"
#include "common/trace.h"
#include "detect/pattern.h"

namespace ftrepair {

namespace {

// Groups rows by X projection, then by Y projection within each group.
// Returns, per X-class, the list of Y-classes (each with its rows).
std::vector<std::vector<std::vector<int>>> GroupByLhsThenRhs(
    const Table& table, const FD& fd) {
  std::vector<Pattern> lhs_groups = BuildPatterns(table, fd.lhs());
  std::vector<std::vector<std::vector<int>>> out;
  out.reserve(lhs_groups.size());
  for (const Pattern& g : lhs_groups) {
    std::vector<Pattern> rhs_groups =
        BuildPatternsForRows(table, fd.rhs(), g.rows);
    std::vector<std::vector<int>> classes;
    classes.reserve(rhs_groups.size());
    for (Pattern& rg : rhs_groups) classes.push_back(std::move(rg.rows));
    out.push_back(std::move(classes));
  }
  return out;
}

// Canonical output order: by (row1, row2). Pairs are unique (a row
// belongs to exactly one projection class), so no further tie-break
// is needed. Clipped and unclipped results sort alike — a capped call
// must never return nondeterministically ordered pairs.
void SortViolations(std::vector<Violation>* out) {
  std::sort(out->begin(), out->end(),
            [](const Violation& a, const Violation& b) {
              if (a.row1 != b.row1) return a.row1 < b.row1;
              return a.row2 < b.row2;
            });
}

}  // namespace

namespace {

// The exact and FT finders feed the same process-wide candidate
// counters (the FT path increments them inside ViolationGraph::Build).
void RecordExactAccounting(uint64_t generated) {
  if (generated == 0) return;
  static Counter* cand_generated =
      Metrics().GetCounter("ftrepair.detect.candidates_generated");
  static Counter* cand_verified =
      Metrics().GetCounter("ftrepair.detect.candidates_verified");
  cand_generated->Increment(generated);
  cand_verified->Increment(generated);
}

}  // namespace

std::vector<Violation> FindExactViolations(const Table& table, const FD& fd,
                                           size_t max_pairs, bool* clipped,
                                           PairAccounting* accounting) {
  std::vector<Violation> out;
  bool clip = false;
  uint64_t generated = 0;
  for (const auto& x_class : GroupByLhsThenRhs(table, fd)) {
    if (clip) break;
    if (x_class.size() < 2) continue;
    // Every cross-Y-class row pair inside this X class is a violation.
    for (size_t a = 0; a < x_class.size() && !clip; ++a) {
      for (size_t b = a + 1; b < x_class.size() && !clip; ++b) {
        for (int r1 : x_class[a]) {
          if (clip) break;
          for (int r2 : x_class[b]) {
            // The group-by join proves the pair violating before the
            // cap applies: a clipped run still counts the pair that
            // tripped the cap as generated+verified work performed.
            ++generated;
            if (out.size() >= max_pairs) {
              clip = true;  // this pair exists but is being dropped
              break;
            }
            out.push_back(
                Violation{std::min(r1, r2), std::max(r1, r2), 0.0});
          }
        }
      }
    }
  }
  SortViolations(&out);
  if (clipped != nullptr) *clipped = clip;
  RecordExactAccounting(generated);
  if (accounting != nullptr) {
    accounting->candidates_generated = generated;
    accounting->candidates_verified = generated;
    accounting->candidates_filtered = 0;
  }
  return out;
}

std::vector<Violation> FindFTViolations(const Table& table, const FD& fd,
                                        const DistanceModel& model,
                                        const FTOptions& opts,
                                        size_t max_pairs,
                                        const Budget* budget,
                                        bool* truncated, bool* clipped,
                                        PairAccounting* accounting) {
  ViolationGraph graph = ViolationGraph::Build(
      BuildPatterns(table, fd.attrs()), table, fd, model, opts, budget);
  if (truncated != nullptr) *truncated = graph.truncated();
  if (accounting != nullptr) {
    accounting->candidates_generated = graph.candidates_generated();
    accounting->candidates_verified = graph.candidates_verified();
    accounting->candidates_filtered = graph.candidates_filtered();
  }
  std::vector<Violation> out;
  bool clip = false;
  for (int i = 0; i < graph.num_patterns() && !clip; ++i) {
    for (const ViolationGraph::Edge& e : graph.Neighbors(i)) {
      if (clip) break;
      if (e.to < i) continue;  // emit each undirected edge once
      for (int r1 : graph.pattern(i).rows) {
        if (clip) break;
        for (int r2 : graph.pattern(e.to).rows) {
          if (out.size() >= max_pairs) {
            clip = true;  // this pair exists but is being dropped
            break;
          }
          out.push_back(
              Violation{std::min(r1, r2), std::max(r1, r2), e.proj_dist});
        }
      }
    }
  }
  SortViolations(&out);
  if (clipped != nullptr) *clipped = clip;
  return out;
}

bool IsConsistent(const Table& table, const FD& fd) {
  for (const auto& x_class : GroupByLhsThenRhs(table, fd)) {
    if (x_class.size() > 1) return false;
  }
  return true;
}

bool IsConsistent(const Table& table, const std::vector<FD>& fds) {
  for (const FD& fd : fds) {
    if (!IsConsistent(table, fd)) return false;
  }
  return true;
}

bool IsFTConsistent(const Table& table, const FD& fd,
                    const DistanceModel& model, const FTOptions& opts) {
  ViolationGraph graph =
      ViolationGraph::Build(BuildPatterns(table, fd.attrs()), table, fd,
                            model, opts);
  return graph.num_edges() == 0;
}

bool IsFTConsistent(const Table& table, const std::vector<FD>& fds,
                    const DistanceModel& model, const FTOptions& opts) {
  for (const FD& fd : fds) {
    if (!IsFTConsistent(table, fd, model, opts)) return false;
  }
  return true;
}

uint64_t CountExactViolations(const Table& table, const FD& fd) {
  uint64_t total = 0;
  for (const auto& x_class : GroupByLhsThenRhs(table, fd)) {
    uint64_t class_total = 0;
    for (const auto& y_class : x_class) class_total += y_class.size();
    uint64_t same = 0;
    for (const auto& y_class : x_class) {
      same += static_cast<uint64_t>(y_class.size()) * y_class.size();
    }
    // Ordered cross pairs / 2 = unordered violating pairs.
    total += (class_total * class_total - same) / 2;
  }
  return total;
}

uint64_t CountFTViolations(const Table& table, const FD& fd,
                           const DistanceModel& model, const FTOptions& opts,
                           const Budget* budget, bool* truncated) {
  FTR_TRACE_SPAN("detect.count_ft", {{"fd", fd.name()}});
  ViolationGraph graph = ViolationGraph::Build(
      BuildPatterns(table, fd.attrs()), table, fd, model, opts, budget);
  if (truncated != nullptr) *truncated = graph.truncated();
  uint64_t total = 0;
  for (int i = 0; i < graph.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : graph.Neighbors(i)) {
      if (e.to < i) continue;
      total += static_cast<uint64_t>(graph.pattern(i).count()) *
               static_cast<uint64_t>(graph.pattern(e.to).count());
    }
  }
  return total;
}

}  // namespace ftrepair
