#include "detect/detector.h"

#include <utility>

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

}  // namespace

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
  std::vector<Pattern> patterns = BuildPatterns(table, fd.attrs());
  Detection detection =
      ViolationGraph::Detect(patterns, table, fd, model, opts, budget);
  if (truncated != nullptr) *truncated = detection.truncated;
  uint64_t total = detection.TuplePairs(patterns);
  detection.Release(opts.memory);
  return total;
}

}  // namespace ftrepair
