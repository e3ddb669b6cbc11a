#include "detect/threshold.h"

#include <algorithm>
#include <vector>

#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {

double SuggestThreshold(const Table& table, const FD& fd,
                        const DistanceModel& model,
                        const ThresholdOptions& opts) {
  // ProjDistance is the value-keyed reference: decode each pattern
  // once, not once per pair.
  std::vector<std::vector<Value>> projections;
  for (const Pattern& p : BuildPatterns(table, fd.attrs())) {
    projections.push_back(DecodeProjection(table, fd.attrs(), p.codes));
  }
  size_t n = projections.size();
  std::vector<double> distances;

  // Deterministic stride subsampling keeps the pair count bounded.
  size_t total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  size_t stride = 1;
  if (total_pairs > opts.max_pairs && opts.max_pairs > 0) {
    stride = (total_pairs + opts.max_pairs - 1) / opts.max_pairs;
  }
  size_t pair_index = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j, ++pair_index) {
      if (pair_index % stride != 0) continue;
      double d = ViolationGraph::ProjDistance(
          projections[i], projections[j], fd, model, opts.w_l, opts.w_r);
      if (d > 0 && d <= opts.ceiling) distances.push_back(d);
    }
  }
  std::sort(distances.begin(), distances.end());
  distances.erase(std::unique(distances.begin(), distances.end()),
                  distances.end());
  if (distances.size() < 2) return opts.fallback;

  // Largest jump between adjacent distinct distances; tau is the value
  // *below* the jump.
  size_t best = 0;
  double best_gap = -1;
  for (size_t i = 0; i + 1 < distances.size(); ++i) {
    double gap = distances[i + 1] - distances[i];
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return distances[best];
}

}  // namespace ftrepair
