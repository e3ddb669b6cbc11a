#include "core/distance_table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace ftrepair {

namespace {

uint32_t IndexOf(const std::vector<uint32_t>& sorted, uint32_t code) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), code);
  FTR_DCHECK(it != sorted.end() && *it == code);
  return static_cast<uint32_t>(it - sorted.begin());
}

}  // namespace

DistanceTable::DistanceTable(std::vector<std::vector<uint32_t>> domains,
                             const std::vector<Pattern>& patterns,
                             const std::vector<size_t>& ids)
    : domains_(std::move(domains)) {
  size_t width = domains_.size();
  row_codes_.resize(width);
  offset_.resize(width);
  for (size_t p = 0; p < width; ++p) {
    std::vector<uint32_t>& codes = row_codes_[p];
    codes.reserve(ids.size());
    for (size_t id : ids) codes.push_back(patterns[id].codes[p]);
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    offset_[p] = entries_;
    entries_ += static_cast<uint64_t>(codes.size()) * domains_[p].size();
  }
  query_rows_.resize(ids.size() * width);
  for (size_t q = 0; q < ids.size(); ++q) {
    for (size_t p = 0; p < width; ++p) {
      query_rows_[q * width + p] =
          IndexOf(row_codes_[p], patterns[ids[q]].codes[p]);
    }
  }
}

bool DistanceTable::Fill(const Table& table, const std::vector<int>& cols,
                         const DistanceModel& model, int threads,
                         const Budget* budget, const MemoryBudget* memory) {
  charge_ = MemoryCharge(memory);
  if (BudgetExhausted(budget) || MemExhausted(memory) ||
      !charge_.Add(bytes(), MemPhase::kTargets)) {
    return false;
  }
  FTR_TRACE_SPAN("targets.distance_table");
  static Counter* evals =
      Metrics().GetCounter("ftrepair.targets.distance_evals");
  static Counter* table_bytes =
      Metrics().GetCounter("ftrepair.targets.table_bytes");
  evals->Increment(entries_);
  table_bytes->Increment(bytes());

  values_.resize(entries_);
  const ProjectionDecoder decoder(table, cols);
  // One shard per row; row_start[p] is position p's first shard.
  std::vector<int> row_start(domains_.size() + 1, 0);
  for (size_t p = 0; p < domains_.size(); ++p) {
    row_start[p + 1] = row_start[p] + static_cast<int>(row_codes_[p].size());
  }
  // No budget: once started, the whole table is filled.
  ParallelFor(row_start.back(), threads, [&](int shard) {
    size_t p = static_cast<size_t>(
        std::upper_bound(row_start.begin(), row_start.end(), shard) -
        row_start.begin() - 1);
    size_t r = static_cast<size_t>(shard - row_start[p]);
    uint32_t query_code = row_codes_[p][r];
    const std::vector<uint32_t>& domain = domains_[p];
    double* row = values_.data() + offset_[p] + r * domain.size();
    for (size_t i = 0; i < domain.size(); ++i) {
      row[i] = decoder.Distance(model, p, query_code, domain[i]);
    }
  });
  return true;
}

DistanceRows DistanceTable::Rows(size_t q) const {
  size_t width = domains_.size();
  DistanceRows rows(width);
  for (size_t p = 0; p < width; ++p) {
    rows[p] = values_.data() + offset_[p] +
              static_cast<uint64_t>(query_rows_[q * width + p]) *
                  domains_[p].size();
  }
  return rows;
}

std::vector<uint32_t> DomainIndices(
    const std::vector<std::vector<uint32_t>>& domains,
    const std::vector<uint32_t>& codes) {
  std::vector<uint32_t> indices(codes.size());
  for (size_t p = 0; p < codes.size(); ++p) {
    indices[p] = IndexOf(domains[p], codes[p]);
  }
  return indices;
}

}  // namespace ftrepair
