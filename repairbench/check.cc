#include "check.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/repairer.h"
#include "data/csv.h"
#include "detect/detector.h"
#include "detect/pattern.h"
#include "metric/projection.h"
#include "workload.h"

namespace repairbench {

using ftrepair::CellChange;
using ftrepair::FD;
using ftrepair::RepairOptions;
using ftrepair::RepairResult;
using ftrepair::Table;
using ftrepair::Value;

namespace {

std::string Cell(int row, int col) {
  return "(" + std::to_string(row) + ", " + std::to_string(col) + ")";
}

std::vector<Value> Projection(const Table& table, int row,
                              const std::vector<int>& cols) {
  std::vector<Value> proj;
  proj.reserve(cols.size());
  for (int c : cols) proj.push_back(table.cell(row, c));
  return proj;
}

}  // namespace

std::string CheckRepair(const Table& input, const std::vector<FD>& fds,
                        const RepairOptions& options,
                        const RepairResult& result) {
  const Table& out = result.repaired;
  if (out.num_rows() != input.num_rows() ||
      out.num_columns() != input.num_columns()) {
    return "the repaired table has another shape than the input";
  }

  // The cost is recomputed with the model the pipeline uses, over the
  // same tables, so it must agree exactly.
  ftrepair::DistanceModel model(input);
  const double cost = ftrepair::TableRepairCost(input, out, model);
  if (cost != result.stats.repair_cost) {
    return "stats.repair_cost " + std::to_string(result.stats.repair_cost) +
           " != recomputed " + std::to_string(cost);
  }

  std::vector<std::pair<int, int>> diff;
  for (int r = 0; r < input.num_rows(); ++r) {
    for (int c = 0; c < input.num_columns(); ++c) {
      if (input.cell(r, c) != out.cell(r, c)) diff.emplace_back(r, c);
    }
  }
  std::vector<std::pair<int, int>> listed;
  listed.reserve(result.changes.size());
  for (const CellChange& ch : result.changes) {
    if (ch.row < 0 || ch.row >= input.num_rows() || ch.col < 0 ||
        ch.col >= input.num_columns()) {
      return "change outside the table at " + Cell(ch.row, ch.col);
    }
    if (ch.old_value != input.cell(ch.row, ch.col) ||
        ch.new_value != out.cell(ch.row, ch.col)) {
      return "change at " + Cell(ch.row, ch.col) +
             " does not match the input and repaired cells";
    }
    listed.emplace_back(ch.row, ch.col);
  }
  std::sort(listed.begin(), listed.end());
  if (std::adjacent_find(listed.begin(), listed.end()) != listed.end()) {
    return "a cell is listed twice in changes";
  }
  if (listed != diff) {
    return "changes list " + std::to_string(listed.size()) +
           " cells but the tables differ in " + std::to_string(diff.size());
  }

  std::vector<int> changed_rows;
  for (const auto& [row, col] : diff) changed_rows.push_back(row);
  changed_rows.erase(std::unique(changed_rows.begin(), changed_rows.end()),
                     changed_rows.end());
  for (const FD& fd : fds) {
    std::unordered_set<std::vector<Value>, ftrepair::ProjectionHash> seen;
    for (int r = 0; r < input.num_rows(); ++r) {
      seen.insert(Projection(input, r, fd.attrs()));
    }
    for (int r : changed_rows) {
      if (seen.count(Projection(out, r, fd.attrs())) == 0) {
        return "row " + std::to_string(r) + " was repaired to a " +
               fd.name() + " projection absent from the input";
      }
    }
  }

  if (!result.stats.degraded()) {
    RepairOptions unbudgeted = options;
    unbudgeted.budget = nullptr;
    unbudgeted.memory = nullptr;
    for (const FD& fd : fds) {
      const uint64_t left = ftrepair::CountFTViolations(
          out, fd, model, unbudgeted.FTFor(fd));
      if (left != 0) {
        return std::to_string(left) + " FT-violations of " + fd.name() +
               " remain after a non-degraded repair";
      }
    }
  }
  return "";
}

Table AsText(const Table& table) {
  Table text(table.schema());
  for (int r = 0; r < table.num_rows(); ++r) {
    ftrepair::Row row;
    row.reserve(static_cast<size_t>(table.num_columns()));
    for (int c = 0; c < table.num_columns(); ++c) {
      row.emplace_back(table.cell(r, c).ToString());
    }
    // Same width as the schema, so the append cannot fail.
    (void)text.AppendRow(std::move(row));
  }
  return text;
}

double CellAccuracy(const Table& repaired, const Table& clean) {
  uint64_t equal = 0;
  for (int r = 0; r < clean.num_rows(); ++r) {
    for (int c = 0; c < clean.num_columns(); ++c) {
      if (repaired.cell(r, c).ToString() == clean.cell(r, c).ToString()) {
        ++equal;
      }
    }
  }
  return static_cast<double>(equal) /
         (static_cast<double>(clean.num_rows()) * clean.num_columns());
}

std::string SelfTestChecker() {
  auto inputs = MakeInputs(1000, 7, 42, 1);
  if (!inputs.ok()) return "set-up: " + inputs.status().ToString();
  const Inputs& in = inputs.value();
  auto table = ftrepair::ReadCsvString(in.dirty_csv.front());
  if (!table.ok()) return "read: " + table.status().ToString();
  const Table& input = table.value();
  RepairOptions options =
      MakeOptions(*FindWorkload("hosp-appro"), in.dataset);
  auto repaired = ftrepair::Repairer(options).Repair(input, in.dataset.fds);
  if (!repaired.ok()) return "repair: " + repaired.status().ToString();
  const RepairResult& good = repaired.value();
  std::string verdict = CheckRepair(input, in.dataset.fds, options, good);
  if (!verdict.empty()) return "an unmodified result failed: " + verdict;
  if (good.changes.size() < 2) return "the self-test repair changed < 2 cells";

  RepairResult flipped = good;
  const CellChange& first = good.changes.front();
  flipped.repaired.SetCell(first.row, first.col, first.old_value);
  RepairResult dropped = good;
  dropped.changes.pop_back();
  RepairResult off_cost = good;
  off_cost.stats.repair_cost += 1e-6;
  const std::pair<const char*, const RepairResult*> corrupted[] = {
      {"one cell flipped", &flipped},
      {"one change dropped", &dropped},
      {"cost off by 1e-6", &off_cost},
  };
  for (const auto& [what, result] : corrupted) {
    if (CheckRepair(input, in.dataset.fds, options, *result).empty()) {
      return std::string("a result with ") + what + " passed the check";
    }
  }
  return "";
}

}  // namespace repairbench
