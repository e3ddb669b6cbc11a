#include "constraint/cfd.h"

namespace ftrepair {

Result<CFD> CFD::Make(FD fd, std::vector<PatternRow> tableau,
                      std::string name) {
  for (const PatternRow& row : tableau) {
    if (static_cast<int>(row.size()) != fd.num_attrs()) {
      return Status::InvalidArgument(
          "CFD tableau row arity " + std::to_string(row.size()) +
          " != FD attr count " + std::to_string(fd.num_attrs()));
    }
  }
  if (tableau.empty()) {
    return Status::InvalidArgument("CFD tableau must have >= 1 row");
  }
  CFD cfd;
  cfd.fd_ = std::move(fd);
  cfd.tableau_ = std::move(tableau);
  cfd.name_ = std::move(name);
  return cfd;
}

namespace {

// Checks the constants of tableau row `pat` over attr slots
// [begin, end) against the cells `cell_of(column)` returns.
template <typename CellOf>
bool MatchesSlots(const FD& fd, const PatternRow& pat, int begin, int end,
                  const CellOf& cell_of) {
  for (int i = begin; i < end; ++i) {
    const auto& cell = pat[static_cast<size_t>(i)];
    if (!cell.has_value()) continue;
    if (cell_of(fd.attrs()[static_cast<size_t>(i)]) != *cell) return false;
  }
  return true;
}

}  // namespace

bool CFD::MatchesLhs(const Row& row, int p) const {
  return MatchesSlots(fd_, tableau_[static_cast<size_t>(p)], 0,
                      fd_.lhs_size(), [&row](int c) -> const Value& {
                        return row[static_cast<size_t>(c)];
                      });
}

bool CFD::MatchesRhs(const Row& row, int p) const {
  return MatchesSlots(fd_, tableau_[static_cast<size_t>(p)], fd_.lhs_size(),
                      fd_.num_attrs(), [&row](int c) -> const Value& {
                        return row[static_cast<size_t>(c)];
                      });
}

// The table scans read only this CFD's own columns (never a whole
// row): RepairCFDs scans and writes column-disjoint CFD groups of one
// table concurrently.
std::vector<int> CFD::ApplicableRows(const Table& table, int p) const {
  const PatternRow& pat = tableau_[static_cast<size_t>(p)];
  std::vector<int> out;
  for (int r = 0; r < table.num_rows(); ++r) {
    auto cell_of = [&table, r](int c) -> const Value& {
      return table.cell(r, c);
    };
    if (MatchesSlots(fd_, pat, 0, fd_.lhs_size(), cell_of)) out.push_back(r);
  }
  return out;
}

std::vector<int> CFD::ConstantViolations(const Table& table, int p) const {
  const PatternRow& pat = tableau_[static_cast<size_t>(p)];
  std::vector<int> out;
  for (int r = 0; r < table.num_rows(); ++r) {
    auto cell_of = [&table, r](int c) -> const Value& {
      return table.cell(r, c);
    };
    if (MatchesSlots(fd_, pat, 0, fd_.lhs_size(), cell_of) &&
        !MatchesSlots(fd_, pat, fd_.lhs_size(), fd_.num_attrs(), cell_of)) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace ftrepair
