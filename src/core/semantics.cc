#include "core/semantics.h"

#include <string>

#include "common/strings.h"
#include "detect/detector.h"
#include "metric/projection.h"

namespace ftrepair {

namespace {

struct SemanticsEntry {
  SemanticsId id;
  const char* name;
  bool supports_cfds;
};

// Sorted by name: the unknown-name error lists the names in this order.
constexpr SemanticsEntry kSemantics[] = {
    {SemanticsId::kCardinality, "cardinality", false},
    {SemanticsId::kFtCost, "ft-cost", true},
    {SemanticsId::kSoftFd, "soft-fd", false},
};

const SemanticsEntry& Entry(SemanticsId id) {
  for (const SemanticsEntry& entry : kSemantics) {
    if (entry.id == id) return entry;
  }
  return kSemantics[1];  // unreachable: every id has an entry
}

}  // namespace

const char* SemanticsName(SemanticsId id) { return Entry(id).name; }

Result<SemanticsId> ParseSemantics(std::string_view name) {
  std::string known;
  for (const SemanticsEntry& entry : kSemantics) {
    if (name == entry.name) return entry.id;
    if (!known.empty()) known += " | ";
    known += entry.name;
  }
  return Status::InvalidArgument("unknown semantics '" + std::string(name) +
                                 "' (" + known + ")");
}

bool SupportsCfds(SemanticsId id) { return Entry(id).supports_cfds; }

Status ValidateSemantics(SemanticsId id, const RepairOptions& options,
                         const std::vector<FD>& fds) {
  if (id != SemanticsId::kSoftFd) return Status::OK();
  for (const auto& entry : options.confidence_by_fd) {
    if (!(entry.second > 0.0 && entry.second <= 1.0)) {
      return Status::InvalidArgument(
          "confidence for FD '" + entry.first + "' is " +
          FormatDouble(entry.second) + ", want a value in (0, 1]");
    }
    bool known = false;
    for (const FD& fd : fds) {
      known = known || (!fd.name().empty() && fd.name() == entry.first);
    }
    if (!known) {
      return Status::InvalidArgument("confidence references unknown FD '" +
                                     entry.first +
                                     "' (no FD with that name)");
    }
  }
  return Status::OK();
}

uint64_t CountResidualViolations(SemanticsId id, const Table& table,
                                 const std::vector<FD>& fds,
                                 const RepairOptions& options) {
  uint64_t count = 0;
  if (id == SemanticsId::kCardinality) {
    // Classical FD consistency: exact equality violations, no fault
    // tolerance.
    for (const FD& fd : fds) count += CountExactViolations(table, fd);
    return count;
  }
  DistanceModel model(table);
  for (const FD& fd : fds) {
    // Soft-fd consistency: only the hard FDs (confidence 1) must hold;
    // soft FDs may keep violations the penalty rate did not justify
    // repairing.
    if (id == SemanticsId::kSoftFd && options.ConfidenceFor(fd) < 1.0) {
      continue;
    }
    count += CountFTViolations(table, fd, model, options.FTFor(fd));
  }
  return count;
}

}  // namespace ftrepair
