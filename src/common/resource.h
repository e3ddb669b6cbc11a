#ifndef FTREPAIR_COMMON_RESOURCE_H_
#define FTREPAIR_COMMON_RESOURCE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>

#include "common/budget.h"
#include "common/status.h"

namespace ftrepair {

/// Pipeline phases for memory attribution. Every charge names the
/// structure class it grows so the per-phase histograms (and the
/// exhaustion message) can say *where* the bytes went.
enum class MemPhase {
  kIngest = 0,   // CSV text and row buffers
  kGraph = 1,    // violation-graph edge buffers and shard scratch
  kIndex = 2,    // block-index postings, buckets, and filters
  kSolve = 3,    // expansion frontiers and greedy heaps / round state
  kTargets = 4,  // target tries and lazy-search arenas
  kOther = 5,
};
inline constexpr size_t kNumMemPhases = 6;

const char* MemPhaseName(MemPhase phase);

/// \brief Byte-granular memory governance for one repair run (the
/// resident-memory counterpart of the wall-clock Budget).
///
/// The library never measures the allocator; instead every structure
/// that grows with input size *charges* its growth here, so accounting
/// is deterministic and identical across platforms. Two watermarks:
///
///   * soft (default 80% of the hard limit): crossing it latches a
///     flag the pipeline polls to start degrading (tighter valves,
///     stepping down the exact->greedy->appro->detect-only ladder);
///   * hard: crossing it latches exhaustion, after which every charge
///     fails and Check() renders a ResourceExhausted naming the
///     charge site — callers unwind with partial, well-formed output.
///
/// Mirrors the Budget idioms: all accounting is relaxed-atomic and
/// const (a shared budget is charged from worker threads), exhaustion
/// latches (Release lowers resident occupancy but never un-exhausts),
/// and the fault seam FTREPAIR_FAULT_MEM_BYTES=N — read per
/// construction, armed only for limited budgets — forces exhaustion
/// once N bytes have been charged cumulatively, wherever in the
/// pipeline that byte lands.
class MemoryBudget {
 public:
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  /// An unlimited budget: charges always succeed, nothing is armed.
  MemoryBudget() : MemoryBudget(kUnlimited) {}
  /// A budget with a hard limit of `hard_limit_bytes` and a soft
  /// watermark at `soft_fraction` of it (clamped to [0, 1]). A
  /// non-positive hard limit starts exhausted.
  explicit MemoryBudget(uint64_t hard_limit_bytes,
                        double soft_fraction = 0.8);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool limited() const { return hard_limit_ != kUnlimited; }
  uint64_t hard_limit_bytes() const { return hard_limit_; }
  uint64_t soft_limit_bytes() const { return soft_limit_; }

  /// Charges `bytes` against the budget. Returns false when the budget
  /// is (or just became) exhausted — by the hard watermark or the
  /// fault seam. The failed charge is not added to resident occupancy.
  bool TryCharge(uint64_t bytes, MemPhase phase = MemPhase::kOther) const;

  /// TryCharge + Check: the one-call form for sites that propagate a
  /// Status directly.
  Status Charge(uint64_t bytes, const char* where,
                MemPhase phase = MemPhase::kOther) const {
    if (TryCharge(bytes, phase)) return Status::OK();
    return Check(where);
  }

  /// Returns `bytes` of resident occupancy (a freed structure). Never
  /// un-latches exhaustion or the soft watermark.
  void Release(uint64_t bytes) const;

  bool Exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  /// True once resident occupancy has crossed the soft watermark
  /// (latched: stays true even if occupancy later drops).
  bool SoftExceeded() const {
    return soft_latched_.load(std::memory_order_relaxed);
  }

  /// Renders the exhaustion cause, e.g.
  ///   "memory budget exhausted in violation graph edges: hard limit
  ///    of 1048576 bytes exceeded (resident 1048578, peak 1048578)".
  /// Returns OK when not exhausted (see ResourceCheck below for call
  /// sites that must never return OK).
  Status Check(const char* where) const;

  uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Cumulative charged bytes (never lowered by Release); drives the
  /// fault seam.
  uint64_t charged_total_bytes() const {
    return charged_total_.load(std::memory_order_relaxed);
  }
  uint64_t charged_bytes(MemPhase phase) const {
    return phase_bytes_[static_cast<size_t>(phase)].load(
        std::memory_order_relaxed);
  }

 private:
  void LatchExhausted(bool injected) const;

  uint64_t hard_limit_;
  uint64_t soft_limit_;
  uint64_t fault_bytes_;  // 0 = seam disarmed

  mutable std::atomic<uint64_t> resident_{0};
  mutable std::atomic<uint64_t> peak_{0};
  mutable std::atomic<uint64_t> charged_total_{0};
  mutable std::array<std::atomic<uint64_t>, kNumMemPhases> phase_bytes_{};
  mutable std::atomic<bool> exhausted_{false};
  mutable std::atomic<bool> soft_latched_{false};
  mutable std::atomic<bool> fault_tripped_{false};
};

/// Null-safe charge: a pipeline without a memory budget charges into
/// the void. Mirrors BudgetCharge.
inline bool MemCharge(const MemoryBudget* memory, uint64_t bytes,
                      MemPhase phase = MemPhase::kOther) {
  return memory == nullptr || memory->TryCharge(bytes, phase);
}

/// \brief The bytes one structure holds charged to a MemoryBudget,
/// returned when the holder is reset or dies.
///
/// Move-only: a moved-from holder holds nothing. With a null budget
/// every charge succeeds and nothing is held. The budget is not owned
/// and must outlive the holder, which releases into it when it dies.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  explicit MemoryCharge(const MemoryBudget* memory) : memory_(memory) {}
  ~MemoryCharge() { Reset(); }
  MemoryCharge(MemoryCharge&& other) noexcept
      : memory_(other.memory_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      memory_ = other.memory_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  /// Charges `bytes` more (MemCharge); on false nothing more is held.
  bool Add(uint64_t bytes, MemPhase phase) {
    if (!MemCharge(memory_, bytes, phase)) return false;
    if (memory_ != nullptr) bytes_ += bytes;
    return true;
  }
  /// Returns `bytes` of what is held (at most all of it).
  void Return(uint64_t bytes) {
    if (bytes > bytes_) bytes = bytes_;
    if (bytes == 0) return;
    memory_->Release(bytes);
    bytes_ -= bytes;
  }
  /// Returns everything held.
  void Reset() { Return(bytes_); }

 private:
  const MemoryBudget* memory_ = nullptr;
  uint64_t bytes_ = 0;
};

inline bool MemExhausted(const MemoryBudget* memory) {
  return memory != nullptr && memory->Exhausted();
}

inline bool MemSoftExceeded(const MemoryBudget* memory) {
  return memory != nullptr && memory->SoftExceeded();
}

/// Renders the resource-exhaustion Status for a site that has already
/// decided to fail (a truncated structure, a failed charge). Unlike
/// Budget::Check / MemoryBudget::Check this NEVER returns OK: when the
/// truncation cause is not attributable to either budget (e.g. a
/// hard-coded cap fired) it still produces a generic ResourceExhausted
/// so callers cannot accidentally turn a truncation into success.
Status ResourceCheck(const Budget* budget, const MemoryBudget* memory,
                     const char* where);

}  // namespace ftrepair

#endif  // FTREPAIR_COMMON_RESOURCE_H_
