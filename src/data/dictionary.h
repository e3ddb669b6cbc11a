#ifndef FTREPAIR_DATA_DICTIONARY_H_
#define FTREPAIR_DATA_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "data/value.h"

namespace ftrepair {

/// \brief Per-column dictionary interning distinct Values into dense
/// uint32_t codes.
///
/// Code 0 is reserved for null; distinct non-null values get codes
/// 1, 2, ... in first-intern order, so two tables built from the same
/// cell sequence assign identical codes (deterministic, stable).
/// Interning is a bijection between the interned value set and the
/// code range: equal Values (operator==) always map to the same code,
/// distinct Values to distinct codes — which is exactly why grouping
/// rows by code vectors partitions them identically to grouping by
/// value vectors.
///
/// Value storage is a deque, so `value(code)` references are stable
/// for the dictionary's lifetime even while later interns grow it.
class ColumnDictionary {
 public:
  static constexpr uint32_t kNullCode = 0;

  ColumnDictionary() { Append(Value()); }  // slot 0 = null
  ColumnDictionary(const ColumnDictionary& other)
      : values_(other.values_), index_(other.index_) {
    Reslot();
  }
  ColumnDictionary& operator=(const ColumnDictionary& other) {
    values_ = other.values_;
    index_ = other.index_;
    Reslot();
    return *this;
  }
  // Moving a deque keeps its elements where they are, so the slots
  // stay valid.
  ColumnDictionary(ColumnDictionary&&) = default;
  ColumnDictionary& operator=(ColumnDictionary&&) = default;

  /// Returns the code of `v`, interning it first if unseen. Null maps
  /// to kNullCode without touching the index.
  uint32_t Intern(Value v) {
    if (v.is_null()) return kNullCode;
    auto it = index_.find(v);
    if (it != index_.end()) return it->second;
    uint32_t code = size();
    Append(std::move(v));
    index_.emplace(values_.back(), code);
    return code;
  }

  /// The value a code decodes to; reference stable across interns.
  const Value& value(uint32_t code) const {
    return *slots_[static_cast<size_t>(code)];
  }

  /// True (writing `*code`) iff `v` is already interned. Null reports
  /// kNullCode.
  bool Lookup(const Value& v, uint32_t* code) const {
    if (v.is_null()) {
      *code = kNullCode;
      return true;
    }
    auto it = index_.find(v);
    if (it == index_.end()) return false;
    *code = it->second;
    return true;
  }

  /// Number of codes, null slot included (codes are [0, size)).
  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }

  /// Approximate resident bytes of the dictionary entries (used by the
  /// ingest path's MemoryBudget charging).
  static uint64_t ApproxEntryBytes(const Value& v) {
    return sizeof(Value) + (v.is_string() ? v.str().size() : 0);
  }

 private:
  void Append(Value v) {
    values_.push_back(std::move(v));
    slots_.push_back(&values_.back());
  }
  void Reslot() {
    slots_.clear();
    slots_.reserve(values_.size());
    for (const Value& v : values_) slots_.push_back(&v);
  }

  std::deque<Value> values_;
  /// slots_[code] == &values_[code]. The graph build and the target
  /// searches decode per distance; a slot load is cheaper than a deque
  /// index, which locates the block first.
  std::vector<const Value*> slots_;
  std::unordered_map<Value, uint32_t, ValueHash> index_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DATA_DICTIONARY_H_
