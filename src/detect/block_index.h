#ifndef FTREPAIR_DETECT_BLOCK_INDEX_H_
#define FTREPAIR_DETECT_BLOCK_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraint/fd.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// \brief Sound candidate generation for the violation-graph pair join
/// (similarity-join blocking).
///
/// The all-pairs join evaluates every i < j pattern pair against tau.
/// This index generates a *superset of the qualifying pairs* — never a
/// miss — from per-attribute filters derived from the normalized
/// distance bound each attribute's weight implies:
///
///   proj(u, v) <= tau  implies  fl(w_p * d_p(u, v)) <= tau  for every
///   attribute p, because IEEE addition of non-negative terms is
///   monotone (each partial sum is >= any single rounded term).
///
/// Two join strategies, picked from (tau, weights, metrics, values):
///
///   * Exact bucket join. At tau = 0 a qualifying pair has d_p = 0 on
///     every positively-weighted attribute, so patterns are bucketed by
///     a key that is constant within distance-0 classes: the dictionary
///     code (equal code == equal Value) for 0/1-discrete attributes,
///     the ToString rendering class for edit attributes (distinct
///     strings have positive edit distance; the null/"" rendering
///     collision only over-generates, which is sound). At tau > 0 the
///     same join applies when some 0/1-discrete attribute has w > tau:
///     any pair differing there is already past tau. Only provably
///     zero-distance-faithful attributes join the key; everything else
///     is left to the verification kernel.
///
///   * Gram join (tau > 0). Patterns are bucketed by the length L of
///     an anchor attribute's string. For a pair with lengths (La, Lb),
///     Lmax = max(La, Lb), the largest edit distance still admissible
///     is k(Lmax) = max { k : fl(w * fl(k / Lmax)) <= tau } — computed
///     with the exact double expressions the kernel uses, then:
///       - length filter: |La - Lb| > k(Lmax) implies ed > k(Lmax),
///       - count filter: ed <= k implies the q-gram *multisets* share
///         at least (Lmax - q + 1) - k*q grams (each edit destroys at
///         most q grams of the longer string), so sharing fewer prunes.
///     Shared-gram counts come from an inverted q-gram index per length
///     bucket. A null anchor only qualifies against other nulls (the
///     null distance is 1 and the anchor weight exceeds tau). The
///     remaining filter-eligible attributes apply the same two checks
///     per surviving pair (secondary filters).
///
/// Candidates are emitted in ascending j > i order, so a sharded build
/// that replays them in i order reproduces the serial all-pairs edge
/// order exactly. When no attribute supports any filter the index is
/// degenerate() and emits every pair — correct, just not faster.
class BlockIndex {
 public:
  /// Per-caller query state, reused across AppendCandidates calls to
  /// avoid re-allocating the shared-gram accumulator (grown to the
  /// largest length bucket seen). `shared` is indexed by rank within
  /// the current bucket and is all-zero between buckets; `kept` is a
  /// bitmap over pattern ids, all-zero between calls.
  struct Scratch {
    std::vector<uint32_t> shared;
    std::vector<int> touched;
    std::vector<uint64_t> kept;
    std::vector<int> cand;
  };

  /// Builds the index over `patterns` (code vectors laid out over
  /// `fd.attrs()`, decoded through `table`'s dictionaries) on whatever
  /// sound plan the input admits, worthwhile or not; the graph build
  /// goes through ForBuild instead. The inputs are only read during
  /// construction; the index keeps no reference to them beyond
  /// `opts.memory`.
  BlockIndex(const std::vector<Pattern>& patterns, const Table& table,
             const FD& fd, const DistanceModel& model,
             const FTOptions& opts);
  BlockIndex(const BlockIndex&) = delete;
  BlockIndex& operator=(const BlockIndex&) = delete;

  /// Appends to `out`, in ascending order, every j > i whose pattern
  /// might be within tau of pattern i (plus possibly pairs beyond tau —
  /// the filters are one-sided). Thread-safe for concurrent callers
  /// with distinct Scratch objects.
  void AppendCandidates(int i, Scratch* scratch, std::vector<int>* out) const;

  /// True when the exact bucket join is in use (otherwise gram join).
  bool exact_join() const { return gram_primary_ < 0; }
  /// attrs() position of the gram join's anchor attribute; -1 when the
  /// exact join is in use.
  int gram_primary() const { return gram_primary_; }
  /// True when no attribute supports any filter: every i < j pair is a
  /// candidate and the index degrades to the all-pairs join.
  bool degenerate() const { return exact_join() && num_key_attrs_ == 0; }

  /// The graph build's join decision, made once per build: returns the
  /// index when the pattern count reaches kMinPatterns and the plan
  /// finds a filter expected to prune (an exact-key attribute, or a
  /// gram anchor whose count filter or length spread bites at typical
  /// lengths); nullptr otherwise, and the build enumerates every i < j
  /// pair directly.
  static std::unique_ptr<BlockIndex> ForBuild(
      const std::vector<Pattern>& patterns, const Table& table, const FD& fd,
      const DistanceModel& model, const FTOptions& opts);

  /// Below this pattern count ForBuild never builds an index (its setup
  /// cost wouldn't amortize).
  static constexpr int kMinPatterns = 256;

  /// q-gram width of the count filter.
  static constexpr int kQ = 2;

  /// Sorted multiset of a string's q-grams, run-length encoded
  /// (implementation detail, public for the .cc's free helpers).
  struct GramRun {
    uint32_t gram;
    uint32_t count;
  };

 private:
  // One anchor-length bucket of the gram join: member ids (ascending)
  // plus an inverted gram index with per-member multiplicities. A
  // posting is (rank within `ids`, gram count) — rank-based so the
  // count accumulator is dense over the bucket.
  struct LenBucket {
    int len = 0;
    std::vector<int> ids;
    std::unordered_map<uint32_t, std::vector<std::pair<int, uint32_t>>>
        postings;
  };
  // Per-pair filter state of one eligible attribute.
  struct AttrFilter {
    int pos = 0;                // position within fd.attrs()
    std::vector<int> kmax;      // kmax[L] for L in [0, max string length]
    std::vector<int> len;       // per pattern; -1 = null value
    std::vector<std::vector<GramRun>> grams;  // per pattern
  };

  // Buckets patterns by per-attribute equality classes of their codes:
  // the raw code for discrete attributes (code equality is value
  // equality), the code's ToString rendering class for edit attributes.
  // Buckets and members are in first-appearance order.
  void BuildExactJoin(const std::vector<Pattern>& patterns,
                      const Table& table, const FD& fd,
                      const std::vector<int>& key_attrs,
                      const std::vector<bool>& key_by_tostring);
  // Buckets patterns by anchor length (primary_ holds the anchor data)
  // and builds each bucket's inverted gram index.
  void BuildGramJoin();
  bool SecondaryPrune(int i, int j) const;
  // The join strategy for one input: exact keys, gram anchor and
  // secondary filters, and whether any of them is expected to prune.
  struct JoinPlan;
  static JoinPlan MakePlan(const std::vector<Pattern>& patterns,
                           const Table& table, const FD& fd,
                           const DistanceModel& model, const FTOptions& opts);
  BlockIndex(const std::vector<Pattern>& patterns, const Table& table,
             const FD& fd, const FTOptions& opts, const JoinPlan& plan);

  int n_ = 0;
  int num_key_attrs_ = 0;
  int gram_primary_ = -1;
  // Charges `bytes` of index structures (MemPhase::kIndex).
  void Charge(uint64_t bytes) { charge_.Add(bytes, MemPhase::kIndex); }

  // What the index holds charged to FTOptions::memory, returned when
  // the index dies; exhaustion latches there, and the graph build sees
  // it and truncates.
  MemoryCharge charge_;

  // Exact join: pattern -> bucket, buckets hold ascending member ids.
  std::vector<int> bucket_of_;
  std::vector<int> rank_in_bucket_;
  std::vector<std::vector<int>> exact_buckets_;

  // Gram join: anchor data per pattern + length buckets + null bucket.
  AttrFilter primary_;
  std::vector<int> null_ids_;
  std::vector<LenBucket> len_buckets_;

  // Per-pair secondary filters (gram join and tau > 0 exact join).
  std::vector<AttrFilter> secondary_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_BLOCK_INDEX_H_
