#include "detect/block_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/trace.h"

namespace ftrepair {

namespace {

// Weights below this cannot be trusted to keep fl(w * d) away from a
// zero underflow for the smallest attribute distances the zero-faithful
// metrics produce (d >= 1 / string-length for edit, d = 1 for
// discrete), so such attributes never join an exact bucket key.
constexpr double kMinKeyWeight = 1e-300;

std::string ValueText(const Value& v) {
  return v.is_string() ? v.str() : v.ToString();
}

// Largest edit distance k in [0, length] whose weighted normalized
// contribution still fits under tau, using the exact double expressions
// the verification kernel evaluates (fl(w * fl(k / length))), so the
// filter's prune predicate and the kernel's accept predicate partition
// the integers with no gap. The float guess is fixed up both ways.
int KMaxFor(double w, double tau, int length) {
  if (length <= 0) return 0;
  double len = static_cast<double>(length);
  int k = static_cast<int>((tau / w) * len);
  if (k > length) k = length;
  if (k < 0) k = 0;
  while (k > 0 && w * (static_cast<double>(k) / len) > tau) --k;
  while (k < length && !(w * (static_cast<double>(k + 1) / len) > tau)) ++k;
  return k;
}

// Per-attribute facts gathered in one pass over the patterns.
struct AttrStats {
  double w = 0;
  ColumnMetric metric = ColumnMetric::kAuto;
  bool has_number = false;
  int num_strings = 0;  // non-null values
  long long sum_len = 0;
  int min_len = 0;
  int max_len = 0;
};

std::vector<AttrStats> GatherStats(const std::vector<Pattern>& patterns,
                                   const Table& table, const FD& fd,
                                   const DistanceModel& model,
                                   const FTOptions& opts) {
  int num_attrs = fd.num_attrs();
  int lhs = fd.lhs_size();
  std::vector<AttrStats> stats(static_cast<size_t>(num_attrs));
  for (int p = 0; p < num_attrs; ++p) {
    stats[static_cast<size_t>(p)].w = p < lhs ? opts.w_l : opts.w_r;
    stats[static_cast<size_t>(p)].metric =
        model.column_metric(fd.attrs()[static_cast<size_t>(p)]);
  }
  for (const Pattern& pat : patterns) {
    for (int p = 0; p < num_attrs; ++p) {
      AttrStats& s = stats[static_cast<size_t>(p)];
      const Value& v = table.dictionary(fd.attrs()[static_cast<size_t>(p)])
                           .value(pat.codes[static_cast<size_t>(p)]);
      if (v.is_null()) continue;
      if (v.is_number()) s.has_number = true;
      int len = static_cast<int>(ValueText(v).size());
      if (s.num_strings == 0 || len < s.min_len) s.min_len = len;
      if (s.num_strings == 0 || len > s.max_len) s.max_len = len;
      s.sum_len += len;
      ++s.num_strings;
    }
  }
  return stats;
}

// True when CellDistance on this attribute is edit distance over the
// values' ToString renderings for every non-null pair. kEdit always
// resolves that way; kAuto does once numbers are ruled out (a numeric
// pair would resolve to Euclidean instead).
bool EditFaithful(const AttrStats& s) {
  return s.metric == ColumnMetric::kEdit ||
         (s.metric == ColumnMetric::kAuto && !s.has_number);
}

// Sorted run-length-encoded q-gram multiset of `s` (q = kQ = 2, grams
// encoded as two bytes packed into a uint32).
std::vector<BlockIndex::GramRun> GramRunsOf(const std::string& s);

int SharedGramCount(const std::vector<BlockIndex::GramRun>& a,
                    const std::vector<BlockIndex::GramRun>& b, int cap);

}  // namespace

struct BlockIndex::JoinPlan {
  bool exact = false;
  std::vector<int> key_attrs;
  std::vector<bool> key_by_tostring;
  int primary = -1;
  std::vector<int> secondary;
  // True when some filter is expected to actually prune; ForBuild only
  // builds an index when this holds.
  bool worthwhile = false;
};

BlockIndex::JoinPlan BlockIndex::MakePlan(const std::vector<Pattern>& patterns,
                                          const Table& table, const FD& fd,
                                          const DistanceModel& model,
                                          const FTOptions& opts) {
  JoinPlan plan;
  std::vector<AttrStats> stats =
      GatherStats(patterns, table, fd, model, opts);
  int num_attrs = fd.num_attrs();
  double tau = opts.tau;

  if (!(tau > 0)) {
    // tau = 0 (or negative, which admits nothing and verifies trivially):
    // bucket by every attribute whose distance is provably 0 iff its
    // bucket key matches.
    plan.exact = true;
    for (int p = 0; p < num_attrs; ++p) {
      const AttrStats& s = stats[static_cast<size_t>(p)];
      if (!(s.w >= kMinKeyWeight)) continue;
      if (s.metric == ColumnMetric::kDiscrete) {
        plan.key_attrs.push_back(p);
        plan.key_by_tostring.push_back(false);
      } else if (EditFaithful(s)) {
        plan.key_attrs.push_back(p);
        plan.key_by_tostring.push_back(true);
      }
    }
    plan.worthwhile = !plan.key_attrs.empty();
    return plan;
  }

  // tau > 0. A 0/1-discrete attribute with w > tau is an exact key:
  // fl(w * 1) = w already rejects any pair differing there.
  std::vector<int> gram_eligible;
  for (int p = 0; p < num_attrs; ++p) {
    const AttrStats& s = stats[static_cast<size_t>(p)];
    if (s.metric == ColumnMetric::kDiscrete && s.w > tau) {
      plan.key_attrs.push_back(p);
      plan.key_by_tostring.push_back(false);
    } else if (s.w > tau && EditFaithful(s)) {
      gram_eligible.push_back(p);
    }
  }
  if (!plan.key_attrs.empty()) {
    plan.exact = true;
    plan.worthwhile = true;
    plan.secondary = gram_eligible;
    return plan;
  }

  // Pick the gram anchor: the attribute whose count filter has the
  // largest threshold at the attribute's typical length (ties: heavier
  // weight, then position). Attributes where neither the count filter
  // nor the length spread can bite are still *sound* anchors, just not
  // worthwhile ones.
  int best_t = 0;
  double best_w = 0;
  bool best_usable = false;
  for (int p : gram_eligible) {
    const AttrStats& s = stats[static_cast<size_t>(p)];
    if (s.num_strings == 0) continue;
    int avg_len = static_cast<int>(s.sum_len / s.num_strings);
    int t_avg = (avg_len - BlockIndex::kQ + 1) -
                KMaxFor(s.w, tau, avg_len) * BlockIndex::kQ;
    bool len_bites =
        (s.max_len - s.min_len) > KMaxFor(s.w, tau, s.max_len);
    bool usable = t_avg >= 1 || len_bites;
    bool better;
    if (usable != best_usable) {
      better = usable;
    } else if (t_avg != best_t) {
      better = t_avg > best_t;
    } else {
      better = plan.primary < 0 || s.w > best_w;
    }
    if (better) {
      plan.primary = p;
      best_t = t_avg;
      best_w = s.w;
      best_usable = usable;
    }
  }
  if (plan.primary < 0 && !gram_eligible.empty()) {
    plan.primary = gram_eligible.front();
  }
  plan.exact = plan.primary < 0;  // degenerate: no filterable attribute
  plan.worthwhile = best_usable;
  for (int p : gram_eligible) {
    if (p != plan.primary) plan.secondary.push_back(p);
  }
  return plan;
}

void BlockIndex::BuildExactJoin(const std::vector<Pattern>& patterns,
                                const Table& table, const FD& fd,
                                const std::vector<int>& key_attrs,
                                const std::vector<bool>& key_by_tostring) {
  bucket_of_.assign(static_cast<size_t>(n_), 0);
  rank_in_bucket_.assign(static_cast<size_t>(n_), 0);
  // Per key attribute: dictionary code -> dense equality-class id.
  // Discrete attributes use the code itself (interning is a bijection,
  // so code equality IS raw-value equality). Edit attributes must
  // group by the ToString rendering instead: two distinct codes (say
  // number 5 and string "5") can render identically and then have edit
  // distance 0 — keying by raw code would split their bucket, missing
  // pairs. The class maps are resolved once per distinct code, so the
  // per-pattern key build never touches strings after warm-up.
  struct ClassMap {
    std::unordered_map<uint32_t, uint32_t> of_code;
    std::unordered_map<std::string, uint32_t> of_render;  // tostring only
  };
  std::vector<ClassMap> classes(key_attrs.size());
  std::unordered_map<std::vector<uint32_t>, int, CodeVectorHash> keys;
  keys.reserve(static_cast<size_t>(n_));
  std::vector<uint32_t> key;
  for (int i = 0; i < n_; ++i) {
    key.clear();
    key.reserve(key_attrs.size());
    for (size_t k = 0; k < key_attrs.size(); ++k) {
      uint32_t code = patterns[static_cast<size_t>(i)]
                          .codes[static_cast<size_t>(key_attrs[k])];
      if (!key_by_tostring[k]) {
        key.push_back(code);
        continue;
      }
      ClassMap& cm = classes[k];
      auto it = cm.of_code.find(code);
      if (it == cm.of_code.end()) {
        const Value& v =
            table.dictionary(fd.attrs()[static_cast<size_t>(key_attrs[k])])
                .value(code);
        auto [rit, ignored] = cm.of_render.emplace(
            ValueText(v), static_cast<uint32_t>(cm.of_render.size()));
        it = cm.of_code.emplace(code, rit->second).first;
      }
      key.push_back(it->second);
    }
    auto [it, inserted] =
        keys.emplace(key, static_cast<int>(exact_buckets_.size()));
    if (inserted) exact_buckets_.emplace_back();
    std::vector<int>& members = exact_buckets_[static_cast<size_t>(it->second)];
    bucket_of_[static_cast<size_t>(i)] = it->second;
    rank_in_bucket_[static_cast<size_t>(i)] = static_cast<int>(members.size());
    members.push_back(i);
  }
  // bucket_of_ + rank_in_bucket_ + one member id per pattern.
  Charge(static_cast<uint64_t>(n_) * 3 * sizeof(int));
}

void BlockIndex::BuildGramJoin() {
  std::unordered_map<int, int> bucket_of_len;
  for (int i = 0; i < n_; ++i) {
    int len = primary_.len[static_cast<size_t>(i)];
    if (len < 0) {
      null_ids_.push_back(i);
      continue;
    }
    auto [it, inserted] =
        bucket_of_len.emplace(len, static_cast<int>(len_buckets_.size()));
    if (inserted) {
      len_buckets_.emplace_back();
      len_buckets_.back().len = len;
    }
    len_buckets_[static_cast<size_t>(it->second)].ids.push_back(i);
  }
  std::sort(len_buckets_.begin(), len_buckets_.end(),
            [](const LenBucket& a, const LenBucket& b) { return a.len < b.len; });
  uint64_t posting_bytes = 0;
  for (LenBucket& bucket : len_buckets_) {
    posting_bytes += bucket.ids.size() * sizeof(int);
    for (size_t rank = 0; rank < bucket.ids.size(); ++rank) {
      int id = bucket.ids[rank];
      for (const GramRun& run : primary_.grams[static_cast<size_t>(id)]) {
        bucket.postings[run.gram].emplace_back(static_cast<int>(rank),
                                               run.count);
        posting_bytes += sizeof(std::pair<int, uint32_t>);
      }
    }
  }
  Charge(posting_bytes);
}

std::unique_ptr<BlockIndex> BlockIndex::ForBuild(
    const std::vector<Pattern>& patterns, const Table& table, const FD& fd,
    const DistanceModel& model, const FTOptions& opts) {
  if (static_cast<int>(patterns.size()) < kMinPatterns) return nullptr;
  JoinPlan plan = MakePlan(patterns, table, fd, model, opts);
  if (!plan.worthwhile) return nullptr;
  FTR_TRACE_SPAN("detect.block_index",
                 {{"fd", fd.name()},
                  {"patterns", std::to_string(patterns.size())}});
  return std::unique_ptr<BlockIndex>(
      new BlockIndex(patterns, table, fd, opts, plan));
}

BlockIndex::BlockIndex(const std::vector<Pattern>& patterns,
                       const Table& table, const FD& fd,
                       const DistanceModel& model, const FTOptions& opts)
    : BlockIndex(patterns, table, fd, opts,
                 MakePlan(patterns, table, fd, model, opts)) {}

BlockIndex::BlockIndex(const std::vector<Pattern>& patterns,
                       const Table& table, const FD& fd,
                       const FTOptions& opts, const JoinPlan& plan) {
  n_ = static_cast<int>(patterns.size());
  charge_ = MemoryCharge(opts.memory);
  int lhs = fd.lhs_size();
  auto weight_of = [&](int p) { return p < lhs ? opts.w_l : opts.w_r; };

  auto make_filter = [&](int p) {
    AttrFilter f;
    f.pos = p;
    f.len.assign(static_cast<size_t>(n_), -1);
    f.grams.assign(static_cast<size_t>(n_), {});
    const ColumnDictionary& dict =
        table.dictionary(fd.attrs()[static_cast<size_t>(p)]);
    int max_len = 0;
    for (int i = 0; i < n_; ++i) {
      const Value& v = dict.value(
          patterns[static_cast<size_t>(i)].codes[static_cast<size_t>(p)]);
      if (v.is_null()) continue;
      std::string s = ValueText(v);
      f.len[static_cast<size_t>(i)] = static_cast<int>(s.size());
      if (static_cast<int>(s.size()) > max_len)
        max_len = static_cast<int>(s.size());
      f.grams[static_cast<size_t>(i)] = GramRunsOf(s);
    }
    f.kmax.resize(static_cast<size_t>(max_len) + 1);
    for (int l = 0; l <= max_len; ++l) {
      f.kmax[static_cast<size_t>(l)] = KMaxFor(weight_of(p), opts.tau, l);
    }
    uint64_t filter_bytes =
        f.len.size() * sizeof(int) + f.kmax.size() * sizeof(int);
    for (const std::vector<GramRun>& runs : f.grams) {
      filter_bytes += sizeof(runs) + runs.size() * sizeof(GramRun);
    }
    Charge(filter_bytes);
    return f;
  };

  for (int p : plan.secondary) secondary_.push_back(make_filter(p));
  if (plan.exact) {
    num_key_attrs_ = static_cast<int>(plan.key_attrs.size());
    BuildExactJoin(patterns, table, fd, plan.key_attrs,
                   plan.key_by_tostring);
  } else {
    gram_primary_ = plan.primary;
    primary_ = make_filter(plan.primary);
    BuildGramJoin();
  }
}

void BlockIndex::AppendCandidates(int i, Scratch* scratch,
                                  std::vector<int>* out) const {
  std::vector<int>& cand = scratch->cand;
  cand.clear();
  if (exact_join()) {
    if (num_key_attrs_ == 0) {
      for (int j = i + 1; j < n_; ++j) cand.push_back(j);
    } else {
      const std::vector<int>& members =
          exact_buckets_[static_cast<size_t>(bucket_of_[static_cast<size_t>(i)])];
      for (size_t r =
               static_cast<size_t>(rank_in_bucket_[static_cast<size_t>(i)]) + 1;
           r < members.size(); ++r) {
        cand.push_back(members[r]);
      }
    }
  } else {
    int len_i = primary_.len[static_cast<size_t>(i)];
    if (len_i < 0) {
      // A null anchor is at distance 1 from every non-null anchor and
      // the anchor weight exceeds tau, so only null-null pairs survive.
      for (int j : null_ids_) {
        if (j > i) cand.push_back(j);
      }
    } else {
      // Kept ids are marked in a bitmap over pattern ids, and walking it
      // emits them in ascending order: buckets and the screen below
      // produce ids in no particular order, and a sort of the merged
      // list cost more than the walk.
      std::vector<uint64_t>& kept = scratch->kept;
      kept.resize((static_cast<size_t>(n_) + 63) / 64);  // all-zero here
      int last = i;  // largest kept id
      auto keep = [&kept, &last, i](int id) {
        if (id <= i) return;
        kept[static_cast<size_t>(id) >> 6] |= uint64_t{1} << (id & 63);
        last = std::max(last, id);
      };
      const std::vector<GramRun>& runs = primary_.grams[static_cast<size_t>(i)];
      for (const LenBucket& bucket : len_buckets_) {
        int lmax = len_i > bucket.len ? len_i : bucket.len;
        int k = primary_.kmax[static_cast<size_t>(lmax)];
        if (std::abs(len_i - bucket.len) > k) continue;
        int t = (lmax - kQ + 1) - k * kQ;
        if (t <= 0) {
          // The count filter cannot bite at these lengths; keep the
          // whole bucket (the length filter above already passed).
          for (int j : bucket.ids) keep(j);
          continue;
        }
        // Accumulate shared-gram counts by rank within the bucket, then
        // keep the touched ranks with shared >= t, resetting each
        // counter as it is read.
        const size_t bn = bucket.ids.size();
        if (scratch->shared.size() < bn) scratch->shared.assign(bn, 0);
        for (const GramRun& run : runs) {
          auto it = bucket.postings.find(run.gram);
          if (it == bucket.postings.end()) continue;
          for (const std::pair<int, uint32_t>& posting : it->second) {
            uint32_t& acc = scratch->shared[static_cast<size_t>(posting.first)];
            if (acc == 0) scratch->touched.push_back(posting.first);
            acc += run.count < posting.second ? run.count : posting.second;
          }
        }
        for (int r : scratch->touched) {
          if (scratch->shared[static_cast<size_t>(r)] >=
              static_cast<uint32_t>(t)) {
            keep(bucket.ids[static_cast<size_t>(r)]);
          }
          scratch->shared[static_cast<size_t>(r)] = 0;
        }
        scratch->touched.clear();
      }
      for (size_t w = static_cast<size_t>(i + 1) >> 6;
           w <= static_cast<size_t>(last) >> 6; ++w) {
        for (uint64_t bits = kept[w]; bits != 0; bits &= bits - 1) {
          cand.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
        }
        kept[w] = 0;
      }
    }
  }
  if (secondary_.empty()) {
    out->insert(out->end(), cand.begin(), cand.end());
    return;
  }
  for (int j : cand) {
    if (!SecondaryPrune(i, j)) out->push_back(j);
  }
}

bool BlockIndex::SecondaryPrune(int i, int j) const {
  for (const AttrFilter& f : secondary_) {
    int li = f.len[static_cast<size_t>(i)];
    int lj = f.len[static_cast<size_t>(j)];
    if (li < 0 || lj < 0) {
      // Null vs null is distance 0 — nothing to filter. Null vs
      // non-null is distance 1 and this attribute's weight exceeds tau.
      if ((li < 0) != (lj < 0)) return true;
      continue;
    }
    int lmax = li > lj ? li : lj;
    int k = f.kmax[static_cast<size_t>(lmax)];
    if (std::abs(li - lj) > k) return true;
    int t = (lmax - kQ + 1) - k * kQ;
    if (t >= 1 &&
        SharedGramCount(f.grams[static_cast<size_t>(i)],
                        f.grams[static_cast<size_t>(j)], t) < t) {
      return true;
    }
  }
  return false;
}

namespace {

std::vector<BlockIndex::GramRun> GramRunsOf(const std::string& s) {
  std::vector<BlockIndex::GramRun> runs;
  if (static_cast<int>(s.size()) < BlockIndex::kQ) return runs;
  std::vector<uint32_t> codes;
  codes.reserve(s.size() - 1);
  for (size_t i = 0; i + BlockIndex::kQ <= s.size(); ++i) {
    codes.push_back((static_cast<uint32_t>(static_cast<uint8_t>(s[i])) << 8) |
                    static_cast<uint8_t>(s[i + 1]));
  }
  std::sort(codes.begin(), codes.end());
  for (size_t i = 0; i < codes.size();) {
    size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    runs.push_back(
        BlockIndex::GramRun{codes[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return runs;
}

// Multiset intersection size of two sorted gram-run lists, capped at
// `cap` (callers only compare against the threshold).
int SharedGramCount(const std::vector<BlockIndex::GramRun>& a,
                    const std::vector<BlockIndex::GramRun>& b, int cap) {
  int total = 0;
  size_t x = 0;
  size_t y = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x].gram < b[y].gram) {
      ++x;
    } else if (b[y].gram < a[x].gram) {
      ++y;
    } else {
      total += static_cast<int>(a[x].count < b[y].count ? a[x].count
                                                        : b[y].count);
      if (total >= cap) return total;
      ++x;
      ++y;
    }
  }
  return total;
}

}  // namespace

}  // namespace ftrepair
