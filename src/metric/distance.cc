#include "metric/distance.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ftrepair {

namespace {

// Scratch row of the scalar DP kernels. Thread-local so the detect
// hot loop never heap-allocates per call and concurrent builders never
// share state (TSan-clean by construction).
std::vector<size_t>& ScalarRow() {
  thread_local std::vector<size_t> row;
  return row;
}

// Thread-local state of the Myers kernels. Invariant between calls:
// `peq1` and `peqw` are all-zero — each call records the pattern bytes
// it sets in `touched` and zeroes exactly those entries before
// returning, so a fresh call never reads a stale mask for a text byte
// absent from its own pattern (which would corrupt EQ lookups), and
// the multi-word table survives stride (word-count) changes between
// calls without a full wipe.
struct MyersScratch {
  std::array<uint64_t, 256> peq1;       // single-word PEQ
  std::vector<uint64_t> peqw;           // multi-word PEQ, peqw[c * words + w]
  std::array<bool, 256> seen;           // multi-word dedup of touched bytes
  std::vector<unsigned char> touched;   // pattern bytes set this call
  std::vector<uint64_t> vp;             // multi-word vertical deltas
  std::vector<uint64_t> vn;
  MyersScratch() {
    peq1.fill(0);
    seen.fill(false);
  }
};

MyersScratch& Myers() {
  thread_local MyersScratch scratch;
  return scratch;
}

// One-word Myers/Hyyrö kernel: pattern rows live in one 64-bit word
// (m <= 64), the text is consumed column by column. Requires
// 1 <= pattern.size() <= 64, pattern.size() <= text.size(), and
// cap <= text.size() (callers clamp, which also rules out overflow in
// the early-exit arithmetic). Returns min(exact distance, cap + 1).
size_t MyersOneWord(std::string_view text, std::string_view pattern,
                    size_t cap) {
  MyersScratch& s = Myers();
  const size_t m = pattern.size();
  const size_t n = text.size();
  s.touched.clear();
  for (size_t r = 0; r < m; ++r) {
    unsigned char c = static_cast<unsigned char>(pattern[r]);
    if (s.peq1[c] == 0) s.touched.push_back(c);
    s.peq1[c] |= uint64_t{1} << r;
  }
  uint64_t vp = m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
  uint64_t vn = 0;
  size_t score = m;
  const uint64_t hibit = uint64_t{1} << (m - 1);
  size_t result = 0;
  bool clipped = false;
  for (size_t j = 0; j < n; ++j) {
    uint64_t eq = s.peq1[static_cast<unsigned char>(text[j])];
    uint64_t x = eq | vn;
    uint64_t d0 = (((eq & vp) + vp) ^ vp) | x;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    if (hp & hibit) {
      ++score;
    } else if (hn & hibit) {
      --score;
    }
    hp = (hp << 1) | 1;  // the shift-in encodes the D[0][j] = j boundary
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = d0 & hp;
    // The final score is reached from here by at most one decrement
    // per remaining column, so a score this far above cap cannot
    // recover: clip now.
    if (score > cap + (n - 1 - j)) {
      result = cap + 1;
      clipped = true;
      break;
    }
  }
  if (!clipped) result = score <= cap ? score : cap + 1;
  for (unsigned char c : s.touched) s.peq1[c] = 0;
  return result;
}

// Multi-word Myers kernel for patterns above 64 rows: blocks of 64
// rows each, carries flow strictly upward between blocks — the
// addition carry via two-step overflow detection, the HP/HN shift
// carries via the top bit of the block below (block 0 shifts in the
// D[0][j] = j boundary). Bits above row m-1 in the top block start as
// garbage and stay there harmlessly: no recurrence moves information
// downward. Same contract as MyersOneWord.
size_t MyersMultiWord(std::string_view text, std::string_view pattern,
                      size_t cap) {
  MyersScratch& s = Myers();
  const size_t m = pattern.size();
  const size_t n = text.size();
  const size_t words = (m + 63) / 64;
  if (s.peqw.size() < words * 256) s.peqw.resize(words * 256, 0);
  s.touched.clear();
  for (size_t r = 0; r < m; ++r) {
    unsigned char c = static_cast<unsigned char>(pattern[r]);
    if (!s.seen[c]) {
      s.seen[c] = true;
      s.touched.push_back(c);
    }
    s.peqw[c * words + r / 64] |= uint64_t{1} << (r % 64);
  }
  s.vp.assign(words, ~uint64_t{0});
  s.vn.assign(words, 0);
  size_t score = m;
  const size_t last = words - 1;
  const unsigned hi_shift = static_cast<unsigned>((m - 1) % 64);
  size_t result = 0;
  bool clipped = false;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq_row =
        &s.peqw[static_cast<size_t>(static_cast<unsigned char>(text[j])) *
                words];
    uint64_t add_carry = 0;
    uint64_t hp_in = 1;  // block 0 shifts in the D[0][j] = j boundary
    uint64_t hn_in = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t eq = eq_row[w];
      uint64_t pv = s.vp[w];
      uint64_t mv = s.vn[w];
      uint64_t x = eq | mv;
      uint64_t ep = eq & pv;
      uint64_t sum = ep + pv;
      uint64_t c1 = sum < ep ? 1 : 0;
      uint64_t sum2 = sum + add_carry;
      uint64_t c2 = sum2 < sum ? 1 : 0;
      add_carry = c1 | c2;  // both carries cannot fire on one word
      uint64_t d0 = (sum2 ^ pv) | x;
      uint64_t hp = mv | ~(d0 | pv);
      uint64_t hn = d0 & pv;
      if (w == last) {
        score += (hp >> hi_shift) & 1;
        score -= (hn >> hi_shift) & 1;
      }
      uint64_t hp_sh = (hp << 1) | hp_in;
      uint64_t hn_sh = (hn << 1) | hn_in;
      hp_in = hp >> 63;
      hn_in = hn >> 63;
      s.vp[w] = hn_sh | ~(d0 | hp_sh);
      s.vn[w] = d0 & hp_sh;
    }
    if (score > cap + (n - 1 - j)) {
      result = cap + 1;
      clipped = true;
      break;
    }
  }
  if (!clipped) result = score <= cap ? score : cap + 1;
  for (unsigned char c : s.touched) {
    s.seen[c] = false;
    std::fill_n(s.peqw.begin() + static_cast<ptrdiff_t>(c * words), words,
                uint64_t{0});
  }
  return result;
}

// Dispatch on pattern width. `text` must be the longer string and
// `pattern` non-empty; `cap <= text.size()`.
size_t MyersBounded(std::string_view text, std::string_view pattern,
                    size_t cap) {
  return pattern.size() <= 64 ? MyersOneWord(text, pattern, cap)
                              : MyersMultiWord(text, pattern, cap);
}

}  // namespace

size_t EditDistanceScalar(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter
  if (b.empty()) return a.size();
  std::vector<size_t>& row = ScalarRow();
  row.resize(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t above = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({above + 1, row[j - 1] + 1, sub});
      diag = above;
    }
  }
  return row[b.size()];
}

size_t BoundedEditDistanceScalar(std::string_view a, std::string_view b,
                                 size_t cap) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > cap) return cap + 1;
  // A cap at or above the longer length never clips (the distance is
  // at most max(len)): the unbounded kernel is both cheaper and immune
  // to the cap + 1 sentinel wrapping on huge caps.
  if (cap >= a.size()) return EditDistanceScalar(a, b);
  if (b.empty()) return a.size();
  const size_t kInf = cap + 1;
  std::vector<size_t>& row = ScalarRow();
  row.assign(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), cap); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    // Band: only columns with |i - j| <= cap can stay <= cap.
    size_t lo = (i > cap) ? i - cap : 1;
    size_t hi = std::min(b.size(), i + cap);
    // diag seeds D[i-1][lo-1]. The previous row's band started at
    // lo - 1 (the band advances one column per row once i > cap), so
    // row[lo - 1] still holds the genuine D[i-1][lo-1]; the dead-cell
    // cleanup below only zaps the column left of *that* band.
    size_t diag = row[lo - 1];
    // prev_left seeds D[i][lo-1]: column 0 of the new row is i (i
    // deletions) while i <= cap, and kInf otherwise; columns left of
    // the band are always kInf.
    size_t prev_left = (lo == 1 && i <= cap) ? i : kInf;
    if (lo == 1) row[0] = prev_left;
    size_t best = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      size_t above = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t ins = prev_left == kInf ? kInf : prev_left + 1;
      size_t del = above == kInf ? kInf : above + 1;
      size_t cell = std::min({ins, del, sub});
      if (cell > kInf) cell = kInf;
      row[j] = cell;
      prev_left = cell;
      diag = above;
      best = std::min(best, cell);
    }
    if (lo >= 2) row[lo - 1] = kInf;  // cells left of the band are dead
    if (best > cap) return cap + 1;
  }
  return std::min(row[b.size()], kInf);
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // a = text, b = pattern
  if (b.empty()) return a.size();
  // cap = text length never clips: the distance is at most a.size().
  return MyersBounded(a, b, a.size());
}

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t cap) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > cap) return cap + 1;
  if (b.empty()) return a.size();
  // Clamping to the text length keeps the kernel's early-exit
  // arithmetic overflow-free and never changes the result: a cap at or
  // above max(len) cannot clip, so the clamped run returns the exact
  // distance, which is <= cap.
  size_t eff_cap = std::min(cap, a.size());
  return MyersBounded(a, b, eff_cap);
}

double NormalizedEditDistance(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 0.0;
  return static_cast<double>(EditDistance(a, b)) /
         static_cast<double>(max_len);
}

double EditDistanceLengthLowerBound(size_t len_a, size_t len_b) {
  size_t max_len = std::max(len_a, len_b);
  if (max_len == 0) return 0.0;
  size_t diff = len_a > len_b ? len_a - len_b : len_b - len_a;
  return static_cast<double>(diff) / static_cast<double>(max_len);
}

double TokenJaccardDistance(std::string_view a, std::string_view b) {
  // Locale-independent whitespace (isspace would be UB on high bytes).
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
           c == '\v';
  };
  auto tokenize = [&is_space](std::string_view s) {
    std::unordered_set<std::string> tokens;
    size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && is_space(s[i])) ++i;
      size_t start = i;
      while (i < s.size() && !is_space(s[i])) ++i;
      if (i > start) tokens.emplace(s.substr(start, i - start));
    }
    return tokens;
  };
  auto ta = tokenize(a);
  auto tb = tokenize(b);
  if (ta.empty() && tb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& t : ta) inter += tb.count(t);
  size_t uni = ta.size() + tb.size() - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

double JaroDistance(std::string_view a, std::string_view b) {
  if (a == b) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  size_t window = std::max(a.size(), b.size()) / 2;
  window = window > 0 ? window - 1 : 0;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 1.0;
  // Transpositions: matched characters out of order, halved.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  double jaro = (m / static_cast<double>(a.size()) +
                 m / static_cast<double>(b.size()) +
                 (m - static_cast<double>(transpositions) / 2.0) / m) /
                3.0;
  return 1.0 - jaro;
}

double JaroWinklerDistance(std::string_view a, std::string_view b) {
  double jaro_sim = 1.0 - JaroDistance(a, b);
  size_t prefix = 0;
  size_t cap = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < cap && a[prefix] == b[prefix]) ++prefix;
  double sim = jaro_sim + static_cast<double>(prefix) * 0.1 * (1 - jaro_sim);
  return 1.0 - sim;
}

double QGramCosineDistance(std::string_view a, std::string_view b,
                           size_t q) {
  if (a == b) return 0.0;
  if (q == 0) q = 1;
  auto profile = [q](std::string_view s) {
    std::unordered_map<std::string, double> grams;
    if (s.size() < q) {
      if (!s.empty()) grams[std::string(s)] += 1;
      return grams;
    }
    for (size_t i = 0; i + q <= s.size(); ++i) {
      grams[std::string(s.substr(i, q))] += 1;
    }
    return grams;
  };
  auto pa = profile(a);
  auto pb = profile(b);
  if (pa.empty() || pb.empty()) return 1.0;
  double dot = 0;
  double norm_a = 0;
  double norm_b = 0;
  for (const auto& [gram, count] : pa) {
    norm_a += count * count;
    auto it = pb.find(gram);
    if (it != pb.end()) dot += count * it->second;
  }
  for (const auto& [gram, count] : pb) norm_b += count * count;
  double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  if (denom == 0) return 1.0;
  double d = 1.0 - dot / denom;
  return std::min(std::max(d, 0.0), 1.0);
}

double NormalizedEuclideanDistance(double a, double b, double range) {
  if (a == b) return 0.0;
  if (range <= 0) return 1.0;
  double d = std::fabs(a - b) / range;
  return std::min(d, 1.0);
}

}  // namespace ftrepair
