#ifndef FTREPAIR_TESTS_TEST_UTIL_H_
#define FTREPAIR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraint/fd.h"
#include "constraint/fd_parser.h"
#include "core/target_tree.h"
#include "data/table.h"
#include "detect/block_index.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {
namespace testing_util {

/// Scoped setenv/unsetenv so a failing assertion cannot leak a fault
/// seam into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Schema of the paper's running example (Table 1): US citizens.
inline Schema CitizensSchema() {
  return Schema({{"Name", ValueType::kString},
                 {"Education", ValueType::kString},
                 {"Level", ValueType::kNumber},
                 {"City", ValueType::kString},
                 {"Street", ValueType::kString},
                 {"District", ValueType::kString},
                 {"State", ValueType::kString}});
}

inline Row CitizensRow(const std::string& name, const std::string& education,
                       double level, const std::string& city,
                       const std::string& street, const std::string& district,
                       const std::string& state) {
  return Row{Value(name),   Value(education), Value(level), Value(city),
             Value(street), Value(district),  Value(state)};
}

/// The dirty instance of Table 1 (errors exactly as highlighted there).
inline Table CitizensDirty() {
  Table t(CitizensSchema());
  auto add = [&t](Row row) { (void)t.AppendRow(std::move(row)); };
  add(CitizensRow("Janaina", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Aloke", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Jieyu", "Bachelors", 3, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Paulo", "Masters", 4, "New York", "Western", "Queens", "MA"));
  add(CitizensRow("Zoe", "Masters", 4, "Boston", "Main", "Manhattan", "NY"));
  add(CitizensRow("Gara", "Masers", 4, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Mitchell", "HS-grad", 9, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Pavol", "Masters", 3, "Boton", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Thilo", "Bachelors", 1, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Nenad", "Bachelers", 3, "Boston", "Arlingto", "Brookside", "NY"));
  return t;
}

/// Ground truth for Table 1 (the corrections highlighted in the paper).
inline Table CitizensTruth() {
  Table t(CitizensSchema());
  auto add = [&t](Row row) { (void)t.AppendRow(std::move(row)); };
  add(CitizensRow("Janaina", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Aloke", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Jieyu", "Bachelors", 3, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Paulo", "Masters", 4, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Zoe", "Masters", 4, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Gara", "Masters", 4, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Mitchell", "HS-grad", 9, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Pavol", "Masters", 4, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Thilo", "Bachelors", 3, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Nenad", "Bachelors", 3, "Boston", "Arlingto", "Brookside", "MA"));
  return t;
}

/// The three FDs of Example 2: phi1, phi2, phi3.
inline std::vector<FD> CitizensFDs(const Schema& schema) {
  return std::move(ParseFDList(
                       "phi1: Education -> Level\n"
                       "phi2: City -> State\n"
                       "phi3: City, Street -> District\n",
                       schema))
      .ValueOrDie();
}

/// A small random table over `num_cols` string columns where column 0
/// functionally determines every other column (values "k<i>" / "v<i>_<c>"),
/// with `num_flips` cells randomly replaced by other domain values.
/// Used by property suites.
inline Table RandomFDTable(int num_rows, int num_cols, int num_keys,
                           int num_flips, uint64_t seed) {
  std::vector<Column> columns;
  for (int c = 0; c < num_cols; ++c) {
    columns.push_back(Column{"c" + std::to_string(c), ValueType::kString});
  }
  Table table{Schema(std::move(columns))};
  Rng rng(seed);
  for (int r = 0; r < num_rows; ++r) {
    int key = static_cast<int>(rng.Index(static_cast<size_t>(num_keys)));
    Row row;
    row.emplace_back("key" + std::to_string(key));
    for (int c = 1; c < num_cols; ++c) {
      row.emplace_back("val" + std::to_string(key) + "c" +
                       std::to_string(c));
    }
    (void)table.AppendRow(std::move(row));
  }
  for (int f = 0; f < num_flips && table.num_rows() > 0; ++f) {
    int r = static_cast<int>(rng.Index(static_cast<size_t>(table.num_rows())));
    int c = static_cast<int>(rng.Index(static_cast<size_t>(num_cols)));
    int key = static_cast<int>(rng.Index(static_cast<size_t>(num_keys)));
    Value v = c == 0 ? Value("key" + std::to_string(key))
                     : Value("val" + std::to_string(key) + "c" +
                             std::to_string(c));
    table.SetCell(r, c, v);
  }
  return table;
}

/// Row `row` of `table` projected onto `cols`: the value vector that
/// ViolationGraph::ProjDistance / UnitCost take.
inline std::vector<Value> RowProjection(const Table& table, int row,
                                        const std::vector<int>& cols) {
  std::vector<Value> values;
  for (int c : cols) values.push_back(table.cell(row, c));
  return values;
}

/// One FT-violating tuple pair (row1 < row2) and its Eq. 2 distance.
struct RowPair {
  int row1 = 0;
  int row2 = 0;
  double proj_dist = 0;
};

/// The FT-violating tuple pairs of `fd` under `opts`, sorted by (row1,
/// row2): the edges of the violation graph built over one pattern per
/// row (BuildRowPatterns), so pattern i is row i. Under
/// ClassicalFTOptions() these are the classical violations (§2.1).
inline std::vector<RowPair> ViolatingRowPairs(const Table& table,
                                              const FD& fd,
                                              const DistanceModel& model,
                                              const FTOptions& opts) {
  ViolationGraph g = ViolationGraph::Build(
      BuildRowPatterns(table, fd.attrs()), table, fd, model, opts);
  std::vector<RowPair> pairs;
  for (int i = 0; i < g.num_patterns(); ++i) {
    // Each adjacency list holds its higher neighbours in ascending order.
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      if (e.to > i) pairs.push_back(RowPair{i, e.to, e.proj_dist});
    }
  }
  return pairs;
}

/// True when (row1, row2) is among `pairs`.
inline bool HasRowPair(const std::vector<RowPair>& pairs, int row1,
                       int row2) {
  for (const RowPair& p : pairs) {
    if (p.row1 == row1 && p.row2 == row2) return true;
  }
  return false;
}

/// Brute-force FT-violation edges (i, j), i < j, of `patterns`: every
/// pair of differing projections whose exact ProjDistance is <= tau,
/// with no filter or index in the way. The reference the graph build
/// and the blocking index are checked against.
inline std::set<std::pair<int, int>> OracleEdges(
    const std::vector<Pattern>& patterns, const Table& table, const FD& fd,
    const DistanceModel& model, double w_l, double w_r, double tau) {
  std::vector<std::vector<Value>> values;
  for (const Pattern& p : patterns) {
    values.push_back(DecodeProjection(table, fd.attrs(), p.codes));
  }
  std::set<std::pair<int, int>> edges;
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (values[i] == values[j]) continue;
      if (ViolationGraph::ProjDistance(values[i], values[j], fd, model, w_l,
                                       w_r) <= tau) {
        edges.emplace(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return edges;
}

/// n * (n - 1) / 2: the candidates the all-pairs join generates over n
/// patterns.
inline uint64_t AllPairs(int n) {
  uint64_t m = n > 0 ? static_cast<uint64_t>(n) : 0;
  return m * (m > 0 ? m - 1 : 0) / 2;
}

/// Empty when `index`, built over n patterns, is sound against
/// `oracle` (their OracleEdges): every anchor i's candidates are
/// strictly ascending, all > i, and include every j the oracle pairs
/// with i. Otherwise the first violation. Sets `*generated` to the
/// total candidate count when it gets through every anchor.
inline std::string CandidateMismatch(
    const BlockIndex& index, int n,
    const std::set<std::pair<int, int>>& oracle, uint64_t* generated) {
  BlockIndex::Scratch scratch;
  *generated = 0;
  auto next = oracle.begin();
  for (int i = 0; i < n; ++i) {
    std::vector<int> cand;
    index.AppendCandidates(i, &scratch, &cand);
    *generated += cand.size();
    for (size_t k = 0; k < cand.size(); ++k) {
      if (cand[k] <= (k == 0 ? i : cand[k - 1])) {
        return "candidates of " + std::to_string(i) +
               " not ascending past the anchor at " + std::to_string(cand[k]);
      }
    }
    for (; next != oracle.end() && next->first == i; ++next) {
      if (!std::binary_search(cand.begin(), cand.end(), next->second)) {
        return "index missed " + std::to_string(i) + "-" +
               std::to_string(next->second);
      }
    }
  }
  return "";
}

/// Empty when `g` is exactly the graph the oracle fixes: its edge set
/// equals OracleEdges, every edge's doubles equal ProjDistance /
/// UnitCost on the decoded values bit for bit, and every adjacency
/// list is strictly ascending by `to`. Otherwise the first mismatch.
inline std::string OracleMismatch(const ViolationGraph& g, const Table& table,
                                  const FD& fd, const DistanceModel& model,
                                  double w_l, double w_r, double tau) {
  std::set<std::pair<int, int>> edges;
  for (int i = 0; i < g.num_patterns(); ++i) {
    const std::vector<Value> a =
        DecodeProjection(table, fd.attrs(), g.pattern(i).codes);
    int prev = -1;
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      std::string edge = std::to_string(i) + "-" + std::to_string(e.to);
      if (e.to <= prev) return "adjacency of " + std::to_string(i) +
                               " not ascending at " + edge;
      prev = e.to;
      const std::vector<Value> b =
          DecodeProjection(table, fd.attrs(), g.pattern(e.to).codes);
      if (e.proj_dist !=
          ViolationGraph::ProjDistance(a, b, fd, model, w_l, w_r)) {
        return "proj_dist differs on " + edge;
      }
      if (e.unit_cost != ViolationGraph::UnitCost(a, b, fd, model)) {
        return "unit_cost differs on " + edge;
      }
      edges.emplace(std::min(i, e.to), std::max(i, e.to));
    }
  }
  size_t entries = 0;
  for (int i = 0; i < g.num_patterns(); ++i) entries += g.Neighbors(i).size();
  if (entries != 2 * edges.size() || g.num_edges() != edges.size()) {
    return "edges are not stored once in each direction";
  }
  if (edges != OracleEdges(g.patterns(), table, fd, model, w_l, w_r, tau)) {
    return "edge set differs from the oracle";
  }
  return "";
}

/// \brief Interns literal values into dictionary codes, so tests can
/// drive the code-keyed target searches (TargetTree, LazyTargetSearch,
/// FindBestTargetLinear) with the values they spell out.
///
/// The book is a one-row table: interning overwrites that row, and a
/// code keeps decoding through its column dictionary for the table's
/// lifetime whether or not the row still holds it. A search built over
/// `table()` keeps pointers into it, so the book must outlive (and not
/// be copied away from under) the search.
class CodeBook {
 public:
  explicit CodeBook(const Schema& schema) : table_(schema) {
    (void)table_.AppendRow(Row(static_cast<size_t>(schema.num_columns())));
  }

  /// Codes of `values` laid out over `cols`, interning unseen values.
  std::vector<uint32_t> Codes(const std::vector<int>& cols,
                              const std::vector<Value>& values) {
    std::vector<uint32_t> codes;
    for (size_t k = 0; k < cols.size(); ++k) {
      table_.SetCell(0, cols[k], values[k]);
      codes.push_back(table_.code(0, cols[k]));
    }
    return codes;
  }

  /// Codes() of each tuple: the elements of a TargetTree::LevelInput
  /// whose FD has attributes `cols`.
  std::vector<std::vector<uint32_t>> Elements(
      const std::vector<int>& cols,
      const std::vector<std::vector<Value>>& tuples) {
    std::vector<std::vector<uint32_t>> elements;
    for (const std::vector<Value>& tuple : tuples) {
      elements.push_back(Codes(cols, tuple));
    }
    return elements;
  }

  /// The values `codes` (laid out over `cols`) decode to.
  std::vector<Value> Values(const std::vector<int>& cols,
                            const std::vector<uint32_t>& codes) const {
    return DecodeProjection(table_, cols, codes);
  }

  const Table& table() const { return table_; }

 private:
  Table table_;
};

/// A filled DistanceTable with the one query `proj` (codes of `table`
/// over `cols`) over `domains`: its Rows(0) drive one search.
inline DistanceTable QueryTable(
    const std::vector<std::vector<uint32_t>>& domains,
    const std::vector<uint32_t>& proj, const Table& table,
    const std::vector<int>& cols, const DistanceModel& model) {
  Pattern query;
  query.codes = proj;
  DistanceTable distances(domains, {query}, {0});
  distances.Fill(table, cols, model, 1, nullptr, nullptr);
  return distances;
}

/// The order in which TargetTree and LazyTargetSearch sum a target's
/// cell distances: levels by independent-set size ascending (stable),
/// and within a level the positions its FD fixes first, in attribute
/// order. A search's cost is bit-identical to PriceTarget in this
/// order; the linear scan sums in position order.
inline std::vector<int> SearchSumOrder(
    std::vector<TargetTree::LevelInput> inputs, const std::vector<int>& cols) {
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const TargetTree::LevelInput& a,
                      const TargetTree::LevelInput& b) {
                     return a.elements.size() < b.elements.size();
                   });
  std::vector<int> order;
  for (const TargetTree::LevelInput& input : inputs) {
    for (int col : input.fd->attrs()) {
      int pos = static_cast<int>(
          std::find(cols.begin(), cols.end(), col) - cols.begin());
      if (std::find(order.begin(), order.end(), pos) == order.end()) {
        order.push_back(pos);
      }
    }
  }
  return order;
}

/// Prices `target` for `query` (codes of `table` over `cols`) with
/// ProjectionDecoder::Distance, summing positions in `order`.
inline double PriceTarget(const std::vector<uint32_t>& target,
                          const std::vector<uint32_t>& query,
                          const Table& table, const std::vector<int>& cols,
                          const DistanceModel& model,
                          const std::vector<int>& order) {
  const ProjectionDecoder decoder(table, cols);
  double cost = 0;
  for (int p : order) {
    size_t k = static_cast<size_t>(p);
    cost += decoder.Distance(model, k, query[k], target[k]);
  }
  return cost;
}

/// Brute-force reference for the target searches, the way OracleEdges
/// serves detection: every joinable target of `inputs` (one element
/// per level, agreeing wherever two FDs share an attribute), as codes
/// over `cols`, in no particular order.
inline std::vector<std::vector<uint32_t>> OracleTargets(
    const std::vector<TargetTree::LevelInput>& inputs,
    const std::vector<int>& cols) {
  constexpr uint32_t kUnset = UINT32_MAX;
  std::vector<std::vector<uint32_t>> targets;
  std::vector<uint32_t> partial(cols.size(), kUnset);
  auto join = [&](auto&& self, size_t level) -> void {
    if (level == inputs.size()) {
      targets.push_back(partial);
      return;
    }
    const std::vector<int>& attrs = inputs[level].fd->attrs();
    for (const std::vector<uint32_t>& elem : inputs[level].elements) {
      std::vector<uint32_t> saved = partial;
      bool agrees = true;
      for (size_t a = 0; a < attrs.size() && agrees; ++a) {
        size_t pos = static_cast<size_t>(
            std::find(cols.begin(), cols.end(), attrs[a]) - cols.begin());
        agrees = partial[pos] == kUnset || partial[pos] == elem[a];
        partial[pos] = elem[a];
      }
      if (agrees) self(self, level + 1);
      partial = std::move(saved);
    }
  };
  join(join, 0);
  return targets;
}

/// The reference minimum: PriceTarget (in `order`) over every one of
/// `targets`; kInfinity when there are none.
inline double OracleTargetCost(
    const std::vector<std::vector<uint32_t>>& targets,
    const std::vector<uint32_t>& query, const Table& table,
    const std::vector<int>& cols, const DistanceModel& model,
    const std::vector<int>& order) {
  double best = ViolationGraph::kInfinity;
  for (const std::vector<uint32_t>& target : targets) {
    best = std::min(best,
                    PriceTarget(target, query, table, cols, model, order));
  }
  return best;
}

namespace json_detail {

inline void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

inline bool ParseValue(const std::string& s, size_t* i, int depth);

inline bool ParseString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size()) {
    char c = s[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (c == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
      char e = s[*i];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++*i;
          if (*i >= s.size() || !isxdigit(static_cast<unsigned char>(s[*i]))) {
            return false;
          }
        }
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        return false;
      }
    }
    ++*i;
  }
  return false;
}

inline bool ParseNumber(const std::string& s, size_t* i) {
  size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && (isdigit(static_cast<unsigned char>(s[*i])) ||
                           s[*i] == '.' || s[*i] == 'e' || s[*i] == 'E' ||
                           s[*i] == '+' || s[*i] == '-')) {
    ++*i;
  }
  return *i > start;
}

inline bool ParseValue(const std::string& s, size_t* i, int depth) {
  if (depth > 64) return false;
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  char c = s[*i];
  if (c == '{') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == '}') {
      ++*i;
      return true;
    }
    while (true) {
      SkipWs(s, i);
      if (!ParseString(s, i)) return false;
      SkipWs(s, i);
      if (*i >= s.size() || s[*i] != ':') return false;
      ++*i;
      if (!ParseValue(s, i, depth + 1)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == '}') {
        ++*i;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == ']') {
      ++*i;
      return true;
    }
    while (true) {
      if (!ParseValue(s, i, depth + 1)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == ']') {
        ++*i;
        return true;
      }
      return false;
    }
  }
  if (c == '"') return ParseString(s, i);
  if (s.compare(*i, 4, "true") == 0) {
    *i += 4;
    return true;
  }
  if (s.compare(*i, 5, "false") == 0) {
    *i += 5;
    return true;
  }
  if (s.compare(*i, 4, "null") == 0) {
    *i += 4;
    return true;
  }
  return ParseNumber(s, i);
}

}  // namespace json_detail

/// Strict syntactic check that `text` is one complete JSON value
/// (objects, arrays, strings with escapes, numbers, literals). No
/// external dependency: a ~100-line recursive-descent validator shared
/// by the metrics/trace JSON tests.
inline bool IsValidJson(const std::string& text) {
  size_t i = 0;
  if (!json_detail::ParseValue(text, &i, 0)) return false;
  json_detail::SkipWs(text, &i);
  return i == text.size();
}

}  // namespace testing_util
}  // namespace ftrepair

#endif  // FTREPAIR_TESTS_TEST_UTIL_H_
