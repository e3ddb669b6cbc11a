#include "detect/pattern.h"

#include <unordered_map>

#include "common/hash.h"

namespace ftrepair {

ProjectionDecoder::ProjectionDecoder(const Table& table,
                                     const std::vector<int>& cols)
    : cols_(cols) {
  dicts_.reserve(cols.size());
  for (int col : cols) dicts_.push_back(&table.dictionary(col));
}

std::vector<Value> DecodeProjection(const Table& table,
                                    const std::vector<int>& cols,
                                    const std::vector<uint32_t>& codes) {
  std::vector<Value> values;
  values.reserve(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    values.push_back(table.dictionary(cols[k]).value(codes[k]));
  }
  return values;
}

size_t ProjectionHash::operator()(const std::vector<Value>& v) const {
  size_t h = 14695981039346656037ULL;
  for (const Value& val : v) h = HashCombine(h, val.Hash());
  return h;
}

size_t CodeVectorHash::operator()(const std::vector<uint32_t>& v) const {
  size_t h = 14695981039346656037ULL;
  for (uint32_t code : v) h = HashCombine(h, code);
  return h;
}

std::vector<Pattern> BuildPatterns(const Table& table,
                                   const std::vector<int>& cols) {
  std::vector<int> all_rows(static_cast<size_t>(table.num_rows()));
  for (int i = 0; i < table.num_rows(); ++i) {
    all_rows[static_cast<size_t>(i)] = i;
  }
  return BuildPatternsForRows(table, cols, all_rows);
}

std::vector<Pattern> BuildPatternsForRows(const Table& table,
                                          const std::vector<int>& cols,
                                          const std::vector<int>& row_ids) {
  std::vector<Pattern> patterns;
  std::unordered_map<std::vector<uint32_t>, int, CodeVectorHash> index;
  std::vector<uint32_t> proj;
  for (int r : row_ids) {
    proj.clear();
    proj.reserve(cols.size());
    for (int c : cols) proj.push_back(table.code(r, c));
    auto it = index.find(proj);
    if (it == index.end()) {
      int id = static_cast<int>(patterns.size());
      index.emplace(proj, id);
      Pattern p;
      p.codes = proj;
      p.rows.push_back(r);
      patterns.push_back(std::move(p));
    } else {
      patterns[static_cast<size_t>(it->second)].rows.push_back(r);
    }
  }
  return patterns;
}

std::vector<Pattern> BuildRowPatterns(const Table& table,
                                      const std::vector<int>& cols) {
  std::vector<Pattern> patterns(static_cast<size_t>(table.num_rows()));
  for (int r = 0; r < table.num_rows(); ++r) {
    Pattern& p = patterns[static_cast<size_t>(r)];
    p.codes.reserve(cols.size());
    for (int c : cols) p.codes.push_back(table.code(r, c));
    p.rows.push_back(r);
  }
  return patterns;
}

}  // namespace ftrepair
