#ifndef FTREPAIR_METRIC_DISTANCE_H_
#define FTREPAIR_METRIC_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace ftrepair {

/// Levenshtein edit distance between `a` and `b` (unit costs), by
/// Myers' bit-parallel algorithm (64 rows per machine word).
size_t EditDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with early exit: returns `cap + 1` as soon as the
/// distance provably exceeds `cap`. `cap + 1` therefore means "greater
/// than cap"; equivalently the result is min(EditDistance(a, b), cap + 1).
size_t BoundedEditDistance(std::string_view a, std::string_view b, size_t cap);

/// The banded dynamic-programming kernels: the oracle the differential
/// fuzz (tests/distance_kernel_test.cc) and the kernel benchmarks hold
/// the bit-parallel functions above against. Same contracts.
size_t EditDistanceScalar(std::string_view a, std::string_view b);
size_t BoundedEditDistanceScalar(std::string_view a, std::string_view b,
                                 size_t cap);

/// Edit distance normalized into [0, 1] by the longer string length
/// (0 iff equal; 1 when every position differs). Two empty strings
/// have distance 0.
double NormalizedEditDistance(std::string_view a, std::string_view b);

/// Normalized-edit-distance lower bound from lengths alone:
/// |len(a) - len(b)| / max(len). Cheap pre-filter for similarity joins.
double EditDistanceLengthLowerBound(size_t len_a, size_t len_b);

/// Jaccard distance (1 - |A∩B| / |A∪B|) over whitespace-separated
/// tokens (any of " \t\n\r\f\v" separates).
double TokenJaccardDistance(std::string_view a, std::string_view b);

/// Jaro similarity-based distance (1 - jaro) in [0, 1]. Classic record
/// linkage metric; tolerant of transpositions.
double JaroDistance(std::string_view a, std::string_view b);

/// Jaro-Winkler distance: Jaro with the Winkler common-prefix bonus
/// (scaling factor 0.1, prefix capped at 4). Favors strings sharing a
/// prefix — a good fit for code-like attributes.
double JaroWinklerDistance(std::string_view a, std::string_view b);

/// Cosine distance over positional q-grams (default q = 2), in [0, 1].
/// Cheap alternative to edit distance for long strings.
double QGramCosineDistance(std::string_view a, std::string_view b,
                           size_t q = 2);

/// |a - b| / range, clamped to [0, 1]; `range <= 0` degrades to the
/// 0/1 discrete metric. This matches the paper's "normalize the
/// Euclidean distance by dividing the largest distance" (Ex. 7).
double NormalizedEuclideanDistance(double a, double b, double range);

}  // namespace ftrepair

#endif  // FTREPAIR_METRIC_DISTANCE_H_
