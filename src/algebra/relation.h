// Full-text relations (paper Section 2.3): R[CNode, att1..attm] where every
// att is a position within the tuple's CNode. FtRelation is the materialized
// representation used by the COMP engine; tuples are kept sorted by
// (node, position offsets) with set semantics (no duplicates).

#ifndef FTS_ALGEBRA_RELATION_H_
#define FTS_ALGEBRA_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/document.h"

namespace fts {

/// One tuple of a full-text relation: a context node, m positions within
/// it, and a score (paper Section 3's per-tuple scoring information).
struct FtTuple {
  NodeId node = kInvalidNode;
  std::vector<PositionInfo> positions;
  double score = 0.0;
};

/// Lexicographic tuple order on (node, offsets...); scores do not
/// participate in identity.
bool TupleLess(const FtTuple& a, const FtTuple& b);

/// True when node and all position offsets coincide.
bool TupleEq(const FtTuple& a, const FtTuple& b);

/// A materialized full-text relation with a fixed number of position
/// columns. Invariant after Normalize(): tuples sorted, no duplicates.
class FtRelation {
 public:
  explicit FtRelation(size_t num_cols = 0) : num_cols_(num_cols) {}

  size_t num_cols() const { return num_cols_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const FtTuple& tuple(size_t i) const { return tuples_[i]; }
  const std::vector<FtTuple>& tuples() const { return tuples_; }

  /// The last appended tuple, for operators that fold a duplicate's score
  /// into it instead of appending (relation must be non-empty).
  FtTuple& back() { return tuples_.back(); }

  /// Appends a tuple (positions.size() must equal num_cols()).
  void Add(FtTuple t);

  /// True when the tuples are strictly increasing under TupleLess (sorted,
  /// no duplicates) — the invariant Normalize() establishes and every
  /// operator output keeps.
  bool IsNormalized() const;

  /// Sorts and deduplicates. Duplicate scores are folded with `combine`
  /// (e.g. the score model's ProjectCombine); null keeps the first score.
  void Normalize(double (*combine)(void*, double, double) = nullptr,
                 void* ctx = nullptr);

  /// The distinct node ids of this relation (sorted). For single-column
  /// CNode relations this is the query answer.
  std::vector<NodeId> Nodes() const;

  /// Diagnostic rendering, e.g. "{(3;5,9)(4;1,2)}".
  std::string ToString() const;

 private:
  size_t num_cols_;
  std::vector<FtTuple> tuples_;
};

}  // namespace fts

#endif  // FTS_ALGEBRA_RELATION_H_
