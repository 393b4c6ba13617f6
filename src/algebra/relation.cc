#include "algebra/relation.h"

#include <algorithm>
#include <cassert>

namespace fts {

bool TupleLess(const FtTuple& a, const FtTuple& b) {
  if (a.node != b.node) return a.node < b.node;
  const size_t n = std::min(a.positions.size(), b.positions.size());
  for (size_t i = 0; i < n; ++i) {
    if (a.positions[i].offset != b.positions[i].offset) {
      return a.positions[i].offset < b.positions[i].offset;
    }
  }
  return a.positions.size() < b.positions.size();
}

bool TupleEq(const FtTuple& a, const FtTuple& b) {
  if (a.node != b.node || a.positions.size() != b.positions.size()) return false;
  for (size_t i = 0; i < a.positions.size(); ++i) {
    if (a.positions[i].offset != b.positions[i].offset) return false;
  }
  return true;
}

void FtRelation::Add(FtTuple t) {
  assert(t.positions.size() == num_cols_);
  tuples_.push_back(std::move(t));
}

void FtRelation::Normalize(double (*combine)(void*, double, double), void* ctx) {
  std::stable_sort(tuples_.begin(), tuples_.end(), TupleLess);
  std::vector<FtTuple> out;
  out.reserve(tuples_.size());
  for (FtTuple& t : tuples_) {
    if (!out.empty() && TupleEq(out.back(), t)) {
      if (combine != nullptr) {
        out.back().score = combine(ctx, out.back().score, t.score);
      }
    } else {
      out.push_back(std::move(t));
    }
  }
  tuples_ = std::move(out);
}

bool FtRelation::IsNormalized() const {
  for (size_t i = 1; i < tuples_.size(); ++i) {
    if (!TupleLess(tuples_[i - 1], tuples_[i])) return false;
  }
  return true;
}

std::vector<NodeId> FtRelation::Nodes() const {
  std::vector<NodeId> nodes;
  for (const FtTuple& t : tuples_) {
    if (nodes.empty() || nodes.back() != t.node) nodes.push_back(t.node);
  }
  return nodes;
}

std::string FtRelation::ToString() const {
  std::string out = "{";
  for (const FtTuple& t : tuples_) {
    out += "(" + std::to_string(t.node);
    if (!t.positions.empty()) out += ";";
    for (size_t i = 0; i < t.positions.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(t.positions[i].offset);
    }
    out += ")";
  }
  out += "}";
  return out;
}

}  // namespace fts
