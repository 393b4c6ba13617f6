// Full-text algebra expression trees (paper Section 2.3.1) and their
// materialized evaluator — the query-plan representation shared by the COMP
// engine (which evaluates it bottom-up, Section 5.4) and the pipelined
// PPRED/NPRED engines (which walk the same tree with cursors instead of
// materialized relations; eval/pos_cursor.h).

#ifndef FTS_ALGEBRA_FTA_H_
#define FTS_ALGEBRA_FTA_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "algebra/relation.h"
#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "index/inverted_index.h"
#include "scoring/score_model.h"

namespace fts {

class FtaExpr;
using FtaExprPtr = std::shared_ptr<const FtaExpr>;

/// Immutable algebra expression node.
class FtaExpr {
 public:
  enum class Kind {
    kSearchContext,  ///< all context nodes, 0 position columns
    kHasPos,         ///< all (node, position) pairs, 1 column
    kToken,          ///< R_token, 1 column
    kProject,        ///< π_{CNode, cols...}
    kJoin,           ///< equi-join on CNode, columns concatenated
    kSelect,         ///< σ_pred(cols, consts)
    kAntiJoin,       ///< node-level difference (right side has 0 columns)
    kUnion,
    kIntersect,
    kDifference,
  };

  Kind kind() const { return kind_; }
  size_t num_cols() const { return num_cols_; }
  const std::string& token() const { return token_; }
  const std::vector<int>& project_cols() const { return project_cols_; }
  const AlgebraPredicateCall& pred() const { return pred_; }
  const FtaExprPtr& child() const { return left_; }
  const FtaExprPtr& left() const { return left_; }
  const FtaExprPtr& right() const { return right_; }

  /// Single-line plan rendering, e.g. "project[0](select[distance(0,1,5)]
  /// (join(scan('a'),scan('b'))))".
  std::string ToString() const;

  // Factories. Schema errors (bad columns, mismatched set-op schemas) are
  // reported eagerly.
  static FtaExprPtr SearchContext();
  static FtaExprPtr HasPos();
  static FtaExprPtr Token(std::string token);
  static StatusOr<FtaExprPtr> Project(FtaExprPtr in, std::vector<int> cols);
  static FtaExprPtr Join(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> AntiJoin(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Select(FtaExprPtr in, AlgebraPredicateCall call);
  static StatusOr<FtaExprPtr> Union(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Intersect(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Difference(FtaExprPtr l, FtaExprPtr r);

 private:
  FtaExpr() = default;

  Kind kind_;
  size_t num_cols_ = 0;
  std::string token_;
  std::vector<int> project_cols_;
  AlgebraPredicateCall pred_;
  FtaExprPtr left_, right_;
};

/// Invokes `fn` on every scan leaf of `plan` (kToken and kHasPos nodes),
/// left to right. The single leaf walker shared by the cache-attachment
/// heuristic below and the pipelined planner's df collection, so the two
/// can never diverge on what counts as a leaf.
void ForEachScanLeaf(const FtaExprPtr& plan,
                     const std::function<void(const FtaExpr&)>& fn);

/// True when attaching a per-query DecodedBlockCache pays for one pass of
/// `plan`: some leaf list is scanned twice (a token appearing twice, or
/// HasPos/IL_ANY more than once) and the distinct lists' combined block
/// count fits the cache (DecodedBlockCache::ShouldAttach — the shared
/// decision every engine routes through). Single-scan plans and plans
/// whose working set would thrash the LRU skip the cache.
bool ShouldUseDecodedBlockCache(const FtaExprPtr& plan, const InvertedIndex& index);

/// The FitsWorkingSet half of the decision alone: `plan`'s distinct leaf
/// lists fit the default cache capacity. Used by NPRED's ordering loop,
/// where re-scanning is guaranteed by the loop itself rather than by a
/// repeated leaf.
bool PlanFitsDecodedBlockCache(const FtaExprPtr& plan, const InvertedIndex& index);

/// Bottom-up materialized evaluation (the COMP strategy, Section 5.4).
/// Materialization is late where the plan's shape allows it: a token scan
/// projected onto the node alone (project[](scan(t))) is evaluated per
/// list entry by OpScanTokenNodes, never as one tuple per occurrence;
/// answers and score bits are those of the operator-at-a-time
/// composition. `model` (nullable) supplies the Section 3 score
/// transformations; `counters` (nullable) accumulates list and tuple
/// traffic. `raw_oracle` (nullable, differential tests only) makes the leaf
/// scans read the raw oracle lists instead of the block-resident ones. `cache` (nullable) is
/// shared by every leaf scan of the evaluation, so a token occurring more
/// than once in the plan bulk-decodes its blocks once. `deadline`
/// (nullable) is checked once per operator application: materialized
/// evaluation is the one strategy whose intermediates can explode (the
/// per-node cartesian products), so an expired query stops at the next
/// operator instead of materializing another relation. `tombstones`
/// (nullable) filters deleted nodes out of every leaf scan — including the
/// SearchContext universe — when `index` is one segment of a snapshot.
StatusOr<FtRelation> EvaluateFta(const FtaExprPtr& expr, const InvertedIndex& index,
                                 const AlgebraScoreModel* model,
                                 EvalCounters* counters,
                                 const RawPostingOracle* raw_oracle = nullptr,
                                 DecodedBlockCache* cache = nullptr,
                                 const Deadline* deadline = nullptr,
                                 const TombstoneSet* tombstones = nullptr);

}  // namespace fts

#endif  // FTS_ALGEBRA_FTA_H_
