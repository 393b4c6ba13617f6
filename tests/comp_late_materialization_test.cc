// Differential proof of late materialization in the COMP evaluator.
//
// EvaluateFta evaluates project[](scan(t)) per list entry
// (OpScanTokenNodes), folds prefix projections in one linear pass instead
// of re-sorting, and never re-normalizes a join's output. This harness
// pins all three against the unchanged generic composition — OpScanToken /
// OpScanHasPos, a hand-built projection followed by FtRelation::Normalize,
// OpJoin followed by Normalize — which it evaluates itself, operator at a
// time, over the same plan. Random COMP queries (bare-token conjuncts, quantified bindings
// whose compiled projections are prefixes or permutations, AND NOT closed
// subqueries with negative predicates) must produce the same node ids and
// the same score bits under every scoring model, on heap-built and mmap'd
// v6 indexes, through the raw-oracle seam, and per segment of a
// three-segment snapshot with tombstoned deletes. The naive calculus
// evaluator anchors the node sets to the paper's semantics.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algebra/fta.h"
#include "algebra/ops.h"
#include "calculus/analysis.h"
#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "compile/ftc_to_fta.h"
#include "eval/comp_engine.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/index_snapshot.h"
#include "index/tombstone_set.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "scoring/probabilistic.h"
#include "scoring/tfidf.h"
#include "testing/random_workload.h"
#include "testing/raw_posting_oracle.h"

namespace fts {
namespace {

constexpr ScoringKind kAllScoring[] = {ScoringKind::kNone, ScoringKind::kTfIdf,
                                       ScoringKind::kProbabilistic};

double CombineViaModel(void* ctx, double a, double b) {
  return static_cast<const AlgebraScoreModel*>(ctx)->ProjectCombine(a, b);
}

void ReferenceNormalize(FtRelation* r, const AlgebraScoreModel* model) {
  if (model != nullptr) {
    r->Normalize(&CombineViaModel, const_cast<AlgebraScoreModel*>(model));
  } else {
    r->Normalize();
  }
}

/// π as it was before late materialization: copy the columns of every
/// tuple, then stable-sort and fold duplicates.
FtRelation ReferenceProject(const FtRelation& in, const std::vector<int>& cols,
                            const AlgebraScoreModel* model) {
  FtRelation out(cols.size());
  for (const FtTuple& t : in.tuples()) {
    FtTuple p;
    p.node = t.node;
    p.score = t.score;
    for (int c : cols) p.positions.push_back(t.positions[c]);
    out.Add(std::move(p));
  }
  ReferenceNormalize(&out, model);
  return out;
}

/// The generic operator-at-a-time composition over `plan`: every scan
/// materializes one tuple per occurrence, every projection and join
/// re-normalizes. Every intermediate must come out normalized.
StatusOr<FtRelation> ReferenceEvaluate(const FtaExprPtr& plan,
                                       const InvertedIndex& index,
                                       const AlgebraScoreModel* model,
                                       const RawPostingOracle* oracle,
                                       const TombstoneSet* tombstones) {
  const auto eval = [&](const FtaExprPtr& e) {
    return ReferenceEvaluate(e, index, model, oracle, tombstones);
  };
  StatusOr<FtRelation> out = FtRelation(0);
  switch (plan->kind()) {
    case FtaExpr::Kind::kSearchContext:
      out = OpScanSearchContext(index, model, nullptr, tombstones);
      break;
    case FtaExpr::Kind::kHasPos:
      out = OpScanHasPos(index, model, nullptr, oracle, nullptr, tombstones);
      break;
    case FtaExpr::Kind::kToken:
      out = OpScanToken(index, plan->token(), model, nullptr, oracle, nullptr,
                        tombstones);
      break;
    case FtaExpr::Kind::kProject: {
      FTS_ASSIGN_OR_RETURN(FtRelation in, eval(plan->child()));
      out = ReferenceProject(in, plan->project_cols(), model);
      break;
    }
    case FtaExpr::Kind::kJoin: {
      FTS_ASSIGN_OR_RETURN(FtRelation l, eval(plan->left()));
      FTS_ASSIGN_OR_RETURN(FtRelation r, eval(plan->right()));
      FtRelation j = OpJoin(l, r, model, nullptr);
      ReferenceNormalize(&j, model);
      out = std::move(j);
      break;
    }
    case FtaExpr::Kind::kSelect: {
      FTS_ASSIGN_OR_RETURN(FtRelation in, eval(plan->child()));
      out = OpSelect(in, plan->pred(), model, nullptr);
      break;
    }
    case FtaExpr::Kind::kAntiJoin:
    case FtaExpr::Kind::kUnion:
    case FtaExpr::Kind::kIntersect:
    case FtaExpr::Kind::kDifference: {
      FTS_ASSIGN_OR_RETURN(FtRelation l, eval(plan->left()));
      FTS_ASSIGN_OR_RETURN(FtRelation r, eval(plan->right()));
      switch (plan->kind()) {
        case FtaExpr::Kind::kAntiJoin:
          out = OpAntiJoin(l, r, model, nullptr);
          break;
        case FtaExpr::Kind::kUnion:
          out = OpUnion(l, r, model, nullptr);
          break;
        case FtaExpr::Kind::kIntersect:
          out = OpIntersect(l, r, model, nullptr);
          break;
        default:
          out = OpDifference(l, r, model, nullptr);
          break;
      }
      break;
    }
  }
  if (out.ok()) {
    EXPECT_TRUE(out->IsNormalized()) << plan->ToString();
  }
  return out;
}

/// Node ids and raw score bits of a relation.
struct Answer {
  std::vector<NodeId> nodes;
  std::vector<uint64_t> score_bits;
  bool operator==(const Answer&) const = default;
};

uint64_t Bits(double s) {
  uint64_t b;
  std::memcpy(&b, &s, sizeof(b));
  return b;
}

Answer AnswerOf(const FtRelation& rel) {
  Answer a;
  for (const FtTuple& t : rel.tuples()) {
    a.nodes.push_back(t.node);
    a.score_bits.push_back(Bits(t.score));
  }
  return a;
}

std::unique_ptr<AlgebraScoreModel> MakeModel(ScoringKind kind,
                                             const InvertedIndex* index,
                                             const CalcQuery& calc,
                                             const SegmentScoringStats* stats) {
  if (kind == ScoringKind::kTfIdf) {
    const auto token_set = CollectTokens(calc.expr);
    return std::make_unique<TfIdfScoreModel>(
        index, std::vector<std::string>(token_set.begin(), token_set.end()),
        nullptr, stats);
  }
  if (kind == ScoringKind::kProbabilistic) {
    return std::make_unique<ProbabilisticScoreModel>(index, stats);
  }
  return nullptr;
}

const char* const kNegativePreds[] = {"not_distance(p, q, %d)", "not_ordered(p, q)",
                                      "not_samepara(p, q)",
                                      "not_samesentence(p, q)"};
const char* const kPositivePreds[] = {"distance(%s, %s, %d)", "ordered(%s, %s)",
                                      "samesentence(%s, %s)"};

std::string Quoted(Rng* rng) {
  std::string q = "'";  // += avoids GCC 12's -Wrestrict false positive
  q += RandomWorkloadToken(rng);
  return q + "'";
}

/// A random COMP query over the test vocabulary: bare-token conjuncts
/// (node-level scans), optionally a quantified conjunct binding two or
/// three variables in a random order (so the compiler's projections come
/// out as prefixes, permutations and gaps), optionally an OR, and
/// optionally an AND NOT closed subquery carrying a negative predicate —
/// the serving log's COMP shape.
std::string RandomCompQuery(Rng* rng) {
  std::string q = Quoted(rng);
  for (uint64_t i = rng->Uniform(3); i > 0; --i) q += " AND " + Quoted(rng);
  if (rng->Bernoulli(0.2)) q = "(" + q + " OR " + Quoted(rng) + ")";
  if (rng->Bernoulli(0.5)) {
    std::vector<std::string> vars = {"x", "y"};
    if (rng->Bernoulli(0.5)) vars.push_back("z");
    std::string body;
    // Bind in a random rotation of the quantifier order.
    const size_t rot = rng->Uniform(vars.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      if (!body.empty()) body += " AND ";
      body += vars[(i + rot) % vars.size()] + " HAS " + Quoted(rng);
    }
    for (uint64_t i = 1 + rng->Uniform(2); i > 0; --i) {
      const std::string& a = vars[rng->Uniform(vars.size())];
      const std::string& b = vars[rng->Uniform(vars.size())];
      // One draw per statement: argument evaluation order is unspecified.
      const char* format = kPositivePreds[rng->Uniform(3)];
      const int distance = static_cast<int>(rng->Uniform(5));
      char pred[64];
      std::snprintf(pred, sizeof(pred), format, a.c_str(), b.c_str(), distance);
      body += " AND " + std::string(pred);
    }
    std::string quantified = "(" + body + ")";
    for (size_t i = vars.size(); i > 0; --i) {
      quantified = "SOME " + vars[i - 1] + " " + quantified;
    }
    q += " AND " + quantified;
  }
  if (rng->Bernoulli(0.1)) q += " AND SOME v " + Quoted(rng);  // project[](haspos)
  if (rng->Bernoulli(0.7)) {
    char pred[64];
    const char* format = kNegativePreds[rng->Uniform(4)];
    const int distance = static_cast<int>(rng->Uniform(4));
    std::snprintf(pred, sizeof(pred), format, distance);
    const std::string p = Quoted(rng);
    const std::string q2 = Quoted(rng);
    q += " AND NOT (SOME p SOME q (p HAS " + p + " AND q HAS " + q2 + " AND " +
         pred + "))";
  }
  return q;
}

struct CompiledQuery {
  std::string text;
  CalcQuery calc;
  FtaExprPtr plan;
};

std::vector<CompiledQuery> RandomCompiledQueries(Rng* rng, int count) {
  std::vector<CompiledQuery> out;
  for (int i = 0; i < count; ++i) {
    CompiledQuery q;
    q.text = RandomCompQuery(rng);
    auto parsed = ParseQuery(q.text, SurfaceLanguage::kComp);
    EXPECT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    if (!parsed.ok()) continue;
    auto calc = TranslateToCalculus(*parsed);
    EXPECT_TRUE(calc.ok()) << q.text;
    if (!calc.ok()) continue;
    auto plan = CompileQuery(*calc);
    EXPECT_TRUE(plan.ok()) << q.text;
    if (!plan.ok()) continue;
    q.calc = std::move(*calc);
    q.plan = std::move(*plan);
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<NodeId> NaiveNodes(const Corpus& corpus, const CalcQuery& calc) {
  NaiveCalculusEvaluator naive(&corpus);
  auto nodes = naive.Evaluate(calc);
  EXPECT_TRUE(nodes.ok());
  return nodes.ok() ? *nodes : std::vector<NodeId>{};
}

InvertedIndex LoadMmapTwin(const InvertedIndex& src, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/fts_latemat_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(src, path).ok());  // default format: v6
  LoadOptions options;
  options.mode = LoadOptions::Mode::kMmap;
  InvertedIndex twin;
  EXPECT_TRUE(LoadIndexFromFile(path, &twin, options).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(twin.lazy_validation());
  return twin;
}

Corpus MakeCorpus(Rng* rng) { return RandomWorkloadCorpus(rng, 30, 4); }

/// Evaluates `plan` late-materialized and by reference on `index` and
/// expects the same answer; returns it.
Answer ExpectMatchesReference(const CompiledQuery& q, const InvertedIndex& index,
                              const AlgebraScoreModel* model,
                              const RawPostingOracle* oracle,
                              const TombstoneSet* tombstones, const char* what) {
  auto late = EvaluateFta(q.plan, index, model, nullptr, oracle, nullptr, nullptr,
                          tombstones);
  auto ref = ReferenceEvaluate(q.plan, index, model, oracle, tombstones);
  EXPECT_TRUE(late.ok()) << what << ": " << q.text << ": " << late.status().ToString();
  EXPECT_TRUE(ref.ok()) << what << ": " << q.text << ": " << ref.status().ToString();
  if (!late.ok() || !ref.ok()) return {};
  const Answer a = AnswerOf(*late);
  EXPECT_EQ(a, AnswerOf(*ref)) << what << ": " << q.text << "\n  plan "
                               << q.plan->ToString();
  return a;
}

class CompLateMaterialization : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompLateMaterialization, HeapMmapAndRawOracleMatchReference) {
  Rng rng(GetParam() * 7919 + 3);
  const Corpus corpus = MakeCorpus(&rng);
  const InvertedIndex heap = IndexBuilder::Build(corpus);
  const InvertedIndex mapped = LoadMmapTwin(heap, std::to_string(GetParam()));
  const RawPostingOracle oracle = BuildRawPostingOracle(corpus);

  for (const CompiledQuery& q : RandomCompiledQueries(&rng, 16)) {
    const std::vector<NodeId> naive = NaiveNodes(corpus, q.calc);
    for (ScoringKind kind : kAllScoring) {
      const auto heap_model = MakeModel(kind, &heap, q.calc, nullptr);
      const auto mapped_model = MakeModel(kind, &mapped, q.calc, nullptr);
      const Answer block =
          ExpectMatchesReference(q, heap, heap_model.get(), nullptr, nullptr, "heap");
      const Answer raw =
          ExpectMatchesReference(q, heap, heap_model.get(), &oracle, nullptr, "raw");
      const Answer mmap = ExpectMatchesReference(q, mapped, mapped_model.get(),
                                                 nullptr, nullptr, "mmap");
      EXPECT_EQ(block, raw) << q.text;
      EXPECT_EQ(block, mmap) << q.text;
      EXPECT_EQ(block.nodes, naive) << q.text;

      // The engine entry point (query-level model, per-query block cache)
      // serves the same answer, with and without the raw-oracle seam.
      CompEngine engine(&heap, kind);
      for (const RawPostingOracle* seam : {static_cast<const RawPostingOracle*>(nullptr),
                                           &oracle}) {
        engine.set_raw_oracle_for_test(seam);
        auto parsed = ParseQuery(q.text, SurfaceLanguage::kComp);
        ASSERT_TRUE(parsed.ok());
        auto result = engine.Evaluate(*parsed);
        ASSERT_TRUE(result.ok()) << q.text << ": " << result.status().ToString();
        EXPECT_EQ(result->nodes, block.nodes) << q.text;
        if (kind == ScoringKind::kNone) {
          EXPECT_TRUE(result->scores.empty());
        } else {
          std::vector<uint64_t> bits;
          for (double s : result->scores) bits.push_back(Bits(s));
          EXPECT_EQ(bits, block.score_bits) << q.text;
        }
      }
    }
  }
}

TEST_P(CompLateMaterialization, SnapshotSegmentsWithTombstonesMatchReference) {
  constexpr size_t kSegments = 3;
  Rng rng(GetParam() * 104729 + 11);
  const Corpus full = MakeCorpus(&rng);
  const size_t n = full.num_nodes();
  std::vector<bool> deleted(n);
  for (size_t i = 0; i < n; ++i) deleted[i] = rng.Bernoulli(0.25);

  // Contiguous split into three segments (documents copied verbatim),
  // tombstones per segment (null where a segment has no deletes), and the
  // snapshot's global scoring stats.
  std::vector<Corpus> parts(kSegments);
  for (size_t i = 0; i < n; ++i) {
    const TokenizedDocument& d = full.doc(static_cast<NodeId>(i));
    std::vector<std::string> tokens;
    for (TokenId t : d.tokens) tokens.push_back(full.token_text(t));
    ASSERT_TRUE(parts[i * kSegments / n].AddTokensWithPositions(tokens, d.positions).ok());
  }
  std::vector<std::shared_ptr<const InvertedIndex>> segments;
  std::vector<std::shared_ptr<const TombstoneSet>> tombstones;
  size_t base = 0;
  for (size_t s = 0; s < kSegments; ++s) {
    auto built = std::make_shared<InvertedIndex>(IndexBuilder::Build(parts[s]));
    // Alternate heap and mmap'd v6 segments within one snapshot.
    if (s % 2 == 1) {
      built = std::make_shared<InvertedIndex>(
          LoadMmapTwin(*built, std::to_string(GetParam()) + "_" + std::to_string(s)));
    }
    segments.push_back(std::move(built));
    std::shared_ptr<TombstoneSet> bitmap;
    for (size_t local = 0; local < parts[s].num_nodes(); ++local) {
      if (!deleted[base + local]) continue;
      if (!bitmap) bitmap = std::make_shared<TombstoneSet>(parts[s].num_nodes());
      bitmap->MarkDeleted(static_cast<NodeId>(local));
    }
    tombstones.push_back(std::move(bitmap));
    base += parts[s].num_nodes();
  }
  auto snapshot = IndexSnapshot::Create(segments, tombstones);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  for (const CompiledQuery& q : RandomCompiledQueries(&rng, 12)) {
    std::vector<NodeId> expect_nodes;
    for (NodeId node : NaiveNodes(full, q.calc)) {
      if (!deleted[node]) expect_nodes.push_back(node);
    }
    for (ScoringKind kind : kAllScoring) {
      std::vector<NodeId> nodes;
      for (const SegmentView& seg : (*snapshot)->segments()) {
        const auto model = MakeModel(kind, seg.index, q.calc, seg.scoring);
        const Answer a = ExpectMatchesReference(q, *seg.index, model.get(), nullptr,
                                                seg.tombstones, "segment");
        for (NodeId local : a.nodes) nodes.push_back(seg.base + local);
      }
      EXPECT_EQ(nodes, expect_nodes) << q.text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompLateMaterialization, ::testing::Range<uint64_t>(1, 9));

/// Walks a plan and tallies the projection shapes late materialization
/// distinguishes.
struct PlanShapes {
  int node_level_scans = 0;  // project[](scan(t))
  int prefix_projections = 0;
  int other_projections = 0;  // permutations and gapped column lists
};

void CountShapes(const FtaExprPtr& plan, PlanShapes* shapes) {
  if (!plan) return;
  if (plan->kind() == FtaExpr::Kind::kProject) {
    const std::vector<int>& cols = plan->project_cols();
    bool prefix = true;
    for (size_t i = 0; i < cols.size(); ++i) prefix &= cols[i] == static_cast<int>(i);
    if (cols.empty() && plan->child()->kind() == FtaExpr::Kind::kToken) {
      ++shapes->node_level_scans;
    } else if (prefix) {
      ++shapes->prefix_projections;
    } else {
      ++shapes->other_projections;
    }
  }
  CountShapes(plan->left(), shapes);
  CountShapes(plan->right(), shapes);
}

TEST(CompLateMaterializationPlans, GeneratorCoversEveryProjectionShape) {
  // Guards the differential suite's reach: the random queries must compile
  // to node-level scans, prefix projections, and non-prefix projections
  // (which still sort), or the comparisons above would prove less.
  PlanShapes shapes;
  for (uint64_t seed = 1; seed < 9; ++seed) {
    Rng rng(seed * 7919 + 3);
    MakeCorpus(&rng);  // same draw order as the heap test
    for (const CompiledQuery& q : RandomCompiledQueries(&rng, 16)) {
      CountShapes(q.plan, &shapes);
    }
  }
  EXPECT_GT(shapes.node_level_scans, 0);
  EXPECT_GT(shapes.prefix_projections, 0);
  EXPECT_GT(shapes.other_projections, 0);
}

struct OpsFixture : public ::testing::Test {
  void SetUp() override {
    Rng rng(42);
    corpus = MakeCorpus(&rng);
    index = IndexBuilder::Build(corpus);
    oracle = BuildRawPostingOracle(corpus);
  }
  Corpus corpus;
  InvertedIndex index;
  RawPostingOracle oracle;
};

TEST_F(OpsFixture, JoinOutputIsNormalizedByConstruction) {
  // OpJoin no longer re-normalizes: over normalized inputs its output must
  // already be sorted and duplicate-free, including self-joins and joins
  // of multi-column relations.
  const char* const tokens[] = {"a", "b", "c"};
  std::vector<FtRelation> inputs;
  for (const char* t : tokens) inputs.push_back(*OpScanToken(index, t, nullptr, nullptr));
  inputs.push_back(OpJoin(inputs[0], inputs[1], nullptr, nullptr));
  inputs.push_back(*OpProject(inputs[0], std::vector<int>{}, nullptr, nullptr));
  for (const FtRelation& l : inputs) {
    for (const FtRelation& r : inputs) {
      ASSERT_TRUE(l.IsNormalized());
      ASSERT_TRUE(r.IsNormalized());
      const FtRelation j = OpJoin(l, r, nullptr, nullptr);
      EXPECT_TRUE(j.IsNormalized());
      FtRelation renormalized = j;
      renormalized.Normalize();
      EXPECT_EQ(j.ToString(), renormalized.ToString());
    }
  }
}

TEST_F(OpsFixture, HandBuiltProjectionsMatchReference) {
  // Column lists the compiler may or may not emit today: a node-level
  // token scan, HasPos projected onto the node (still occurrence-at-a-time),
  // prefixes of a two-way join, a permutation, and a gapped list over a
  // three-way join.
  const FtaExprPtr a = FtaExpr::Token("a");
  const FtaExprPtr b = FtaExpr::Token("b");
  const FtaExprPtr ab = FtaExpr::Join(a, b);
  const FtaExprPtr abc = FtaExpr::Join(ab, FtaExpr::Token("c"));
  const std::vector<FtaExprPtr> plans = {
      *FtaExpr::Project(a, {}),       *FtaExpr::Project(FtaExpr::HasPos(), {}),
      *FtaExpr::Project(ab, {}),      *FtaExpr::Project(ab, {0}),
      *FtaExpr::Project(ab, {1, 0}),  *FtaExpr::Project(ab, {1}),
      *FtaExpr::Project(abc, {0, 1}), *FtaExpr::Project(abc, {0, 2}),
      *FtaExpr::Project(abc, {2, 1, 0}),
      *FtaExpr::Project(FtaExpr::Token("zzz"), {}),  // OOV
  };
  auto calc = TranslateToCalculus(*ParseQuery("'a' AND 'b' AND 'c'", SurfaceLanguage::kComp));
  ASSERT_TRUE(calc.ok());
  for (const FtaExprPtr& plan : plans) {
    const CompiledQuery q{plan->ToString(), *calc, plan};
    for (ScoringKind kind : kAllScoring) {
      const auto model = MakeModel(kind, &index, *calc, nullptr);
      const Answer block =
          ExpectMatchesReference(q, index, model.get(), nullptr, nullptr, "heap");
      const Answer raw =
          ExpectMatchesReference(q, index, model.get(), &oracle, nullptr, "raw");
      EXPECT_EQ(block, raw) << q.text;
    }
  }
}

TEST_F(OpsFixture, NodeLevelScanChargesEntriesNotPositions) {
  const TokenId tok = index.LookupToken("a");
  ASSERT_NE(tok, kInvalidToken);
  const size_t entries = index.block_list(tok)->num_entries();
  EvalCounters c;
  auto rel = EvaluateFta(*FtaExpr::Project(FtaExpr::Token("a"), {}), index, nullptr, &c);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), entries);
  EXPECT_EQ(c.entries_scanned, entries);
  EXPECT_EQ(c.tuples_materialized, entries);
  EXPECT_EQ(c.positions_decoded, 0u);
  EXPECT_EQ(c.positions_scanned, 0u);
}

}  // namespace
}  // namespace fts
