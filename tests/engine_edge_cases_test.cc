// Edge-case conformance across all four engines, parameterized by engine
// kind: empty indexes, out-of-vocabulary tokens, empty documents,
// single-document corpora, duplicate atoms, and adversarial queries must
// behave identically everywhere the query is supported.

#include <gtest/gtest.h>

#include <memory>

#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "eval/npred_engine.h"
#include "eval/ppred_engine.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "index/index_builder.h"
#include "index/index_snapshot.h"
#include "lang/parser.h"
#include "text/corpus.h"

namespace fts {
namespace {

std::unique_ptr<Engine> Make(const std::string& kind, const InvertedIndex* index) {
  if (kind == "BOOL") return std::make_unique<BoolEngine>(index, ScoringKind::kNone);
  if (kind == "PPRED") return std::make_unique<PpredEngine>(index, ScoringKind::kNone);
  if (kind == "NPRED") return std::make_unique<NpredEngine>(index, ScoringKind::kNone);
  return std::make_unique<CompEngine>(index, ScoringKind::kNone);
}

class EngineEdgeCases : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEdgeCases, EmptyIndexMatchesNothingPositive) {
  Corpus corpus;
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery("'anything'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->nodes.empty());
}

TEST_P(EngineEdgeCases, OovConjunctKillsConjunction) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery("'alpha' AND 'zzzz'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nodes.empty());
}

TEST_P(EngineEdgeCases, OovDisjunctIsNeutral) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  corpus.AddDocument("gamma");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery("'alpha' OR 'zzzz'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, (std::vector<NodeId>{0}));
}

TEST_P(EngineEdgeCases, DuplicateConjunctsAreIdempotent) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  corpus.AddDocument("beta");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery("'alpha' AND 'alpha' AND 'alpha'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, (std::vector<NodeId>{0}));
}

TEST_P(EngineEdgeCases, SingleTokenDocument) {
  Corpus corpus;
  corpus.AddDocument("solo");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery("'solo'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, (std::vector<NodeId>{0}));
}

TEST_P(EngineEdgeCases, NullQueryIsInvalid) {
  Corpus corpus;
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto result = engine->Evaluate(nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineEdgeCases,
                         ::testing::Values("BOOL", "PPRED", "NPRED", "COMP"));

// Predicate-bearing edge cases run on the three predicate-capable engines.
class PredicateEdgeCases : public ::testing::TestWithParam<const char*> {};

TEST_P(PredicateEdgeCases, SelfDistanceOnSingleOccurrence) {
  Corpus corpus;
  corpus.AddDocument("alpha beta alpha");
  corpus.AddDocument("alpha beta");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  // Two occurrences of 'alpha' at different positions: only node 0.
  auto parsed = ParseQuery(
      "SOME p SOME q (p HAS 'alpha' AND q HAS 'alpha' AND diffpos(p, q))",
      SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  if (!result.ok()) {
    // PPRED legitimately declines the negative predicate.
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
    return;
  }
  EXPECT_EQ(result->nodes, (std::vector<NodeId>{0}));
}

TEST_P(PredicateEdgeCases, UnsatisfiableWindow) {
  Corpus corpus;
  corpus.AddDocument("alpha filler filler filler beta");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery(
      "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND distance(p, q, 0))",
      SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->nodes.empty());
}

TEST_P(PredicateEdgeCases, ZeroDistanceMeansAdjacent) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  corpus.AddDocument("beta alpha");
  corpus.AddDocument("alpha x beta");
  InvertedIndex index = IndexBuilder::Build(corpus);
  auto engine = Make(GetParam(), &index);
  auto parsed = ParseQuery(
      "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND distance(p, q, 0))",
      SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine->Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, (std::vector<NodeId>{0, 1}));  // symmetric
}

INSTANTIATE_TEST_SUITE_P(Engines, PredicateEdgeCases,
                         ::testing::Values("PPRED", "NPRED", "COMP"));

// Query depth is bounded at the parse boundary (kMaxQueryDepth): deeper
// queries fail with InvalidArgument instead of overflowing the stack in a
// recursive stage, and a query right at the bound evaluates on every path.
TEST(QueryDepthLimit, SearcherRejectsDeepQueriesAndServesTheLimit) {
  Corpus corpus;
  corpus.AddDocument("a b c");
  corpus.AddDocument("a c");
  corpus.AddDocument("b");
  InvertedIndex index = IndexBuilder::Build(corpus);
  for (ScoringKind scoring : {ScoringKind::kNone, ScoringKind::kTfIdf,
                              ScoringKind::kProbabilistic}) {
    SearcherOptions options;
    options.scoring = scoring;
    Searcher searcher(IndexSnapshot::ForIndex(&index), options);
    const auto search = [&](const std::string& q) {
      ExecContext ctx;
      return searcher.Search(q, ctx);
    };

    std::string chain = "'a'";
    for (int i = 1; i < 10000; ++i) chain += " AND 'a'";
    auto deep = search(chain);
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);

    // kMaxQueryDepth levels: a BOOL chain, and a COMP query whose chain
    // ends in a closed negated subquery (the materialized algebra path,
    // whose plan is several times deeper than the query).
    std::string bool_chain = "'a'";
    for (int i = 1; i < kMaxQueryDepth; ++i) bool_chain += " AND 'a'";
    auto bool_result = search(bool_chain);
    ASSERT_TRUE(bool_result.ok()) << bool_result.status().ToString();
    EXPECT_EQ(bool_result->result.nodes, (std::vector<NodeId>{0, 1}));

    const std::string negated =
        "NOT (SOME p SOME q (p HAS 'a' AND q HAS 'b' AND not_distance(p, q, 3)))";
    std::string comp_chain = "'c'";
    for (int i = 2; i < kMaxQueryDepth; ++i) comp_chain += " AND 'c'";
    comp_chain += " AND " + negated;
    auto comp_result = search(comp_chain);
    ASSERT_TRUE(comp_result.ok()) << comp_result.status().ToString();
    EXPECT_EQ(comp_result->engine, "COMP");
    EXPECT_EQ(comp_result->result.nodes, (std::vector<NodeId>{0, 1}));
  }
}

}  // namespace
}  // namespace fts
