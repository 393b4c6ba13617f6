#include "lang/parser.h"

#include <gtest/gtest.h>

namespace fts {
namespace {

LangExprPtr MustParse(const std::string& q,
                      SurfaceLanguage lang = SurfaceLanguage::kComp) {
  auto e = ParseQuery(q, lang);
  EXPECT_TRUE(e.ok()) << q << " -> " << e.status().ToString();
  return e.ok() ? *e : nullptr;
}

TEST(ParserTest, SingleToken) {
  auto e = MustParse("'usability'", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kToken);
  EXPECT_EQ(e->token(), "usability");
}

TEST(ParserTest, BareWordIsToken) {
  auto e = MustParse("usability", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kToken);
}

TEST(ParserTest, PrecedenceNotBindsTighterThanAndThanOr) {
  auto e = MustParse("NOT 'a' AND 'b' OR 'c'", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  // ((NOT a) AND b) OR c
  ASSERT_EQ(e->kind(), LangExpr::Kind::kOr);
  ASSERT_EQ(e->left()->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->left()->left()->kind(), LangExpr::Kind::kNot);
  EXPECT_EQ(e->right()->token(), "c");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto e = MustParse("'a' AND ('b' OR 'c')", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->right()->kind(), LangExpr::Kind::kOr);
}

TEST(ParserTest, PaperExampleBoolQuery) {
  // Section 5.3: ('software' AND 'users' AND NOT 'testing') OR 'usability'
  auto e = MustParse("('software' AND 'users' AND NOT 'testing') OR 'usability'",
                     SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kOr);
}

TEST(ParserTest, CompQuantifiersAndPredicates) {
  // Section 5.5's running example.
  auto e = MustParse(
      "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND "
      "distance(p1, p2, 5))");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kSome);
  EXPECT_EQ(e->var(), "p1");
  ASSERT_EQ(e->child()->kind(), LangExpr::Kind::kSome);
}

TEST(ParserTest, Theorem3Witness) {
  auto e = MustParse("SOME p1 (NOT p1 HAS 't1')");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kSome);
}

TEST(ParserTest, Theorem5Witness) {
  auto e = MustParse(
      "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))");
  ASSERT_NE(e, nullptr);
}

TEST(ParserTest, EveryQuantifier) {
  auto e = MustParse("EVERY p (p HAS 'a')");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kEvery);
}

TEST(ParserTest, VarHasAny) {
  auto e = MustParse("SOME p (p HAS ANY)");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->child()->kind(), LangExpr::Kind::kVarHasAny);
}

TEST(ParserTest, DistSugarInDistLanguage) {
  auto e = MustParse("dist('efficient', 'completion', 10) AND 'book'",
                     SurfaceLanguage::kDist);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->left()->kind(), LangExpr::Kind::kDist);
  EXPECT_EQ(e->left()->dist_tok1(), "efficient");
  EXPECT_EQ(e->left()->dist_limit(), 10);
}

TEST(ParserTest, DistWithAny) {
  auto e = MustParse("dist(ANY, 'x', 3)", SurfaceLanguage::kDist);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->dist_tok1().empty());
}

TEST(ParserTest, DistRejectsNegativeDistance) {
  EXPECT_FALSE(ParseQuery("dist('a','b',-1)", SurfaceLanguage::kDist).ok());
}

TEST(ParserTest, LanguageRestrictionsEnforced) {
  // Variables require COMP.
  EXPECT_FALSE(ParseQuery("SOME p (p HAS 'a')", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("distance(p,q,3)", SurfaceLanguage::kDist).ok());
  // dist() requires DIST or COMP.
  EXPECT_FALSE(ParseQuery("dist('a','b',3)", SurfaceLanguage::kBool).ok());
  EXPECT_TRUE(ParseQuery("dist('a','b',3)", SurfaceLanguage::kComp).ok());
  // ANY not in BOOL-NONEG.
  EXPECT_FALSE(ParseQuery("ANY", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_TRUE(ParseQuery("ANY", SurfaceLanguage::kBool).ok());
}

TEST(ParserTest, BoolNoNegNegationRules) {
  EXPECT_TRUE(ParseQuery("'a' AND NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("'a' OR NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("NOT 'a' AND NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
}

TEST(ParserTest, SyntaxErrorsCarryOffsets) {
  auto e = ParseQuery("'a' AND", SurfaceLanguage::kBool);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("offset"), std::string::npos);

  EXPECT_FALSE(ParseQuery("('a' AND 'b'", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("'a' 'b'", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("", SurfaceLanguage::kBool).ok());
}

TEST(ParserTest, UnknownPredicateRejected) {
  auto e = ParseQuery("SOME p frobnicate(p, 3)", SurfaceLanguage::kComp);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("frobnicate"), std::string::npos);
}

TEST(ParserTest, PredicateArityCheckedAtParse) {
  EXPECT_FALSE(ParseQuery("SOME p distance(p, 3)", SurfaceLanguage::kComp).ok());
  EXPECT_FALSE(ParseQuery("SOME p SOME q ordered(p, q, 7)",
                          SurfaceLanguage::kComp).ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* queries[] = {
      "'a'",
      "('a' AND NOT ('b'))",
      "SOME p1 (p1 HAS 'x')",
      "SOME p1 SOME p2 ((p1 HAS 'a' AND p2 HAS 'b') AND distance(p1, p2, 5))",
      "EVERY p (NOT (p HAS 'x'))",
  };
  for (const char* q : queries) {
    auto e1 = ParseQuery(q, SurfaceLanguage::kComp);
    ASSERT_TRUE(e1.ok()) << q;
    auto e2 = ParseQuery((*e1)->ToString(), SurfaceLanguage::kComp);
    ASSERT_TRUE(e2.ok()) << (*e1)->ToString();
    EXPECT_EQ((*e1)->ToString(), (*e2)->ToString());
  }
}

std::string NestedParens(int levels) {
  return std::string(levels, '(') + "'a'" + std::string(levels, ')');
}

std::string AndChain(int terms) {
  std::string q = "'a'";
  for (int i = 1; i < terms; ++i) q += " AND 'b'";
  return q;
}

void ExpectTooDeep(const std::string& q) {
  auto e = ParseQuery(q, SurfaceLanguage::kComp);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e.status().message().find("deeper"), std::string::npos)
      << e.status().ToString();
}

TEST(ParserTest, DeepNestingIsRejectedNotACrash) {
  // Each of these used to recurse once per level — in the parser itself
  // (parentheses, NOT) or in every stage after it (the left-deep AND
  // chain) — until the stack overflowed.
  ExpectTooDeep(NestedParens(10000));
  ExpectTooDeep(AndChain(10000));
  std::string nots;
  for (int i = 0; i < 10000; ++i) nots += "NOT ";
  ExpectTooDeep(nots + "'a'");
  std::string somes;
  for (int i = 0; i < 10000; ++i) somes += "SOME p ";
  ExpectTooDeep(somes + "p HAS 'a'");
}

TEST(ParserTest, SizeLimitIsExact) {
  // A bare token padded with spaces to exactly the limit parses; one more
  // byte is refused before lexing.
  std::string query = "'a'";
  query.resize(kMaxQueryBytes, ' ');
  EXPECT_TRUE(ParseQuery(query, SurfaceLanguage::kComp).ok());
  query.push_back(' ');
  const auto parsed = ParseQuery(query, SurfaceLanguage::kComp);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("longer than"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ParserTest, DepthLimitIsExact) {
  // A bare token is depth 1; each parenthesized group and each AND adds one.
  EXPECT_TRUE(ParseQuery(NestedParens(kMaxQueryDepth - 1), SurfaceLanguage::kComp).ok());
  ExpectTooDeep(NestedParens(kMaxQueryDepth));
  EXPECT_TRUE(ParseQuery(AndChain(kMaxQueryDepth), SurfaceLanguage::kComp).ok());
  ExpectTooDeep(AndChain(kMaxQueryDepth + 1));
  // Depth is the deepest path, not the size: 128 leaves combined as a
  // balanced tree are 15 levels deep.
  std::string balanced = "'a'";
  for (int i = 0; i < 7; ++i) balanced = "(" + balanced + ") OR (" + balanced + ")";
  EXPECT_TRUE(ParseQuery(balanced, SurfaceLanguage::kComp).ok());
}

}  // namespace
}  // namespace fts
