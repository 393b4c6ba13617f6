// Recursive-descent parsers for the paper's query languages.
//
// Grammar (full COMP; the other languages are syntactic restrictions):
//
//   query   := or
//   or      := and (OR and)*
//   and     := unary (AND unary)*
//   unary   := NOT unary | SOME ident unary | EVERY ident unary | primary
//   primary := '(' query ')' | string | ANY
//            | ident HAS (string | ANY)
//            | ident '(' arg (',' arg)* ')'          (predicate / dist)
//            | ident                                 (bare token literal)
//   arg     := ident | int | string                  (string only in dist)
//
// Precedence: NOT/SOME/EVERY bind tighter than AND, AND tighter than OR,
// matching conventional Boolean query syntax. Bare identifiers that are not
// followed by HAS or '(' are accepted as token literals for convenience.

#ifndef FTS_LANG_PARSER_H_
#define FTS_LANG_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "lang/ast.h"
#include "predicates/predicate.h"

namespace fts {

/// The concrete query language a string claims to be written in.
enum class SurfaceLanguage {
  kBoolNoNeg,  ///< Section 5.3's BOOL-NONEG
  kBool,       ///< Section 4.1's BOOL
  kDist,       ///< Section 4.2's DIST
  kComp,       ///< Section 4.3's COMP
};

const char* SurfaceLanguageToString(SurfaceLanguage lang);

/// Deepest query ParseQuery accepts. Depth counts one level per AND, OR,
/// NOT, SOME/EVERY and parenthesized group along the deepest path (a bare
/// token is depth 1; a chain of n ANDs is depth n + 1). Every stage after
/// parsing — classification, translation, compilation, evaluation — walks
/// the tree recursively, so the bound keeps their stack use bounded too.
inline constexpr int kMaxQueryDepth = 256;

/// Longest query text, in bytes, ParseQuery accepts. The wire admits frames
/// up to kMaxFrameBytes (64 MiB); lexing and parsing a query that size
/// would cost a worker seconds and the token vector many times its size.
inline constexpr size_t kMaxQueryBytes = size_t{1} << 20;

/// Parses `query` and verifies it stays within `lang`'s constructs.
/// Predicate names are validated against `registry` at parse time. A query
/// deeper than kMaxQueryDepth fails with InvalidArgument before any
/// recursive stage runs (the parser's own descent included); one longer
/// than kMaxQueryBytes fails with InvalidArgument before lexing.
StatusOr<LangExprPtr> ParseQuery(std::string_view query, SurfaceLanguage lang,
                                 const PredicateRegistry& registry =
                                     PredicateRegistry::Default());

/// Returns OK iff `expr` uses only constructs available in `lang`
/// (e.g. a COMP tree with SOME is not in BOOL; NOT outside "AND NOT" is
/// not in BOOL-NONEG).
Status CheckInLanguage(const LangExprPtr& expr, SurfaceLanguage lang);

}  // namespace fts

#endif  // FTS_LANG_PARSER_H_
