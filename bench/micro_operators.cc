// Operator microbenchmarks: materialized algebra operators vs their
// pipelined cursor counterparts on identical inputs — the per-operator view
// of the COMP vs PPRED gap.

#include "algebra/fta.h"
#include "bench_common.h"
#include "calculus/analysis.h"
#include "compile/ftc_to_fta.h"
#include "eval/pos_cursor.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "scoring/tfidf.h"

namespace {

using fts::AlgebraPredicateCall;
using fts::EvalCounters;
using fts::EvaluateFta;
using fts::FtaExpr;
using fts::FtaExprPtr;
using fts::InvertedIndex;
using fts::PipelineContext;
using fts::benchutil::SharedIndex;

const fts::PositionPredicate* Pred(const char* name) {
  return fts::PredicateRegistry::Default().Find(name);
}

FtaExprPtr JoinSelectPlan(int64_t distance) {
  auto join = FtaExpr::Join(FtaExpr::Token("topic0"), FtaExpr::Token("topic1"));
  AlgebraPredicateCall call;
  call.pred = Pred("distance");
  call.cols = {0, 1};
  call.consts = {distance};
  auto sel = FtaExpr::Select(join, call);
  auto proj = FtaExpr::Project(*sel, {});
  return *proj;
}

void BM_MaterializedScan(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  for (auto _ : state) {
    auto rel = EvaluateFta(FtaExpr::Token("topic0"), index, nullptr, nullptr);
    benchmark::DoNotOptimize(rel->size());
  }
}
BENCHMARK(BM_MaterializedScan)->Unit(benchmark::kMillisecond);

void BM_MaterializedJoinSelect(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto plan = JoinSelectPlan(state.range(0));
  size_t matches = 0;
  for (auto _ : state) {
    auto rel = EvaluateFta(plan, index, nullptr, nullptr);
    matches = rel->size();
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_MaterializedJoinSelect)->Arg(5)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_PipelinedJoinSelect(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto plan = JoinSelectPlan(state.range(0));
  size_t matches = 0;
  for (auto _ : state) {
    PipelineContext ctx{&index, nullptr, nullptr};
    auto cursor = BuildPipeline(plan, ctx);
    matches = 0;
    while ((*cursor)->AdvanceNode() != fts::kInvalidNode) ++matches;
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_PipelinedJoinSelect)->Arg(5)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_MaterializedUnion(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto l = FtaExpr::Project(FtaExpr::Token("topic0"), {});
  auto r = FtaExpr::Project(FtaExpr::Token("topic1"), {});
  auto u = FtaExpr::Union(*l, *r);
  for (auto _ : state) {
    auto rel = EvaluateFta(*u, index, nullptr, nullptr);
    benchmark::DoNotOptimize(rel->size());
  }
}
BENCHMARK(BM_MaterializedUnion)->Unit(benchmark::kMillisecond);

void BM_MaterializedAntiJoin(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto r = FtaExpr::Project(FtaExpr::Token("topic1"), {});
  auto aj = FtaExpr::AntiJoin(FtaExpr::Token("topic0"), *r);
  for (auto _ : state) {
    auto rel = EvaluateFta(*aj, index, nullptr, nullptr);
    benchmark::DoNotOptimize(rel->size());
  }
}
BENCHMARK(BM_MaterializedAntiJoin)->Unit(benchmark::kMillisecond);

void BM_MaterializedClosedNegation(benchmark::State& state) {
  // The serving log's COMP shape: a dense topic token minus the nodes of a
  // closed subquery with a negative predicate, TF-IDF scored. The topic
  // token (18 occurrences in half the documents) compiles to
  // project[](scan), which evaluates one tuple per list entry.
  const InvertedIndex& index = SharedIndex(6000, 18);
  auto parsed = fts::ParseQuery(
      "'topic0' AND NOT (SOME p SOME q (p HAS 'w443' AND q HAS 'w404' AND "
      "not_distance(p, q, 3)))",
      fts::SurfaceLanguage::kComp);
  auto calc = fts::TranslateToCalculus(*parsed);
  auto plan = fts::CompileQuery(*calc);
  const auto token_set = fts::CollectTokens(calc->expr);
  const fts::TfIdfScoreModel model(
      &index, std::vector<std::string>(token_set.begin(), token_set.end()));
  uint64_t tuples = 0;
  size_t matches = 0;
  for (auto _ : state) {
    EvalCounters counters;
    auto rel = EvaluateFta(*plan, index, &model, &counters);
    matches = rel->size();
    tuples += counters.tuples_materialized;
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["tuples_per_iter"] =
      static_cast<double>(tuples) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MaterializedClosedNegation)->Unit(benchmark::kMillisecond);

void BM_PipelinedCursorOpsPerPosition(benchmark::State& state) {
  // Cost of one AdvancePosition step on a deep plan (join + 2 selects).
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto join = FtaExpr::Join(FtaExpr::Token("topic0"), FtaExpr::Token("topic1"));
  AlgebraPredicateCall c1;
  c1.pred = Pred("ordered");
  c1.cols = {0, 1};
  auto s1 = FtaExpr::Select(join, c1);
  AlgebraPredicateCall c2;
  c2.pred = Pred("distance");
  c2.cols = {0, 1};
  c2.consts = {30};
  auto s2 = FtaExpr::Select(*s1, c2);
  uint64_t ops = 0;
  for (auto _ : state) {
    EvalCounters counters;
    PipelineContext ctx{&index, nullptr, &counters};
    auto cursor = BuildPipeline(*s2, ctx);
    while ((*cursor)->AdvanceNode() != fts::kInvalidNode) {
    }
    ops += counters.cursor_ops;
  }
  state.counters["cursor_ops_per_iter"] =
      static_cast<double>(ops) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelinedCursorOpsPerPosition)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }
