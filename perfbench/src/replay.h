// The traced replay: every distinct query of the log, once, single-
// threaded, through each layer's public entry point in turn —
//   ParseQuery -> ClassifyQuery -> Searcher::Search (one reused
//   ExecContext) -> SearchService::Search -> FtsClient::Search ->
//   Encode/DecodeSearchResponse -> ShardRouter::Search (+ each shard
//   directly)
// — with one span per call. Self times come by difference per request
// (exec.self = service - eval, net.self = round trip - service, router.self
// = routed - slowest direct shard). Evaluation counters are taken from the
// Searcher call and repeat exactly for a fixed seed.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "lang/classify.h"
#include "system.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct ReplayResult {
  std::vector<fts::LanguageClass> classes;  ///< per distinct query
  std::vector<fts::EvalCounters> counters;  ///< Searcher counters
  std::vector<std::string> engines;
  std::vector<size_t> results;
  std::vector<size_t> response_bytes;
  size_t mismatches = 0;
  std::string first_mismatch;
};

ReplayResult Replay(System& system, const QueryLog& log, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
