// The benchmark's workloads: per-workload configuration (frozen here and
// quoted in BENCHMARK.json), the seeded corpus shape, and the seeded query
// log. The system under test sees only the generated corpus and log.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "workload/corpus_gen.h"

namespace perfbench {

enum class SystemKind {
  kServe,   ///< loopback FtsServer
  kIngest,  ///< in-process IngestService + SearchService
};

enum class LogMix {
  kLight,       ///< top-10 BOOL-NONEG/BOOL over terms ranked >= 300
  kHeavy,       ///< every class, head terms, pair-routed and not
  kLightPpred,  ///< kLight plus a PPRED phrase/NEAR share
};

/// Client connections, each with its own waiter thread (the same in every
/// workload: one for NPRED/COMP when the log has them, the rest for the
/// fast classes).
inline constexpr size_t kLanes = 3;
/// Window of the pair lists (the workloads that build them).
inline constexpr uint32_t kPairDistance = 2;

struct WorkloadConfig {
  const char* name;
  SystemKind system;
  fts::ScoringKind scoring;
  LogMix mix;
  /// Pair lists at kPairDistance for this many most frequent terms
  /// (0 = none).
  uint32_t pair_terms;
  /// SearchService workers.
  size_t workers;
  /// The traced run also replays the log through a ShardRouter over two
  /// FtsServer shards of the same corpus (the router layer's metrics).
  bool shard_replay;
  /// Open-loop rate of the fixed-rate blocks: a tenth to a sixth of the
  /// max_qps_slo measured when it was set, so the latency metrics measure
  /// the serving path rather than how much CPU the host lent the run.
  double offered_qps;
  /// p99 limit the saturation blocks must meet for max_qps_slo to count:
  /// the unloaded (200 qps) p99 measured when it was set, times 30 —
  /// above the 5-10 ms vCPU preemptions a shared host inflicts.
  double latency_limit_us;
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

/// The paper-shaped corpus every workload indexes: 12,000 nodes of 50-300
/// tokens over a 20k Zipf vocabulary with 8 planted topic tokens.
fts::CorpusGenOptions CorpusOptions(uint64_t seed);

/// Intended language class of a log template (the mix the generator aims
/// for; the traced run reports what the classifier actually says).
enum class QueryShape : uint8_t {
  kBoolNoNeg,
  kBool,
  kPpred,
  kNpred,
  kComp,
};
inline constexpr size_t kNumShapes = 5;
const char* ShapeName(QueryShape shape);

struct LogQuery {
  std::string text;
  uint32_t top_k = 0;
  QueryShape shape = QueryShape::kBoolNoNeg;
};

struct QueryLog {
  std::vector<LogQuery> distinct;
  /// Log order: indices into `distinct`, popularity Zipf within each
  /// template.
  std::vector<uint32_t> entries;
};

QueryLog BuildLog(LogMix mix, uint64_t seed);

/// FNV-1a over the log in order (text, NUL, top_k): equal for equal seeds.
uint64_t LogHash(const QueryLog& log);

/// Share of log entries per intended shape.
std::vector<double> ShapeMix(const QueryLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
