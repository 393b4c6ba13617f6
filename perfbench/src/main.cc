// fts_perfbench: the end-to-end serving benchmark.
//
//   fts_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR]
//
// Set-up (corpus generation, index build, server start) runs kSetupRuns
// times in an untraced run and reports the median. The load is a warm-up
// and then blocks that alternate a fixed-rate open-loop block with a
// second one: with --trace 0 a closed-loop saturation block, and the
// blocks give every end-to-end metric; with --trace 1 the same fixed-rate
// block traced, after which the distinct queries of the log are replayed
// through every layer, the spans are written to
// DIR/spans-<workload>-seed<N>.tsv, and the per-layer metrics are computed
// from them. Every reply is checked for correctness; a mismatch fails the
// run. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "loadgen.h"
#include "replay.h"
#include "selftest.h"
#include "stats.h"
#include "system.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 3;
/// Share of the run spent warming up before anything is timed.
constexpr double kWarmupShare = 0.1;
/// Share of each measured block spent at the fixed rate; the rest is the
/// saturation block (traced run: the traced fixed-rate block).
constexpr double kFixedShare = 0.55;
/// Requests a saturation block holds in flight: enough to keep every
/// worker busy, well within the server's 1,024-deep queue.
constexpr size_t kSaturationDepth = 64;

/// One measured block: a fixed-rate block and the block after it.
struct Block {
  /// Share of the CPU time the hypervisor withheld over the block.
  double steal_frac = 0.0;
  std::vector<double> fixed_latency_us;
  /// Latencies of the second block (traced run: the traced fixed-rate
  /// block).
  std::vector<double> second_latency_us;
  /// Reply rates of the saturation block's windows.
  std::vector<double> window_qps;
};

/// Indices of the ceil(n/2) blocks with the least steal (ties: earlier).
std::vector<size_t> LeastStolenHalf(const std::vector<Block>& blocks) {
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&blocks](size_t a, size_t b) {
    return blocks[a].steal_frac < blocks[b].steal_frac;
  });
  order.resize((order.size() + 1) / 2);
  return order;
}

/// Measured blocks in a run of `seconds`: about one per 1.5 s, at least 3.
size_t BlockCount(double seconds) {
  const double blocks = (1.0 - kWarmupShare) * seconds / 1.5;
  return std::max<size_t>(3, static_cast<size_t>(std::lround(blocks)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--workload" && (v = value())) {
      args->workload = v;
    } else if (a == "--seed" && (v = value())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      args->trace = std::string(v) == "1";
    } else if (a == "--trace-dir" && (v = value())) {
      args->trace_dir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// One reported metric, in print order.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    // JSON has no NaN/inf: a metric the workload does not exercise reads 0.
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, unit, value});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Returns freed heap to the kernel and resets the process's peak RSS to
/// its current RSS, so PeakRssMb() then covers only what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// CPU time the hypervisor gave to other guests while this VM had work
/// ("steal" in /proc/stat, all CPUs), in seconds; 0 where not reported.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double PerSecond(uint64_t count, int64_t ns) {
  return ns > 0 ? static_cast<double>(count) * 1e9 / static_cast<double>(ns) : 0.0;
}

/// ingest_docs_per_s: documents the writer adds per second of its own
/// busy time (inside Add and the Delete that follows it), i.e. the rate
/// it would reach flat out; the writer itself runs at a fixed pace.
double IngestDocsPerSecond(const WriterSample& w) {
  return PerSecond(w.adds, static_cast<int64_t>(w.add_ns + w.delete_ns));
}

/// Per-distinct-query values expanded by log occurrence counts, so
/// percentiles and means are over the requests of the log.
std::vector<double> Weighted(const std::vector<double>& per_query,
                             const std::vector<uint32_t>& weight) {
  std::vector<double> out;
  for (size_t q = 0; q < per_query.size(); ++q) {
    out.insert(out.end(), weight[q], per_query[q]);
  }
  return out;
}

std::vector<double> SpanUs(const Tracer& tracer, const char* name, size_t n) {
  std::vector<double> out(n, std::nan(""));
  for (const auto& [request, us] : tracer.ByRequest(name)) {
    if (request < n) out[request] = us;
  }
  return out;
}

std::vector<double> Finite(std::vector<double> v) {
  std::erase_if(v, [](double x) { return !std::isfinite(x); });
  return v;
}

/// p99 of the fixed-rate blocks, robust to one-off host stalls: their
/// pooled samples are cut into consecutive windows of at least 1100 requests (at most 16), each
/// window's p99 is taken (>= 10 samples beyond it), and the median of the
/// window p99s is reported. A stall of a few milliseconds then sinks one
/// window, not the metric; sustained slowness moves every window.
std::optional<double> WindowedP99(const std::vector<double>& latency_us) {
  const size_t windows = std::min<size_t>(16, latency_us.size() / 1100);
  if (windows == 0) return std::nullopt;
  std::vector<double> p99s;
  const size_t size = latency_us.size() / windows;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = latency_us.begin() + static_cast<ptrdiff_t>(w * size);
    const auto end = w + 1 == windows ? latency_us.end() : begin + static_cast<ptrdiff_t>(size);
    const std::optional<double> p = Percentile(std::vector<double>(begin, end), 0.99);
    if (!p) return std::nullopt;
    p99s.push_back(*p);
  }
  return Median(p99s);
}

const char* kClassKeys[] = {"bool_noneg", "bool", "ppred", "npred", "comp"};

void AddPerLayer(Report& report, const System& system, const QueryLog& log,
                 const Tracer& tracer, const ReplayResult& replay,
                 const Accounting& acct, const IngestStats& ingest,
                 const WriterSample& writer, double steal_frac, double compact_ms,
                 const PhaseStats& untraced, double trace_overhead, double build_s,
                 size_t attempted, size_t failed) {
  // The fixed-rate blocks' p99, from the untraced blocks of this run. It is not
  // an end-to-end gate: on a shared host it tracks how often the host
  // preempts the VM (see README), not only the serving path.
  report.Add("latency_p99_us", "us",
             WindowedP99(untraced.latency_us).value_or(std::nan("")));

  const size_t n = log.distinct.size();
  std::vector<uint32_t> weight(n, 0);
  for (uint32_t e : log.entries) ++weight[e];
  const double entries = static_cast<double>(log.entries.size());
  const auto weighted_sum = [&](auto&& per_query) {
    double sum = 0;
    for (size_t q = 0; q < n; ++q) sum += weight[q] * per_query(q);
    return sum;
  };
  const auto per_q = [&](auto&& per_query) { return weighted_sum(per_query) / entries; };

  // lang
  report.Add("lang.parse_us", "us", Median(Weighted(SpanUs(tracer, "lang.parse", n), weight)));
  report.Add("lang.classify_us", "us",
             Median(Weighted(SpanUs(tracer, "lang.classify", n), weight)));
  for (size_t c = 0; c < kNumShapes; ++c) {
    report.Add(std::string("lang.share.") + kClassKeys[c], "ratio", per_q([&](size_t q) {
                 return static_cast<size_t>(replay.classes[q]) == c ? 1.0 : 0.0;
               }));
  }

  // eval
  const std::vector<double> eval_us = SpanUs(tracer, "eval.search", n);
  report.Add("eval.search_p50_us", "us", Median(Weighted(eval_us, weight)));
  report.Add("eval.search_p99_us", "us", PercentileOrNaN(Weighted(eval_us, weight), 0.99));
  for (size_t c = 0; c < kNumShapes; ++c) {
    std::vector<double> cls_us = eval_us;
    for (size_t q = 0; q < n; ++q) {
      if (static_cast<size_t>(replay.classes[q]) != c) cls_us[q] = std::nan("");
    }
    report.Add(std::string("eval.") + kClassKeys[c] + ".p50_us", "us",
               Median(Finite(Weighted(cls_us, weight))));
  }
  const auto counter = [&](auto field) {
    return per_q([&](size_t q) { return static_cast<double>(replay.counters[q].*field); });
  };
  using C = fts::EvalCounters;
  report.Add("eval.entries_decoded_per_q", "count", counter(&C::entries_decoded));
  report.Add("eval.positions_decoded_per_q", "count", counter(&C::positions_decoded));
  report.Add("eval.tuples_per_q", "count", counter(&C::tuples_materialized));
  report.Add("eval.predicate_evals_per_q", "count", counter(&C::predicate_evals));
  const double results = per_q([&](size_t q) { return static_cast<double>(replay.results[q]); });
  const double decoded = counter(&C::entries_decoded);
  report.Add("eval.results_per_kentry", "ratio", decoded > 0 ? 1000.0 * results / decoded : 0.0);
  const double skipped = counter(&C::blocks_skipped_by_score);
  const double blocks = counter(&C::blocks_decoded);
  report.Add("eval.topk_skip_frac", "ratio",
             skipped + blocks > 0 ? skipped / (skipped + blocks) : 0.0);
  report.Add("eval.pair_route_frac", "ratio",
             per_q([&](size_t q) { return replay.counters[q].pair_seeks > 0 ? 1.0 : 0.0; }));
  report.Add("eval.pair_entries_per_q", "count", counter(&C::pair_entries_decoded));
  double fallbacks = 0;
  for (size_t q = 0; q < n; ++q) {
    if (replay.engines[q] == "COMP" && replay.classes[q] != fts::LanguageClass::kComp) {
      ++fallbacks;
    }
  }
  report.Add("eval.comp_fallbacks", "count", fallbacks);

  // index
  report.Add("index.build_s", "s", build_s);
  report.Add("index.blocks", "count", static_cast<double>(system.IndexBlocks()));
  report.Add("index.blocks_decoded_per_q", "count", blocks);
  report.Add("index.simd_groups_per_q", "count", counter(&C::simd_groups_decoded));
  report.Add("index.bitset_ands_per_q", "count", counter(&C::bitset_blocks_intersected));
  const double l1_hits = counter(&C::cache_hits);
  const double l1_misses = counter(&C::cache_misses);
  report.Add("index.l1_hit_rate", "ratio",
             l1_hits + l1_misses > 0 ? l1_hits / (l1_hits + l1_misses) : 0.0);
  const double l2_total = static_cast<double>(acct.l2_hits + acct.l2_misses);
  report.Add("index.l2_hit_rate", "ratio",
             l2_total > 0 ? static_cast<double>(acct.l2_hits) / l2_total : 0.0);
  report.Add("index.l2_resident_mb", "MB", static_cast<double>(acct.l2_resident_bytes) / 1e6);
  report.Add("index.l2_evictions", "count", static_cast<double>(acct.l2_evictions));

  // exec
  const std::vector<double> service_us = SpanUs(tracer, "exec.service", n);
  std::vector<double> exec_self(n);
  for (size_t q = 0; q < n; ++q) exec_self[q] = service_us[q] - eval_us[q];
  report.Add("exec.service_p50_us", "us", Median(Weighted(service_us, weight)));
  report.Add("exec.self_p50_us", "us", Median(Weighted(exec_self, weight)));
  report.Add("exec.peak_queue_depth", "count", static_cast<double>(acct.peak_queue_depth));
  report.Add("exec.rejected", "count", static_cast<double>(acct.rejected));
  report.Add("exec.failed", "count", static_cast<double>(acct.failed));
  report.Add("exec.shed", "count", static_cast<double>(acct.shed));

  // ingest + text
  report.Add("ingest_docs_per_s", "docs/s", IngestDocsPerSecond(writer));
  report.Add("ingest.add_p50_us", "us", Median(ingest.add_us));
  report.Add("ingest.add_p99_us", "us", PercentileOrNaN(ingest.add_us, 0.99));
  report.Add("ingest.seal_p50_ms", "ms", Median(ingest.seal_ms));
  report.Add("ingest.delete_p50_us", "us", Median(ingest.delete_us));
  report.Add("ingest.segments_max", "count", static_cast<double>(ingest.segments_max));
  report.Add("ingest.generations_per_s", "1/s", PerSecond(writer.generation, writer.ns));
  report.Add("ingest.add_docs_per_s", "docs/s",
             PerSecond(writer.adds, static_cast<int64_t>(writer.add_ns)));
  report.Add("ingest.compact_ms", "ms", compact_ms);
  std::vector<double> tokenize;
  for (const Span& s : tracer.Named("text.tokenize")) tokenize.push_back(s.us());
  report.Add("text.tokenize_us_per_doc", "us", Mean(tokenize));

  // net
  std::vector<double> ping;
  for (const Span& s : tracer.Named("net.ping")) ping.push_back(s.us());
  report.Add("net.ping_p50_us", "us", Median(ping));
  const std::vector<double> roundtrip = SpanUs(tracer, "net.roundtrip", n);
  const std::vector<double> routed = SpanUs(tracer, "router.search", n);
  std::vector<double> net_self(n);
  for (size_t q = 0; q < n; ++q) {
    net_self[q] = roundtrip[q] - service_us[q];
  }
  report.Add("net.roundtrip_p50_us", "us", Median(Finite(Weighted(roundtrip, weight))));
  report.Add("net.self_p50_us", "us", Median(Finite(Weighted(net_self, weight))));
  report.Add("net.encode_us", "us", Mean(Weighted(SpanUs(tracer, "net.encode", n), weight)));
  report.Add("net.decode_us", "us", Mean(Weighted(SpanUs(tracer, "net.decode", n), weight)));
  report.Add("net.response_bytes", "bytes", per_q([&](size_t q) {
               return static_cast<double>(replay.response_bytes[q]);
             }));
  report.Add("net.protocol_errors", "count", static_cast<double>(acct.protocol_errors));

  // router
  const std::vector<double> shard0 = SpanUs(tracer, "router.shard0", n);
  const std::vector<double> shard1 = SpanUs(tracer, "router.shard1", n);
  std::vector<double> router_self(n), skew(n);
  for (size_t q = 0; q < n; ++q) {
    router_self[q] = routed[q] - std::max(shard0[q], shard1[q]);
    skew[q] = std::fabs(shard0[q] - shard1[q]);
  }
  report.Add("router.search_p50_us", "us", Median(Finite(Weighted(routed, weight))));
  report.Add("router.self_p50_us", "us", Median(Finite(Weighted(router_self, weight))));
  report.Add("router.shard_skew_p50_us", "us", Median(Finite(Weighted(skew, weight))));
  report.Add("router.stats_exchange_ms", "ms", system.stats_exchange_ms());
  report.Add("router.failed", "count", static_cast<double>(system.RouterFailed()));

  // loadgen
  report.Add("loadgen.lag_p99_us", "us", PercentileOrNaN(untraced.lag_us, 0.99));
  report.Add("loadgen.backlog_max", "count", static_cast<double>(untraced.backlog_max));
  report.Add("loadgen.error_frac", "ratio",
             attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  report.Add("loadgen.host_steal_frac", "ratio", steal_frac);
  report.Add("trace.overhead_frac", "ratio", trace_overhead);
}

void PrintWriter(const WriterSample& w) {
  std::printf("  %-14s %.2f s  adds %" PRIu64 "  deletes %" PRIu64 "  seals %" PRIu64
              "  merges %" PRIu64 "  generations %" PRIu64 "  segments at end %zu  "
              "in Add %.1f ms  in Delete %.1f ms\n",
              "writer", static_cast<double>(w.ns) / 1e9, w.adds, w.deletes, w.seals, w.merges,
              w.generation, w.segments, static_cast<double>(w.add_ns) / 1e6,
              static_cast<double>(w.delete_ns) / 1e6);
}

void PrintPhase(const char* label, const PhaseStats& s) {
  std::printf("  %-14s rate %8.1f qps  n %6zu  p50 %9.1f us  p99 %9.1f us  "
              "failed %zu  lag_p99 %7.1f us  backlog_max %zu\n",
              label, s.rate_qps, s.attempted, Median(s.latency_us),
              PercentileOrNaN(s.latency_us, 0.99), s.failed,
              PercentileOrNaN(s.lag_us, 0.99), s.backlog_max);
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double S = args.seconds;
  std::printf("workload %s  seed %" PRIu64 "  seconds %.0f  trace %d\n", config->name,
              args.seed, S, args.trace ? 1 : 0);

  const QueryLog log = BuildLog(config->mix, args.seed);
  const std::vector<double> mix = ShapeMix(log);
  std::printf("log: %zu entries, %zu distinct, hash %016" PRIx64 ", mix", log.entries.size(),
              log.distinct.size(), LogHash(log));
  for (size_t c = 0; c < kNumShapes; ++c) {
    std::printf(" %s=%.3f", ShapeName(static_cast<QueryShape>(c)), mix[c]);
  }
  std::printf("\n");

  // Set-up runs kSetupRuns times (the traced run: once) and reports the
  // median. The first instance, started in a fresh process, serves the
  // load; the others are started and torn down after it, so they time
  // set-up without leaving freed memory behind for the serving instance.
  // rss_mb is the peak RSS while the serving instance serves the load: the
  // peak is reset once its set-up is done and the expected answers are
  // computed, so neither the oracle nor set-up's transient memory (corpus
  // generation, index build, ingest_live's bulk load and its merges)
  // counts. The set-up peak is printed with each set-up.
  std::vector<double> setup_s, build_s;
  const auto start_instance = [&]() -> std::unique_ptr<System> {
    const Clock::time_point t = Clock::now();
    auto instance = std::make_unique<System>(*config, args.seed);
    if (const fts::Status s = instance->Start(); !s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return nullptr;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
    build_s.push_back(instance->build_seconds());
    std::printf("setup: %.3f s (build %.3f s), index %.1f MB, %zu blocks, peak RSS %.1f MB\n",
                setup_s.back(), build_s.back(), instance->IndexMb(),
                instance->IndexBlocks(), PeakRssMb());
    return instance;
  };
  std::unique_ptr<System> system = start_instance();
  if (system == nullptr) return 1;
  {
    fts::StatusOr<std::vector<uint64_t>> answers = system->ExpectedAnswers(log);
    if (!answers.ok()) {
      std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
      return 1;
    }
    system->SetExpected(*std::move(answers));
  }
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS\n");
    return 1;
  }

  const Checker check = [&system](uint32_t id, const Reply& r) {
    return system->Check(id, r);
  };
  size_t cursor = 0;
  size_t attempted = 0, failed = 0, mismatched = 0;
  std::string first_mismatch;
  const auto tally = [&](const PhaseStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    mismatched += s.mismatched;
    if (first_mismatch.empty()) first_mismatch = s.first_mismatch;
  };

  system->StartWriter(args.trace);
  const Accounting before = system->ReadAccounting();
  // Warm-up: caches fill and lazy set-up finishes before anything is
  // timed.
  tally(RunOpenLoop(*system, log, &cursor, config->offered_qps, kWarmupShare * S, check,
                    nullptr));

  // The measured time is cut into blocks, each a fixed-rate block followed
  // by a saturation block (traced run: an untraced then a traced
  // fixed-rate block), so every figure samples the whole run rather than
  // one stretch of it. The hypervisor withholds CPU from this VM in
  // spells of a few seconds ("steal" in /proc/stat, read per block), and
  // a block it hit measures the host more than the program: the
  // latency and throughput figures pool the half of the blocks with the
  // least steal.
  const size_t blocks = BlockCount(S);
  const double block_s = (1.0 - kWarmupShare) * S / static_cast<double>(blocks);
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  PhaseStats fixed, second;
  std::vector<Block> block_stats;
  WriterSample writer;
  Tracer tracer;
  for (size_t b = 0; b < blocks; ++b) {
    Block block;
    const WriterSample writer_start = system->SampleWriter();
    const double steal_start = StealSeconds();
    PhaseStats f = RunOpenLoop(*system, log, &cursor, config->offered_qps,
                               kFixedShare * block_s, check, nullptr);
    writer = Plus(writer, Since(writer_start, system->SampleWriter()));
    tally(f);
    block.fixed_latency_us = f.latency_us;
    Append(fixed, std::move(f));
    PhaseStats s = args.trace ? RunOpenLoop(*system, log, &cursor, config->offered_qps,
                                            kFixedShare * block_s, check, &tracer)
                              : RunClosedLoop(*system, log, &cursor, kSaturationDepth,
                                              (1.0 - kFixedShare) * block_s, check);
    block.steal_frac = (StealSeconds() - steal_start) / (block_s * cpus);
    tally(s);
    block.second_latency_us = s.latency_us;
    block.window_qps = s.window_qps;
    Append(second, std::move(s));
    block_stats.push_back(std::move(block));
  }
  const std::vector<size_t> quiet = LeastStolenHalf(block_stats);
  // Pooled over the least-stolen blocks.
  std::vector<double> quiet_fixed_us, quiet_second_us, quiet_window_qps;
  double steal_frac = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    const Block& block = block_stats[b];
    const bool used = std::find(quiet.begin(), quiet.end(), b) != quiet.end();
    if (used) {
      const auto pool = [](std::vector<double>& into, const std::vector<double>& from) {
        into.insert(into.end(), from.begin(), from.end());
      };
      pool(quiet_fixed_us, block.fixed_latency_us);
      pool(quiet_second_us, block.second_latency_us);
      quiet_window_qps.insert(quiet_window_qps.end(), block.window_qps.begin(),
                              block.window_qps.end());
    }
    steal_frac += block.steal_frac / static_cast<double>(blocks);
    std::printf("  block %2zu %s host steal %.4f  fixed p50 %8.1f us  %s %9.1f\n", b,
                used ? "*" : " ", block.steal_frac, Median(block.fixed_latency_us),
                args.trace ? "traced p50 (us)" : "saturation qps",
                args.trace ? Median(block.second_latency_us) : Mean(block.window_qps));
  }
  PrintPhase("fixed", fixed);
  PrintPhase(args.trace ? "fixed traced" : "saturation", second);
  std::printf("  %-14s %.4f of the CPU time over all blocks (* = used)\n", "host steal",
              steal_frac);
  if (config->system == SystemKind::kIngest) PrintWriter(writer);
  if (!WindowedP99(fixed.latency_us)) {
    std::printf("fixed-rate blocks too short for a p99 (%zu samples)\n", fixed.attempted);
    return 1;
  }
  // Peak RSS while serving the load (a saturation block holds
  // kSaturationDepth requests in flight).
  const double rss_mb = PeakRssMb();
  // max_qps_slo: the mean reply rate of the least-stolen saturation
  // blocks' windows, provided the saturation blocks met the workload's p99 limit
  // (failures count as missing it).
  double max_qps = 0.0;
  if (!args.trace) {
    const std::optional<double> p99 = WindowedP99(second.latency_us);
    if (second.failed == 0 && p99 && *p99 <= config->latency_limit_us) {
      max_qps = Mean(quiet_window_qps);
    } else {
      std::printf("saturation blocks missed the p99 limit of %.0f us\n",
                  config->latency_limit_us);
    }
  }
  const IngestStats ingest = system->StopWriter();
  const Accounting after = system->ReadAccounting();

  // Accounting cross-check: every attempt the loadgen made must show up
  // server-side as completed, failed, shed or rejected.
  const uint64_t seen = after.attempts_seen() - before.attempts_seen();
  bool correct = true;
  if (seen != attempted) {
    std::printf("ACCOUNTING MISMATCH: loadgen attempted %zu, server saw %" PRIu64 "\n",
                attempted, seen);
    correct = false;
  }
  if (mismatched > 0) {
    std::printf("CORRECTNESS MISMATCH: %zu replies differ, first: %s\n", mismatched,
                first_mismatch.c_str());
    correct = false;
  }
  double compact_ms = 0.0;
  if (config->system == SystemKind::kIngest) {
    const fts::Status s = system->FinalIngestCheck(log);
    if (!s.ok()) {
      std::printf("INGEST CHECK FAILED: %s\n", s.ToString().c_str());
      correct = false;
    }
    if (args.trace) compact_ms = system->CompactMs();
  }
  const double index_mb = system->IndexMb();

  Report report;
  // End-to-end figures printed with the untraced run's table but not
  // gated (see README, "End-to-end metrics").
  Report ungated;
  if (args.trace) {
    if (config->shard_replay) {
      if (const fts::Status s = system->StartShards(); !s.ok()) {
        std::fprintf(stderr, "shard set-up failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const ReplayResult replay = Replay(*system, log, tracer);
    if (replay.mismatches > 0) {
      std::printf("REPLAY MISMATCH: %zu, first: %s\n", replay.mismatches,
                  replay.first_mismatch.c_str());
      correct = false;
    }
    Accounting delta = after;
    delta.completed -= before.completed;
    delta.failed -= before.failed;
    delta.shed -= before.shed;
    delta.rejected -= before.rejected;
    AddPerLayer(report, *system, log, tracer, replay, delta, ingest, writer, steal_frac,
                compact_ms, fixed, Median(quiet_second_us) / Median(quiet_fixed_us) - 1.0,
                Median(build_s), attempted, failed);
    const std::string path = args.trace_dir + "/spans-" + config->name + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  } else {
    system.reset();
    for (int r = 1; r < kSetupRuns; ++r) {
      if (start_instance() == nullptr) return 1;
    }
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("latency_p50_us", "us", Median(quiet_fixed_us));
    report.Add("max_qps_slo", "qps", max_qps);
    report.Add("rss_mb", "MB", rss_mb);
    report.Add("index_mb", "MB", index_mb);
    ungated.Add("latency_p99_us", "us", WindowedP99(fixed.latency_us).value_or(std::nan("")));
    ungated.Add("error_frac", "ratio",
                static_cast<double>(failed) / static_cast<double>(attempted));
    if (config->system == SystemKind::kIngest) {
      ungated.Add("ingest_docs_per_s", "docs/s", IngestDocsPerSecond(writer));
    }
  }
  system.reset();

  std::printf("\n%zu failed of %zu attempted\n", failed, attempted);
  std::printf("%-32s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : report.metrics()) {
    std::printf("%-32s %14.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : ungated.metrics()) {
    std::printf("%-32s %14.4f  %s (not gated)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fts_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  const std::string failure = perfbench::RunSelfTests();
  if (!failure.empty()) {
    std::fprintf(stderr, "self-test failed: %s\n", failure.c_str());
    return 3;
  }
  std::printf("self-tests passed\n");
  return perfbench::Run(args);
}
