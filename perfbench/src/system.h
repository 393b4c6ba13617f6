// The system under test of each workload, started in-process: loopback
// FtsServer (serve_*), or IngestService + SearchService with a writer
// (ingest_live). Besides serving load, a System exposes the layer entry
// points the traced replay calls (with StartShards, also a ShardRouter
// over two FtsServer shards) and the server-side accounting the load
// phases are reconciled against.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "eval/searcher.h"
#include "exec/ingest_service.h"
#include "exec/search_service.h"
#include "index/inverted_index.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "text/corpus.h"
#include "workload.h"

namespace perfbench {

inline constexpr int kSystemNice = 5;

/// Counts as the serving side saw them.
struct Accounting {
  uint64_t completed = 0;  ///< evaluated OK
  uint64_t failed = 0;
  uint64_t shed = 0;       ///< admission-control refusals
  uint64_t rejected = 0;   ///< full-queue or post-shutdown refusals
  uint64_t peak_queue_depth = 0;
  uint64_t protocol_errors = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t l2_evictions = 0;
  uint64_t l2_resident_bytes = 0;

  uint64_t attempts_seen() const { return completed + failed + shed + rejected; }
};

/// Running totals of the ingest_live writer, sampled at block boundaries
/// so every figure covers exactly the blocks it is summed over.
struct WriterSample {
  int64_t ns = 0;           ///< NowNs() when sampled
  uint64_t adds = 0;        ///< IngestService::Add calls completed
  uint64_t add_ns = 0;      ///< time spent inside those Add calls
  uint64_t deletes = 0;     ///< IngestService::Delete calls completed
  uint64_t delete_ns = 0;   ///< time spent inside those Delete calls
  uint64_t seals = 0;       ///< Adds that published a generation
  uint64_t merges = 0;      ///< compactions seen (segment count fell)
  uint64_t generation = 0;  ///< published generation
  size_t segments = 0;      ///< segments of the published generation
};

/// The writer's work between two samples (ns = elapsed time).
WriterSample Since(const WriterSample& start, const WriterSample& end);
/// Two spans of the writer's work added (segments: the later's).
WriterSample Plus(const WriterSample& a, const WriterSample& b);

/// Per-operation figures of the ingest_live writer (the timings are
/// recorded only in the traced run).
struct IngestStats {
  size_t segments_max = 0;
  std::vector<double> add_us;
  std::vector<double> seal_ms;    ///< Adds that published a generation
  std::vector<double> delete_us;
};

class System : public Target {
 public:
  System(const WorkloadConfig& config, uint64_t seed) : config_(config), seed_(seed) {}
  ~System() override;

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Generates the corpus, builds the index(es), and starts serving until
  /// a first request can be sent. This is what setup_s times. Every thread
  /// the system starts (servers, workers, client readers, merger, writer)
  /// runs at nice +kSystemNice, so on a small box the load generator's
  /// schedule and timestamps are not delayed behind the system's own
  /// threads.
  fts::Status Start();

  /// The expected answer of every distinct query as an AnswerHash, from
  /// an in-process Searcher over the served snapshot. Not part of set-up.
  /// Empty for ingest_live.
  fts::StatusOr<std::vector<uint64_t>> ExpectedAnswers(const QueryLog& log);
  void SetExpected(std::vector<uint64_t> hashes) { expected_ = std::move(hashes); }

  /// Bit-identity against the expected answers (node ids + score bits).
  /// Under live ingestion the corpus moves, so only the reply's shape is
  /// checked here and FinalIngestCheck compares exactly after Refresh.
  bool Check(uint32_t id, const Reply& reply) const;

  size_t lanes() const override { return kLanes; }
  Waiter Send(size_t lane, const LogQuery& query) override;

  Accounting ReadAccounting() const;

  /// InvertedIndex::MemoryUsage over every served segment/shard.
  double IndexMb() const;
  size_t IndexBlocks() const;
  /// Median-free build time of the last Start() (all index builds).
  double build_seconds() const { return build_seconds_; }

  // --- serve_*: the shard replay (traced run, after the load) -----------
  /// Splits the corpus into two Corpus::Slice halves, serves each from
  /// its own FtsServer, and connects a ShardRouter to them with global
  /// stats exchanged, so routed answers equal the unsplit index's.
  fts::Status StartShards();
  double stats_exchange_ms() const { return stats_exchange_ms_; }
  /// Queries the router failed (its own tally).
  uint64_t RouterFailed() const;

  // --- ingest_live ------------------------------------------------------
  void StartWriter(bool record_ops);
  IngestStats StopWriter();
  WriterSample SampleWriter() const;
  /// Refresh, then compare SearchService against a Searcher over the
  /// same snapshot for every distinct query; requires merger_status OK.
  fts::Status FinalIngestCheck(const QueryLog& log);
  /// Times a full Compact() (after FinalIngestCheck).
  double CompactMs();
  const std::vector<std::string>& texts() const { return texts_; }

  // --- layer entry points for the replay --------------------------------
  std::shared_ptr<const fts::IndexSnapshot> ReplaySnapshot() const;
  fts::SearcherOptions searcher_options() const;
  fts::SearchService* ReplayService();
  /// Client to the FtsServer; null for ingest_live.
  fts::net::FtsClient* ReplayClient();
  /// Direct clients to each shard (after StartShards).
  std::vector<fts::net::FtsClient*> ShardClients();
  fts::net::ShardRouter* router() { return router_.get(); }

  const WorkloadConfig& config() const { return config_; }

 private:
  fts::Status StartServe(fts::Corpus corpus);
  fts::Status StartIngest(const fts::Corpus& corpus);
  fts::Status ConnectClients(uint16_t port);
  fts::SearchService::Options ServiceOptions() const;
  void WriterLoop(bool record_ops);

  const WorkloadConfig config_;
  const uint64_t seed_;
  double build_seconds_ = 0.0;
  double stats_exchange_ms_ = 0.0;

  // serve_*: one index behind one server.
  std::shared_ptr<const fts::InvertedIndex> index_;
  std::unique_ptr<fts::net::FtsServer> server_;
  // The shard replay: two shards and the router over them.
  std::vector<std::shared_ptr<const fts::InvertedIndex>> shard_indexes_;
  std::vector<std::unique_ptr<fts::net::FtsServer>> shard_servers_;
  std::unique_ptr<fts::net::ShardRouter> router_;
  // ingest_live.
  std::vector<std::string> texts_;
  std::unique_ptr<fts::IngestService> ingest_;
  std::unique_ptr<fts::SearchService> service_;

  std::vector<std::unique_ptr<fts::net::FtsClient>> clients_;
  std::unique_ptr<fts::net::FtsClient> replay_client_;
  std::vector<std::unique_ptr<fts::net::FtsClient>> shard_clients_;
  std::unique_ptr<fts::SearchService> replay_service_;

  std::vector<uint64_t> expected_;

  std::atomic<bool> writer_stop_{false};
  IngestStats writer_stats_;
  std::atomic<uint64_t> writer_adds_{0};
  std::atomic<uint64_t> writer_add_ns_{0};
  std::atomic<uint64_t> writer_deletes_{0};
  std::atomic<uint64_t> writer_delete_ns_{0};
  std::atomic<uint64_t> writer_seals_{0};
  std::atomic<uint64_t> writer_merges_{0};
  std::thread writer_;
};

/// Converts a RoutedResult / wire response into a Reply.
Reply ToReply(fts::StatusOr<fts::RoutedResult> result);
Reply ToReply(fts::StatusOr<fts::net::SearchResponse> response);
/// Node ids equal and score bit patterns equal.
bool SameAnswer(const Reply& a, const Reply& b);
/// FNV-1a over the node ids and score bits: equal for answers SameAnswer
/// accepts.
uint64_t AnswerHash(const Reply& reply);

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
