#include "system.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "common/fnv.h"
#include "common/rng.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/pair_index.h"
#include "stats.h"
#include "workload/corpus_gen.h"

namespace perfbench {

using fts::Status;
using fts::StatusOr;
using fts::net::FtsClient;
using fts::net::FtsServer;

namespace {

constexpr auto kReplyTimeout = std::chrono::seconds(30);
/// ingest_live: documents loaded at set-up (the live size the writer's
/// deletes hold steady) and the seal size.
constexpr size_t kIngestLiveDocs = 6000;
/// Pace of the ingest_live writer: Add+Delete pairs per second, about half
/// of what it manages flat out (each Delete publishes a generation), so
/// every run applies the same write load whatever CPU the host lends it.
constexpr double kWriterPairsPerSecond = 10.0;
constexpr size_t kIngestSealDocs = 256;
/// SearchService workers of each replay shard.
constexpr size_t kShardWorkers = 2;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Value of `key` in a /metrics body (0 when absent).
uint64_t MetricValue(const std::string& text, const std::string& key) {
  size_t pos = 0;
  while ((pos = text.find(key + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtoull(text.c_str() + pos + key.size() + 1, nullptr, 10);
    }
    pos += key.size();
  }
  return 0;
}

/// Renders a generated document back to text the tokenizer reproduces:
/// '.' closes sentences and a blank line closes paragraphs.
std::string RenderText(const fts::Corpus& corpus, const fts::TokenizedDocument& doc) {
  std::string out;
  for (size_t i = 0; i < doc.size(); ++i) {
    if (i > 0) {
      const fts::PositionInfo& prev = doc.positions[i - 1];
      const fts::PositionInfo& cur = doc.positions[i];
      out += cur.paragraph != prev.paragraph ? ".\n\n"
             : cur.sentence != prev.sentence ? ". "
                                             : " ";
    }
    out += corpus.token_text(doc.tokens[i]);
  }
  return out;
}

size_t CountBlocks(const fts::InvertedIndex& index) {
  size_t blocks = index.block_any_list().num_blocks();
  for (fts::TokenId t = 0; t < index.vocabulary_size(); ++t) {
    if (const fts::BlockPostingList* list = index.block_list(t)) {
      blocks += list->num_blocks();
    }
  }
  if (const fts::PairIndex* pairs = index.pair_index()) {
    for (size_t i = 0; i < pairs->num_keys(); ++i) {
      blocks += pairs->list(i).num_blocks();
    }
  }
  return blocks;
}

/// Raises the calling thread's nice value by kSystemNice (always
/// permitted; failure only leaves the default priority).
void LowerThreadPriority() {
  const pid_t tid = static_cast<pid_t>(syscall(SYS_gettid));
  errno = 0;
  const int current = getpriority(PRIO_PROCESS, static_cast<id_t>(tid));
  if (errno == 0) {
    (void)setpriority(PRIO_PROCESS, static_cast<id_t>(tid), current + kSystemNice);
  }
}

}  // namespace

Reply ToReply(StatusOr<fts::RoutedResult> result) {
  Reply out;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.nodes.assign(result->result.nodes.begin(), result->result.nodes.end());
  out.scores = std::move(result->result.scores);
  return out;
}

Reply ToReply(StatusOr<fts::net::SearchResponse> response) {
  Reply out;
  if (!response.ok()) {
    out.status = response.status();
    return out;
  }
  out.status = response->status;
  out.nodes = std::move(response->nodes);
  out.scores = std::move(response->scores);
  return out;
}

bool SameAnswer(const Reply& a, const Reply& b) {
  return a.nodes == b.nodes && a.scores.size() == b.scores.size() &&
         (a.scores.empty() ||
          std::memcmp(a.scores.data(), b.scores.data(),
                      a.scores.size() * sizeof(double)) == 0);
}

uint64_t AnswerHash(const Reply& reply) {
  const auto bytes = [](const auto& v) {
    return std::string_view(reinterpret_cast<const char*>(v.data()),
                            v.size() * sizeof(v[0]));
  };
  const uint64_t sizes[2] = {reply.nodes.size(), reply.scores.size()};
  uint64_t h = fts::Fnv1aAccumulate(fts::kFnv1aSeed,
                                    std::string_view(reinterpret_cast<const char*>(sizes),
                                                     sizeof(sizes)));
  h = fts::Fnv1aAccumulate(h, bytes(reply.nodes));
  return fts::Fnv1aAccumulate(h, bytes(reply.scores));
}

System::~System() {
  (void)StopWriter();
  // Clients first, then the servers they talk to.
  clients_.clear();
  replay_client_.reset();
  shard_clients_.clear();
  router_.reset();
  for (auto& s : shard_servers_) s->Stop();
  if (server_) server_->Stop();
  replay_service_.reset();
  service_.reset();
  ingest_.reset();
}

fts::SearchService::Options System::ServiceOptions() const {
  fts::SearchService::Options options;
  options.num_workers = config_.workers;
  options.scoring = config_.scoring;
  options.mode = fts::CursorMode::kAdaptive;
  return options;
}

fts::SearcherOptions System::searcher_options() const {
  fts::SearcherOptions options;
  options.scoring = config_.scoring;
  options.mode = fts::CursorMode::kAdaptive;
  return options;
}

Status System::Start() {
  // Threads inherit their creator's nice value: start everything from a
  // thread that lowered its own priority first.
  Status status;
  std::thread starter([this, &status] {
    LowerThreadPriority();
    fts::Corpus corpus = fts::GenerateCorpus(CorpusOptions(seed_));
    switch (config_.system) {
      case SystemKind::kServe:
        status = StartServe(std::move(corpus));
        break;
      case SystemKind::kIngest:
        status = StartIngest(corpus);
        break;
    }
  });
  starter.join();
  return status;
}

Status System::ConnectClients(uint16_t port) {
  const auto make = [port] {
    FtsClient::Options options;
    options.port = port;
    return std::make_unique<FtsClient>(options);
  };
  for (size_t i = 0; i < kLanes; ++i) {
    clients_.push_back(make());
    FTS_RETURN_IF_ERROR(clients_.back()->Ping().status());
  }
  replay_client_ = make();
  return replay_client_->Ping().status();
}

Status System::StartServe(fts::Corpus corpus) {
  fts::IndexBuildOptions build;
  build.pairs.frequent_terms = config_.pair_terms;
  build.pairs.max_distance = kPairDistance;
  const Clock::time_point t = Clock::now();
  index_ = std::make_shared<const fts::InvertedIndex>(
      fts::IndexBuilder::Build(corpus, build));
  build_seconds_ = SecondsSince(t);
  FtsServer::Options options;
  options.name = config_.name;
  options.service = ServiceOptions();
  server_ = std::make_unique<FtsServer>(index_, options);
  FTS_RETURN_IF_ERROR(server_->Start());
  return ConnectClients(server_->port());
}

Status System::StartShards() {
  Status status;
  std::thread starter([this, &status] {
    LowerThreadPriority();
    const fts::Corpus corpus = fts::GenerateCorpus(CorpusOptions(seed_));
    const fts::NodeId half = static_cast<fts::NodeId>(corpus.num_nodes() / 2);
    const fts::NodeId bounds[3] = {0, half, static_cast<fts::NodeId>(corpus.num_nodes())};
    fts::net::ShardRouter::Options router_options;
    for (int s = 0; s < 2; ++s) {
      StatusOr<fts::Corpus> slice = corpus.Slice(bounds[s], bounds[s + 1]);
      if (!slice.ok()) {
        status = slice.status();
        return;
      }
      shard_indexes_.push_back(std::make_shared<const fts::InvertedIndex>(
          fts::IndexBuilder::Build(*slice)));
      FtsServer::Options options;
      options.name = std::string(config_.name) + "-shard" + std::to_string(s);
      options.service = ServiceOptions();
      options.service.num_workers = kShardWorkers;
      shard_servers_.push_back(std::make_unique<FtsServer>(shard_indexes_.back(), options));
      if (status = shard_servers_.back()->Start(); !status.ok()) return;
      router_options.shards.push_back({"127.0.0.1", shard_servers_.back()->port()});
    }
    router_ = std::make_unique<fts::net::ShardRouter>(router_options);
    if (status = router_->Connect(); !status.ok()) return;
    const Clock::time_point t = Clock::now();
    if (status = router_->ExchangeGlobalStats(); !status.ok()) return;
    stats_exchange_ms_ = SecondsSince(t) * 1e3;
    for (const auto& server : shard_servers_) {
      FtsClient::Options options;
      options.port = server->port();
      shard_clients_.push_back(std::make_unique<FtsClient>(options));
      if (status = shard_clients_.back()->Ping().status(); !status.ok()) return;
    }
  });
  starter.join();
  return status;
}

uint64_t System::RouterFailed() const {
  return router_ ? MetricValue(router_->MetricsText(), "fts_router_queries_failed") : 0;
}

Status System::StartIngest(const fts::Corpus& corpus) {
  texts_.reserve(corpus.num_nodes());
  for (fts::NodeId n = 0; n < corpus.num_nodes(); ++n) {
    texts_.push_back(RenderText(corpus, corpus.doc(n)));
  }
  fts::IngestService::Options options;
  options.max_buffered_docs = kIngestSealDocs;
  options.merge_factor = 8;
  ingest_ = std::make_unique<fts::IngestService>(options);
  const Clock::time_point t = Clock::now();
  for (size_t i = 0; i < kIngestLiveDocs; ++i) {
    FTS_RETURN_IF_ERROR(ingest_->Add(texts_[i]).status());
  }
  // Start every run from the same state: one compacted segment, no
  // background merge in flight.
  FTS_RETURN_IF_ERROR(ingest_->Refresh());
  FTS_RETURN_IF_ERROR(ingest_->Compact());
  build_seconds_ = SecondsSince(t);
  service_ = std::make_unique<fts::SearchService>(ingest_.get(), ServiceOptions());
  return Status::OK();
}

StatusOr<std::vector<uint64_t>> System::ExpectedAnswers(const QueryLog& log) {
  std::vector<uint64_t> out;
  if (config_.system == SystemKind::kIngest) return out;
  fts::Searcher searcher(ReplaySnapshot(), searcher_options());
  fts::ExecContext ctx;
  out.reserve(log.distinct.size());
  for (const LogQuery& q : log.distinct) {
    ctx.set_top_k(q.top_k);
    const Reply r = ToReply(searcher.Search(q.text, ctx));
    if (!r.status.ok()) {
      return Status(r.status.code(), "oracle failed on " + q.text + ": " +
                                         r.status.message());
    }
    out.push_back(AnswerHash(r));
  }
  return out;
}

bool System::Check(uint32_t id, const Reply& reply) const {
  if (config_.system != SystemKind::kIngest) {
    return id < expected_.size() && AnswerHash(reply) == expected_[id];
  }
  // Live corpus: ranked shape only (k best, score desc, ties by id asc).
  if (reply.scores.size() != reply.nodes.size()) return false;
  for (size_t i = 1; i < reply.nodes.size(); ++i) {
    const double a = reply.scores[i - 1];
    const double b = reply.scores[i];
    if (a < b || (a == b && reply.nodes[i - 1] >= reply.nodes[i])) return false;
  }
  return true;
}

Target::Waiter System::Send(size_t lane, const LogQuery& query) {
  if (config_.system == SystemKind::kIngest) {
    // Submit blocks on a full queue, the same back-pressure a server
    // connection applies; the stall shows as sender lag and latency.
    auto future = std::make_shared<std::future<StatusOr<fts::RoutedResult>>>(
        service_->Submit(query.text, query.top_k));
    return [future] {
      if (future->wait_for(kReplyTimeout) != std::future_status::ready) {
        Reply r;
        r.status = Status::DeadlineExceeded("no reply within 30 s");
        return r;
      }
      return ToReply(future->get());
    };
  }
  fts::net::SearchRequest req;
  req.query = query.text;
  req.top_k = query.top_k;
  auto future = std::make_shared<std::future<StatusOr<fts::net::SearchResponse>>>(
      clients_[lane]->SearchAsync(std::move(req)));
  return [future] {
    if (future->wait_for(kReplyTimeout) != std::future_status::ready) {
      Reply r;
      r.status = Status::DeadlineExceeded("no reply within 30 s");
      return r;
    }
    return ToReply(future->get());
  };
}

Accounting System::ReadAccounting() const {
  Accounting a;
  const auto add_service = [&a](const fts::SearchService& service) {
    const fts::ServiceMetricsSnapshot m = service.metrics();
    a.completed += m.completed;
    a.failed += m.failed;
    a.rejected += m.rejected;
    a.peak_queue_depth = std::max<uint64_t>(a.peak_queue_depth, m.peak_queue_depth);
    if (const fts::SharedBlockCache* l2 = service.shared_cache()) {
      const fts::SharedBlockCache::Stats s = l2->stats();
      a.l2_hits += s.hits;
      a.l2_misses += s.misses;
      a.l2_evictions += s.evictions;
      a.l2_resident_bytes += s.resident_bytes;
    }
  };
  const auto add_server = [&](const FtsServer& server) {
    add_service(server.service());
    const std::string text = server.MetricsText();
    a.shed += MetricValue(text, "fts_queries_shed");
    a.protocol_errors += MetricValue(text, "fts_protocol_errors");
  };
  switch (config_.system) {
    case SystemKind::kServe:
      add_server(*server_);
      break;
    case SystemKind::kIngest:
      add_service(*service_);
      break;
  }
  return a;
}

double System::IndexMb() const {
  size_t bytes = 0;
  switch (config_.system) {
    case SystemKind::kServe:
      bytes = index_->MemoryUsage();
      break;
    case SystemKind::kIngest:
      for (const fts::SegmentView& seg : ingest_->snapshot()->segments()) {
        bytes += seg.index->MemoryUsage();
      }
      break;
  }
  return static_cast<double>(bytes) / 1e6;
}

size_t System::IndexBlocks() const {
  size_t blocks = 0;
  switch (config_.system) {
    case SystemKind::kServe:
      return CountBlocks(*index_);
    case SystemKind::kIngest:
      for (const fts::SegmentView& seg : ingest_->snapshot()->segments()) {
        blocks += CountBlocks(*seg.index);
      }
      return blocks;
  }
  return 0;
}

void System::StartWriter(bool record_ops) {
  if (config_.system != SystemKind::kIngest || writer_.joinable()) return;
  writer_stop_.store(false);
  writer_stats_ = IngestStats{};
  writer_ = std::thread([this, record_ops] { WriterLoop(record_ops); });
}

IngestStats System::StopWriter() {
  if (!writer_.joinable()) return {};
  writer_stop_.store(true);
  writer_.join();
  return std::move(writer_stats_);
}

WriterSample Since(const WriterSample& start, const WriterSample& end) {
  WriterSample d;
  d.ns = end.ns - start.ns;
  d.adds = end.adds - start.adds;
  d.add_ns = end.add_ns - start.add_ns;
  d.deletes = end.deletes - start.deletes;
  d.delete_ns = end.delete_ns - start.delete_ns;
  d.seals = end.seals - start.seals;
  d.merges = end.merges - start.merges;
  d.generation = end.generation - start.generation;
  d.segments = end.segments;
  return d;
}

WriterSample Plus(const WriterSample& a, const WriterSample& b) {
  WriterSample s;
  s.ns = a.ns + b.ns;
  s.adds = a.adds + b.adds;
  s.add_ns = a.add_ns + b.add_ns;
  s.deletes = a.deletes + b.deletes;
  s.delete_ns = a.delete_ns + b.delete_ns;
  s.seals = a.seals + b.seals;
  s.merges = a.merges + b.merges;
  s.generation = a.generation + b.generation;
  s.segments = b.segments;
  return s;
}

WriterSample System::SampleWriter() const {
  WriterSample s;
  s.ns = NowNs();
  s.adds = writer_adds_.load();
  s.add_ns = writer_add_ns_.load();
  s.deletes = writer_deletes_.load();
  s.delete_ns = writer_delete_ns_.load();
  s.seals = writer_seals_.load();
  s.merges = writer_merges_.load();
  if (ingest_) {
    const std::shared_ptr<const fts::IndexSnapshot> snap = ingest_->snapshot();
    s.generation = snap->generation();
    s.segments = snap->num_segments();
  }
  return s;
}

void System::WriterLoop(bool record_ops) {
  LowerThreadPriority();
  fts::Rng rng(seed_ ^ 0x77726974ULL);
  IngestStats& st = writer_stats_;
  size_t next = kIngestLiveDocs;
  size_t segments = ingest_->snapshot()->num_segments();
  const int64_t start = NowNs();
  for (uint64_t pair = 0; !writer_stop_.load(std::memory_order_relaxed); ++pair) {
    const int64_t due = start + static_cast<int64_t>(1e9 * static_cast<double>(pair) /
                                                     kWriterPairsPerSecond);
    if (const int64_t now = NowNs(); now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const fts::IndexSnapshot* before = ingest_->snapshot().get();
    const int64_t t0 = NowNs();
    const StatusOr<uint64_t> id = ingest_->Add(texts_[next]);
    const int64_t t1 = NowNs();
    (void)id;  // spill is off: Add cannot fail
    next = (next + 1) % texts_.size();
    writer_adds_.fetch_add(1);
    writer_add_ns_.fetch_add(static_cast<uint64_t>(t1 - t0));
    std::shared_ptr<const fts::IndexSnapshot> snap = ingest_->snapshot();
    const bool sealed = snap.get() != before;
    if (sealed) writer_seals_.fetch_add(1);
    if (snap->num_segments() < segments) writer_merges_.fetch_add(1);
    segments = snap->num_segments();
    if (record_ops) {
      st.add_us.push_back(UsBetween(t0, t1));
      if (sealed) st.seal_ms.push_back(UsBetween(t0, t1) / 1e3);
    }
    st.segments_max = std::max(st.segments_max, segments);
    // One delete per add holds the corpus (live + buffered) at its set-up
    // size; Adds and Deletes alternate, so every phase sees the same mix
    // of buffer appends, seals and delete publishes. Ids are
    // generation-relative; one a concurrent compaction retired, or one
    // already deleted, is a harmless no-op.
    const int64_t d0 = NowNs();
    (void)ingest_->Delete(rng.Uniform(snap->total_nodes()));
    const int64_t d1 = NowNs();
    if (record_ops) st.delete_us.push_back(UsBetween(d0, d1));
    writer_delete_ns_.fetch_add(static_cast<uint64_t>(d1 - d0));
    writer_deletes_.fetch_add(1);
  }
}

Status System::FinalIngestCheck(const QueryLog& log) {
  FTS_RETURN_IF_ERROR(ingest_->Refresh());
  FTS_RETURN_IF_ERROR(ingest_->merger_status());
  // Hold one generation for both sides of the comparison; the merger may
  // still publish, so compare against the service only when no newer
  // generation appeared in between.
  for (size_t attempt = 0; attempt < 5; ++attempt) {
    std::shared_ptr<const fts::IndexSnapshot> snap = ingest_->snapshot();
    fts::Searcher searcher(snap, searcher_options());
    fts::ExecContext ctx;
    bool raced = false;
    for (const LogQuery& q : log.distinct) {
      ctx.set_top_k(q.top_k);
      const Reply want = ToReply(searcher.Search(q.text, ctx));
      const Reply got = ToReply(service_->Search(q.text, q.top_k));
      if (ingest_->snapshot() != snap) {
        raced = true;
        break;
      }
      if (!want.status.ok() || !got.status.ok() || !SameAnswer(want, got)) {
        return Status::Internal("ingest_live post-Refresh mismatch on " + q.text);
      }
    }
    if (!raced) return ingest_->merger_status();
  }
  return Status::Internal("ingest_live: merger kept publishing during the check");
}

double System::CompactMs() {
  const Clock::time_point t = Clock::now();
  const Status s = ingest_->Compact();
  return s.ok() ? SecondsSince(t) * 1e3 : -1.0;
}

std::shared_ptr<const fts::IndexSnapshot> System::ReplaySnapshot() const {
  switch (config_.system) {
    case SystemKind::kServe:
      return fts::IndexSnapshot::ForIndex(index_.get());
    case SystemKind::kIngest:
      return ingest_->snapshot();
  }
  return nullptr;
}

fts::SearchService* System::ReplayService() {
  if (config_.system == SystemKind::kIngest) return service_.get();
  if (!replay_service_) {
    replay_service_ = std::make_unique<fts::SearchService>(index_.get(), ServiceOptions());
  }
  return replay_service_.get();
}

FtsClient* System::ReplayClient() { return replay_client_.get(); }

std::vector<FtsClient*> System::ShardClients() {
  std::vector<FtsClient*> out;
  for (auto& c : shard_clients_) out.push_back(c.get());
  return out;
}

}  // namespace perfbench
