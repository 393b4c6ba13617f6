// End-to-end loopback tests of FtsServer + FtsClient: result parity with
// an in-process SearchService (nodes, bit-identical scores, engine),
// ranked retrieval, per-request server-side deadlines, pipelined async
// calls, and the fail-closed connection contract — malformed frames,
// oversized declared lengths, disconnect with requests in flight, and
// admission-control shedding. Plus the HTTP /metrics and /healthz dialect
// served on the same port.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "exec/search_service.h"
#include "index/index_builder.h"
#include "lang/parser.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace net {
namespace {

std::shared_ptr<const InvertedIndex> SmallIndex() {
  Corpus corpus;
  corpus.AddDocument("apple banana cherry. apple date apple.\n\n banana fig.");
  corpus.AddDocument("banana cherry date. elderberry fig grape.");
  corpus.AddDocument("apple cherry elderberry. apple banana grape.");
  corpus.AddDocument("date fig. grape apple. cherry banana date.");
  corpus.AddDocument("elderberry. apple date cherry fig banana grape.");
  return std::make_shared<InvertedIndex>(IndexBuilder::Build(corpus));
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// A started server on an ephemeral loopback port plus a client bound to
/// it, with a reference SearchService over the same index for parity
/// checks.
struct Loopback {
  explicit Loopback(FtsServer::Options options = {},
                    std::shared_ptr<const InvertedIndex> index = SmallIndex())
      : index_(std::move(index)), server(index_, std::move(options)) {
    const Status s = server.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    FtsClient::Options copts;
    copts.port = server.port();
    client = std::make_unique<FtsClient>(copts);
  }

  std::shared_ptr<const InvertedIndex> index_;
  FtsServer server;
  std::unique_ptr<FtsClient> client;
};

TEST(NetLoopbackTest, SearchMatchesInProcessService) {
  FtsServer::Options options;
  options.service.scoring = ScoringKind::kTfIdf;
  Loopback lb(options);
  SearchService::Options sopts;
  sopts.scoring = ScoringKind::kTfIdf;
  SearchService reference(lb.index_.get(), sopts);

  const std::vector<std::string> queries = {
      "'apple'",
      "'apple' AND 'banana'",
      "'cherry' OR ('date' AND NOT 'fig')",
      "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND "
      "distance(p1, p2, 4))",
      "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'cherry' AND "
      "NOT samesentence(p1, p2))",
  };
  for (const std::string& q : queries) {
    auto expected = reference.Search(q);
    ASSERT_TRUE(expected.ok()) << q;
    auto got = lb.client->Search(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ASSERT_TRUE(got->status.ok()) << q << ": " << got->status.ToString();
    ASSERT_EQ(got->nodes.size(), expected->result.nodes.size()) << q;
    for (size_t i = 0; i < got->nodes.size(); ++i) {
      EXPECT_EQ(got->nodes[i], expected->result.nodes[i]) << q;
    }
    ASSERT_EQ(got->scores.size(), expected->result.scores.size()) << q;
    for (size_t i = 0; i < got->scores.size(); ++i) {
      EXPECT_EQ(Bits(got->scores[i]), Bits(expected->result.scores[i])) << q;
    }
    EXPECT_EQ(got->engine, expected->engine) << q;
    EXPECT_EQ(got->language_class, expected->language_class) << q;
  }
}

TEST(NetLoopbackTest, TopKLimitsResults) {
  FtsServer::Options options;
  options.service.scoring = ScoringKind::kProbabilistic;
  Loopback lb(options);
  auto full = lb.client->Search("'apple' OR 'banana'");
  ASSERT_TRUE(full.ok() && full->status.ok());
  ASSERT_GT(full->nodes.size(), 2u);
  auto top2 = lb.client->Search("'apple' OR 'banana'", /*top_k=*/2);
  ASSERT_TRUE(top2.ok() && top2->status.ok());
  ASSERT_EQ(top2->nodes.size(), 2u);
  // Full results come back in id order; rank them (score desc, id asc) to
  // get the expected top-2.
  std::vector<size_t> rank(full->nodes.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  std::sort(rank.begin(), rank.end(), [&](size_t a, size_t b) {
    if (full->scores[a] != full->scores[b]) {
      return full->scores[a] > full->scores[b];
    }
    return full->nodes[a] < full->nodes[b];
  });
  EXPECT_EQ(top2->nodes[0], full->nodes[rank[0]]);
  EXPECT_EQ(top2->nodes[1], full->nodes[rank[1]]);
  EXPECT_EQ(Bits(top2->scores[0]), Bits(full->scores[rank[0]]));
  EXPECT_EQ(Bits(top2->scores[1]), Bits(full->scores[rank[1]]));
}

TEST(NetLoopbackTest, ServerSideDeadlineExceeded) {
  Loopback lb;
  // 1us is expired by the time a worker dequeues the task; the reply must
  // carry the evaluation status, not kill the connection.
  auto got = lb.client->Search(
      "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND "
      "NOT samesentence(p1, p2))",
      0, WireCursorMode::kDefault, /*deadline_us=*/1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kDeadlineExceeded);
  // The connection survives: the next call succeeds.
  auto after = lb.client->Search("'apple'");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(NetLoopbackTest, ParseErrorAnsweredInBand) {
  Loopback lb;
  auto got = lb.client->Search("SOME p1 (((");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kInvalidArgument);
  auto after = lb.client->Ping();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_nodes, 5u);
}

TEST(NetLoopbackTest, PipelinedAsyncCallsAllComplete) {
  FtsServer::Options options;
  options.service.num_workers = 2;
  Loopback lb(options);
  std::vector<std::future<StatusOr<SearchResponse>>> futures;
  for (int i = 0; i < 16; ++i) {
    SearchRequest req;
    req.query = (i % 2) ? "'apple'" : "'banana' AND 'cherry'";
    futures.push_back(lb.client->SearchAsync(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_TRUE(got->status.ok()) << i;
    EXPECT_FALSE(got->nodes.empty()) << i;
  }
}

TEST(NetLoopbackTest, MalformedFrameDropsConnection) {
  Loopback lb;
  // Prime the connection so the failure is observable as a transition.
  ASSERT_TRUE(lb.client->Ping().ok());

  auto sock = ConnectTcp("127.0.0.1", lb.server.port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  // A well-framed payload that is not a valid prologue (bad version byte).
  std::string frame;
  PutU32(&frame, 12);
  frame.append(12, '\xee');
  ASSERT_TRUE(WriteAll(*sock, frame).ok());
  std::string payload;
  const Status s =
      ReadFrame(*sock, &payload, kMaxFrameBytes, std::chrono::milliseconds(2000));
  EXPECT_FALSE(s.ok());  // server closed without answering

  // The server as a whole is unaffected.
  auto after = lb.client->Ping();
  ASSERT_TRUE(after.ok());
}

TEST(NetLoopbackTest, OversizedDeclaredLengthDropsConnection) {
  FtsServer::Options options;
  options.max_frame_bytes = 4096;
  Loopback lb(options);
  auto sock = ConnectTcp("127.0.0.1", lb.server.port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  std::string frame;
  PutU32(&frame, 1u << 20);  // declared length far over the 4 KiB bound
  ASSERT_TRUE(WriteAll(*sock, frame).ok());
  std::string payload;
  const Status s =
      ReadFrame(*sock, &payload, kMaxFrameBytes, std::chrono::milliseconds(2000));
  EXPECT_FALSE(s.ok());  // dropped without reading the (never-sent) body
}

TEST(NetLoopbackTest, DisconnectFailsInFlightCalls) {
  Loopback lb;
  // Park requests the single worker won't finish instantly, then sever the
  // connection; every in-flight future must fail closed with Unavailable
  // (not hang, not fabricate a result).
  std::vector<std::future<StatusOr<SearchResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    SearchRequest req;
    req.query =
        "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND "
        "NOT samesentence(p1, p2))";
    futures.push_back(lb.client->SearchAsync(std::move(req)));
  }
  lb.client->Disconnect();
  for (auto& f : futures) {
    auto got = f.get();
    if (got.ok()) continue;  // raced ahead of the disconnect — also fine
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  }
  // The client reconnects transparently on the next call.
  auto after = lb.client->Search("'apple'");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(NetLoopbackTest, AdmissionControlShedsUnderPressure) {
  FtsServer::Options options;
  options.admission.enabled = true;
  options.admission.max_cost = 1;
  options.admission.pressure_fraction = 0.0;  // always under pressure
  Loopback lb(options);
  auto got = lb.client->Search("'apple'");  // df(apple) = 3 > max_cost
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kUnavailable);
  EXPECT_NE(got->status.message().find("shed"), std::string::npos);
  // Shedding is a per-query verdict, not a connection error.
  auto ping = lb.client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_NE(lb.server.MetricsText().find("fts_queries_shed 1"),
            std::string::npos);
}

TEST(NetLoopbackTest, BinaryMetricsAndPing) {
  FtsServer::Options options;
  options.name = "unit-shard";
  Loopback lb(options);
  auto ping = lb.client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->server_name, "unit-shard");
  EXPECT_EQ(ping->num_nodes, 5u);

  ASSERT_TRUE(lb.client->Search("'apple'").ok());
  auto metrics = lb.client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->text.find("fts_up 1"), std::string::npos);
  EXPECT_NE(metrics->text.find("fts_queries_completed 1"), std::string::npos);
}

/// Value of the exactly named metric in a /metrics text block, or -1.
int64_t MetricValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stoll(text.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  return -1;
}

TEST(NetLoopbackTest, MetricsExposeL2CacheMemoryAccounting) {
  // Every query's L1 cache falls through to the service-scope L2, so a
  // served search leaves decoded blocks resident there — and /metrics must
  // report how much memory they hold, per shard and in total.
  Loopback lb;
  ASSERT_TRUE(lb.client->Search("'apple' AND 'banana'").ok());
  ASSERT_TRUE(lb.client->Search("'apple' AND 'banana'").ok());

  auto metrics = lb.client->Metrics();
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics->text;
  EXPECT_NE(text.find("fts_eval_pair_seeks"), std::string::npos);
  EXPECT_NE(text.find("fts_eval_pair_entries_decoded"), std::string::npos);

  const int64_t blocks = MetricValue(text, "fts_l2_cache_resident_blocks");
  const int64_t bytes = MetricValue(text, "fts_l2_cache_resident_bytes");
  ASSERT_GT(blocks, 0);
  // Every resident block costs at least its fixed struct size, so the
  // byte gauge must dominate blocks * sizeof-a-small-struct; exact
  // accounting is pinned in shared_block_cache_test.
  EXPECT_GE(bytes, blocks * 64);

  // The per-shard breakdown must be present and sum to the totals.
  int64_t shard_keys = 0;
  int64_t shard_bytes = 0;
  size_t shards = 0;
  for (size_t i = 0;; ++i) {
    const std::string suffix = "{shard=\"" + std::to_string(i) + "\"}";
    const int64_t keys = MetricValue(text, "fts_l2_cache_shard_keys" + suffix);
    if (keys < 0) break;
    const int64_t sb = MetricValue(text, "fts_l2_cache_shard_bytes" + suffix);
    ASSERT_GE(sb, 0) << i;
    shard_keys += keys;
    shard_bytes += sb;
    ++shards;
  }
  EXPECT_GT(shards, 0u);
  EXPECT_EQ(shard_keys, blocks);
  EXPECT_EQ(shard_bytes, bytes);
}

/// Sends one HTTP request on a raw socket and returns the full response.
std::string HttpGet(uint16_t port, const std::string& target) {
  auto sock = ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(2000));
  EXPECT_TRUE(sock.ok());
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(WriteAll(*sock, request).ok());
  std::string response;
  char buf[1024];
  while (true) {
    const Status s = ReadFull(*sock, buf, 1, std::chrono::milliseconds(2000));
    if (!s.ok()) break;
    response.push_back(buf[0]);
  }
  return response;
}

TEST(NetLoopbackTest, HttpMetricsAndHealthOnSamePort) {
  Loopback lb;
  ASSERT_TRUE(lb.client->Search("'apple'").ok());

  const std::string health = HttpGet(lb.server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(lb.server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("fts_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("fts_total_nodes 5"), std::string::npos);

  const std::string missing = HttpGet(lb.server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(NetLoopbackTest, OversizedQueryAnsweredInBand) {
  // Well inside the 64 MiB frame limit, past ParseQuery's size limit: the
  // server replies with an error and keeps serving.
  Loopback lb;
  std::string query = "'apple'";
  query.resize(kMaxQueryBytes + 1, ' ');
  auto got = lb.client->Search(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(HttpGet(lb.server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  auto after = lb.client->Search("'apple'");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(NetLoopbackTest, PerRequestCursorModeOverride) {
  // kSequential vs the adaptive default must agree on results; the request
  // override just selects the access pattern.
  Loopback lb;
  auto seq = lb.client->Search("'apple' AND 'banana'", 0,
                               WireCursorMode::kSequential);
  auto dflt = lb.client->Search("'apple' AND 'banana'");
  ASSERT_TRUE(seq.ok() && seq->status.ok());
  ASSERT_TRUE(dflt.ok() && dflt->status.ok());
  EXPECT_EQ(seq->nodes, dflt->nodes);
}

}  // namespace
}  // namespace net
}  // namespace fts
