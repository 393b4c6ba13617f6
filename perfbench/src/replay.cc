#include "replay.h"

#include "eval/searcher.h"
#include "lang/parser.h"
#include "net/wire.h"
#include "text/tokenizer.h"

namespace perfbench {

namespace {

/// Request ids of spans that belong to no log query.
constexpr uint64_t kPingRequestBase = 1ull << 32;
constexpr uint64_t kTokenizeRequestBase = 2ull << 32;
constexpr size_t kPings = 300;
constexpr size_t kTokenizeDocs = 2000;

}  // namespace

ReplayResult Replay(System& system, const QueryLog& log, Tracer& tracer) {
  ReplayResult out;
  SpanBuffer spans = tracer.NewBuffer();
  const size_t n = log.distinct.size();
  out.classes.resize(n);
  out.counters.resize(n);
  out.engines.resize(n);
  out.results.resize(n);
  out.response_bytes.resize(n);

  fts::Searcher searcher(system.ReplaySnapshot(), system.searcher_options());
  fts::ExecContext ctx;
  fts::SearchService* service = system.ReplayService();
  fts::net::FtsClient* client = system.ReplayClient();
  fts::net::ShardRouter* router = system.router();
  const std::vector<fts::net::FtsClient*> shards = system.ShardClients();
  const auto mismatch = [&out](const std::string& text) {
    if (out.mismatches++ == 0) out.first_mismatch = text;
  };

  for (uint32_t q = 0; q < n; ++q) {
    const LogQuery& query = log.distinct[q];
    const uint64_t root = spans.NewId();
    const int64_t root_start = NowNs();

    auto parsed = spans.Time("lang.parse", q, root, [&] {
      return fts::ParseQuery(query.text, fts::SurfaceLanguage::kComp);
    });
    if (parsed.ok()) {
      out.classes[q] = spans.Time("lang.classify", q, root,
                                  [&] { return fts::ClassifyQuery(*parsed); });
    }

    ctx.set_top_k(query.top_k);
    auto searched = spans.Time("eval.search", q, root,
                               [&] { return searcher.Search(query.text, ctx); });
    if (searched.ok()) {
      out.counters[q] = searched->result.counters;
      out.engines[q] = searched->engine;
      out.results[q] = searched->result.nodes.size();
    }
    const Reply want = ToReply(std::move(searched));
    if (!want.status.ok() || !system.Check(q, want)) mismatch(query.text);

    const Reply served = ToReply(spans.Time("exec.service", q, root, [&] {
      return service->Search(query.text, query.top_k);
    }));
    if (!served.status.ok() || !SameAnswer(served, want)) mismatch(query.text);

    // Wire cost on the evaluated answer, whether or not a server is in
    // the path.
    fts::net::SearchResponse response;
    response.request_id = q;
    response.nodes = want.nodes;
    response.scores = want.scores;
    const std::string frame = spans.Time("net.encode", q, root, [&] {
      return fts::net::EncodeSearchResponse(response);
    });
    out.response_bytes[q] = frame.size();
    fts::net::SearchResponse decoded;
    const fts::Status decode_status = spans.Time("net.decode", q, root, [&] {
      return fts::net::DecodeSearchResponse(
          std::string_view(frame).substr(fts::net::kFrameHeaderBytes), &decoded);
    });
    if (!decode_status.ok() || decoded.nodes != want.nodes) mismatch(query.text);

    if (client != nullptr) {
      const Reply remote = ToReply(spans.Time("net.roundtrip", q, root, [&] {
        return client->Search(query.text, query.top_k);
      }));
      if (!remote.status.ok() || !SameAnswer(remote, want)) mismatch(query.text);
    }
    if (router != nullptr) {
      const Reply routed = ToReply(spans.Time("router.search", q, root, [&] {
        return router->Search(query.text, query.top_k);
      }));
      if (!routed.status.ok() || !SameAnswer(routed, want)) mismatch(query.text);
      static const char* kShardSpans[] = {"router.shard0", "router.shard1"};
      for (size_t s = 0; s < shards.size() && s < 2; ++s) {
        const Reply part = ToReply(spans.Time(kShardSpans[s], q, root, [&] {
          return shards[s]->Search(query.text, query.top_k);
        }));
        if (!part.status.ok()) mismatch(query.text);
      }
    }
    spans.Add("replay.query", root_start, NowNs(), q, 0, root);
  }

  if (client != nullptr) {
    for (size_t i = 0; i < kPings; ++i) {
      (void)spans.Time("net.ping", kPingRequestBase + i, 0,
                       [&] { return client->Ping(); });
    }
  }
  const std::vector<std::string>& texts = system.texts();
  const fts::Tokenizer tokenizer;
  for (size_t i = 0; i < texts.size() && i < kTokenizeDocs; ++i) {
    (void)spans.Time("text.tokenize", kTokenizeRequestBase + i, 0,
                     [&] { return tokenizer.Tokenize(texts[i]).size(); });
  }
  tracer.Collect(std::move(spans));
  return out;
}

}  // namespace perfbench
