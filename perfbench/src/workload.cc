#include "workload.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/fnv.h"
#include "common/rng.h"

namespace perfbench {

using fts::ScoringKind;

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = {
      // name, system, scoring, mix, pair terms, workers, shard replay,
      // offered qps, p99 limit us
      {"serve_light", SystemKind::kServe, ScoringKind::kProbabilistic,
       LogMix::kLight, 0, 4, true, 2500, 31500},
      {"serve_heavy", SystemKind::kServe, ScoringKind::kTfIdf, LogMix::kHeavy,
       16, 4, false, 300, 930000},
      {"ingest_live", SystemKind::kIngest, ScoringKind::kProbabilistic,
       LogMix::kLightPpred, 0, 3, false, 1000, 20400},
  };
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fts::CorpusGenOptions CorpusOptions(uint64_t seed) {
  fts::CorpusGenOptions opts;
  opts.seed = seed;
  opts.num_nodes = 12000;
  opts.min_doc_len = 50;
  opts.max_doc_len = 300;
  opts.vocabulary = 20000;
  opts.num_topic_tokens = 8;
  return opts;
}

const char* ShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kBoolNoNeg: return "bool_noneg";
    case QueryShape::kBool: return "bool";
    case QueryShape::kPpred: return "ppred";
    case QueryShape::kNpred: return "npred";
    case QueryShape::kComp: return "comp";
  }
  return "?";
}

namespace {

using fts::Rng;
using fts::ZipfSampler;

constexpr size_t kLogEntries = 60000;
constexpr size_t kBlock = 200;

std::string Quote(const std::string& term) { return "'" + term + "'"; }
// Appending (rather than "w" + to_string) sidesteps a GCC 12 -Wrestrict
// false positive on string concatenation.
std::string W(uint64_t rank) { return std::string("w").append(std::to_string(rank)); }

/// Background term ranked >= 300 with Zipf popularity (the light mix).
std::string LightTerm(Rng& rng) {
  static const ZipfSampler zipf(19700, 1.0);
  return W(300 + zipf.Sample(&rng));
}
/// One of the 300 most frequent background terms, Zipf-weighted.
std::string HeadTerm(Rng& rng) {
  static const ZipfSampler zipf(300, 1.0);
  return W(zipf.Sample(&rng));
}
/// One of w0..w7: always among the 16 pair-indexed frequent terms.
std::string FrequentTerm(Rng& rng) { return W(rng.Uniform(8)); }
std::string MidTerm(Rng& rng) { return W(20 + rng.Uniform(280)); }
std::string RareTerm(Rng& rng) { return W(300 + rng.Uniform(2700)); }
std::string Topic(Rng& rng) { return "topic" + std::to_string(rng.Uniform(8)); }

std::string Proximity(const std::string& a, const std::string& b, bool phrase,
                      uint32_t distance) {
  return "SOME p1 SOME p2 (p1 HAS " + Quote(a) + " AND p2 HAS " + Quote(b) +
         " AND " +
         (phrase ? "odistance(p1, p2, 0)"
                 : "distance(p1, p2, " + std::to_string(distance) + ")") +
         ")";
}

struct Template {
  double weight;
  size_t pool;
  std::function<LogQuery(Rng&)> make;
  /// Zipf popularity inside the pool; false = uniform (see TemplatesFor).
  bool zipf = true;
};

/// "'a' <op> 'b'" over two terms drawn in order from `term`. Every draw
/// below is its own statement: operands of + and function arguments are
/// evaluated in unspecified order, and the seed must give the same log on
/// every compiler.
template <typename Draw>
std::string Binary(Rng& r, Draw term_a, const char* op, Draw term_b) {
  const std::string a = term_a(r);
  const std::string b = term_b(r);
  return Quote(a) + op + Quote(b);
}

std::vector<Template> LightTemplates(double scale) {
  const auto binary = [](const char* op, QueryShape shape) {
    return [op, shape](Rng& r) {
      return LogQuery{Binary(r, &LightTerm, op, &LightTerm), 10, shape};
    };
  };
  return {
      {0.35 * scale, 1500, binary(" AND ", QueryShape::kBoolNoNeg)},
      {0.30 * scale, 1500, binary(" OR ", QueryShape::kBoolNoNeg)},
      {0.15 * scale, 1000, binary(" AND NOT ", QueryShape::kBoolNoNeg)},
      {0.10 * scale, 1000,
       [](Rng& r) {
         const std::string either = Binary(r, &LightTerm, " OR ", &LightTerm);
         const std::string c = LightTerm(r);
         std::string text = "(";  // += avoids the -Wrestrict false positive
         text += either;
         text += ") AND " + Quote(c);
         return LogQuery{text, 10, QueryShape::kBoolNoNeg};
       }},
      {0.10 * scale, 500, binary(" OR NOT ", QueryShape::kBool)},
  };
}

std::vector<Template> HeavyTemplates() {
  return {
      // Full-result BOOL over head and topic terms.
      {0.22, 200,
       [](Rng& r) {
         const bool negate = r.Bernoulli(0.3);
         const std::string text =
             negate ? Binary(r, &HeadTerm, " AND NOT ", &Topic)
                    : Binary(r, &Topic, " AND ", &HeadTerm);
         return LogQuery{text, 0, QueryShape::kBoolNoNeg};
       }},
      // Top-10 head-term queries (block-max path).
      {0.30, 200,
       [](Rng& r) {
         const bool conj = r.Bernoulli(0.5);
         const std::string text = conj ? Binary(r, &Topic, " AND ", &HeadTerm)
                                       : Binary(r, &HeadTerm, " OR ", &HeadTerm);
         return LogQuery{text, 10, QueryShape::kBoolNoNeg};
       }},
      // Phrase/NEAR with a pair-indexed frequent term (pair-routed).
      {0.20, 150,
       [](Rng& r) {
         const bool phrase = r.Bernoulli(0.5);
         const std::string a = FrequentTerm(r);
         const std::string b = HeadTerm(r);
         return LogQuery{Proximity(a, b, phrase, 2), 10, QueryShape::kPpred};
       }},
      // Phrase/NEAR over rare terms (position pipeline).
      {0.20, 200,
       [](Rng& r) {
         const bool phrase = r.Bernoulli(0.5);
         const std::string a = RareTerm(r);
         const std::string b = RareTerm(r);
         return LogQuery{Proximity(a, b, phrase, 2), 10, QueryShape::kPpred};
       }},
      // NPRED: negative predicates over topic tokens.
      {0.05, 40,
       [](Rng& r) {
         const uint64_t a = r.Uniform(8);
         const uint64_t b = (a + 1 + r.Uniform(7)) % 8;
         static const char* kPreds[] = {"not_distance(p1, p2, 5)",
                                        "not_samepara(p1, p2)",
                                        "not_ordered(p1, p2)"};
         const char* pred = kPreds[r.Uniform(3)];
         const uint32_t top_k = r.Bernoulli(0.5) ? 10u : 0u;
         const std::string text = "SOME p1 SOME p2 (p1 HAS 'topic" +
                                  std::to_string(a) + "' AND p2 HAS 'topic" +
                                  std::to_string(b) + "' AND " + pred + ")";
         return LogQuery{text, top_k, QueryShape::kNpred};
       }},
      // COMP: a negated subquery carrying a negative predicate. Inner
      // terms come from a narrow rank band so per-query cost is similar.
      {0.03, 24,
       [](Rng& r) {
         const std::string topic = Topic(r);
         const std::string p = W(400 + r.Uniform(80));
         const std::string q = W(400 + r.Uniform(80));
         const std::string text = Quote(topic) + " AND NOT (SOME p SOME q (p HAS " +
                                  Quote(p) + " AND q HAS " + Quote(q) +
                                  " AND not_distance(p, q, 3)))";
         return LogQuery{text, 10, QueryShape::kComp};
       }},
  };
}

std::vector<Template> TemplatesFor(LogMix mix) {
  switch (mix) {
    case LogMix::kLight:
      return LightTemplates(1.0);
    case LogMix::kHeavy: {
      // Uniform popularity: heavy-query costs spread over two orders of
      // magnitude, so under Zipf the few queries a seed made popular would
      // set the latency percentiles; uniform draws average over each pool.
      // Its working set is then every pool, which overflows the L2 by
      // design.
      std::vector<Template> out = HeavyTemplates();
      for (Template& t : out) t.zipf = false;
      return out;
    }
    case LogMix::kLightPpred: {
      std::vector<Template> out = LightTemplates(0.8);
      out.push_back({0.20, 300, [](Rng& r) {
                       const std::string a = MidTerm(r);
                       const std::string b = MidTerm(r);
                       const bool phrase = r.Bernoulli(0.5);
                       return LogQuery{Proximity(a, b, phrase, 2), 10,
                                       QueryShape::kPpred};
                     }});
      return out;
    }
  }
  return {};
}

}  // namespace

QueryLog BuildLog(LogMix mix, uint64_t seed) {
  const std::vector<Template> templates = TemplatesFor(mix);
  QueryLog log;
  std::unordered_map<std::string, uint32_t> index;  // text + top_k -> id
  std::vector<std::vector<uint32_t>> pools(templates.size());
  std::vector<ZipfSampler> popularity;
  double total_weight = 0.0;
  for (size_t t = 0; t < templates.size(); ++t) {
    Rng rng(seed * 1000003u + t + 1);
    for (size_t k = 0; k < templates[t].pool; ++k) {
      LogQuery q = templates[t].make(rng);
      const std::string key = q.text + '\0' + std::to_string(q.top_k);
      auto [it, fresh] =
          index.emplace(key, static_cast<uint32_t>(log.distinct.size()));
      if (fresh) log.distinct.push_back(std::move(q));
      pools[t].push_back(it->second);
    }
    popularity.emplace_back(templates[t].pool, templates[t].zipf ? 1.0 : 0.0);
    total_weight += templates[t].weight;
  }
  // Stratified mix: every block of kBlock entries holds each template in
  // exact proportion to its weight (largest remainder), shuffled by the
  // seed. Any window of the log, and so every load phase, then sees the
  // same class mix; only which pool queries are drawn varies.
  std::vector<size_t> block;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t t = 0; t < templates.size(); ++t) {
    const double share = templates[t].weight / total_weight * kBlock;
    block.insert(block.end(), static_cast<size_t>(share), t);
    remainders.push_back({share - static_cast<size_t>(share), t});
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t i = 0; block.size() < kBlock; ++i) {
    block.push_back(remainders[i % remainders.size()].second);
  }
  Rng rng(seed ^ 0x5eedf00dULL);
  log.entries.reserve(kLogEntries);
  while (log.entries.size() < kLogEntries) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Uniform(i)]);
    }
    for (size_t t : block) {
      log.entries.push_back(pools[t][popularity[t].Sample(&rng)]);
    }
  }
  // Keep only the pool queries the log actually draws, in first-use order.
  std::vector<uint32_t> remap(log.distinct.size(), UINT32_MAX);
  std::vector<LogQuery> used;
  for (uint32_t& e : log.entries) {
    if (remap[e] == UINT32_MAX) {
      remap[e] = static_cast<uint32_t>(used.size());
      used.push_back(log.distinct[e]);
    }
    e = remap[e];
  }
  log.distinct = std::move(used);
  return log;
}

uint64_t LogHash(const QueryLog& log) {
  uint64_t h = fts::kFnv1aSeed;
  for (uint32_t e : log.entries) {
    const LogQuery& q = log.distinct[e];
    h = fts::Fnv1aAccumulate(h, q.text);
    h = fts::Fnv1aAccumulate(h, std::string_view("\0", 1));
    h = fts::Fnv1aAccumulate(h, std::to_string(q.top_k));
  }
  return h;
}

std::vector<double> ShapeMix(const QueryLog& log) {
  std::vector<double> out(kNumShapes, 0.0);
  for (uint32_t e : log.entries) {
    out[static_cast<size_t>(log.distinct[e].shape)] += 1.0;
  }
  for (double& v : out) v /= static_cast<double>(log.entries.size());
  return out;
}

}  // namespace perfbench
