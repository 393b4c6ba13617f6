// Golden bit-identity of IndexBuilder output: the FNV-1a 64 digests of the
// v6 SaveIndexToString bytes of generated corpora — with no pair lists and
// with pair lists at two (frequent_terms, max_distance) settings — are
// pinned. The builder may change how it collects and encodes lists
// (ordering, threading), but never a byte of what it produces. The 2,000-node
// builds are large enough to take the multi-threaded path; the 256-node
// build (one ingest seal's worth) stays on the calling thread.
//
// A brute-force oracle additionally enumerates every in-window
// co-occurrence with a frequent side and compares the decoded pair lists
// against it: keys, nodes, tf headers, and records sorted by
// (offset, signed delta).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/pair_index.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

Corpus Generated(uint64_t seed, uint32_t num_nodes) {
  CorpusGenOptions gen;
  gen.seed = seed;
  gen.num_nodes = num_nodes;
  return GenerateCorpus(gen);
}

IndexBuildOptions PairOptions(size_t frequent, uint32_t max_distance) {
  IndexBuildOptions options;
  options.pairs.frequent_terms = frequent;
  options.pairs.max_distance = max_distance;
  return options;
}

struct GoldenCase {
  uint64_t seed;
  uint32_t num_nodes;
  size_t frequent_terms;  // 0: no pair lists
  uint32_t max_distance;
  uint64_t digest;        // FNV-1a 64 of the v6 SaveIndexToString bytes
  size_t memory_usage;    // InvertedIndex::MemoryUsage(), resident bytes
};

// Recorded from the ordered-map builder (one list appended per key as each
// node was visited), the reference layout every later builder must keep.
constexpr GoldenCase kGolden[] = {
    {1, 2000, 0, 0, 0x9bdab6fa20ffdec3ULL, 9014962},
    {1, 2000, 16, 2, 0xc12471af122872e3ULL, 43185481},
    {1, 2000, 8, 5, 0xf820bbb166c6ad20ULL, 31756964},
    {2, 2000, 0, 0, 0xeef39a1baf9bcccaULL, 8895760},
    {2, 2000, 16, 2, 0xc39523749e24aef1ULL, 41107400},
    {2, 2000, 8, 5, 0xb7825bb0c6555022ULL, 31658729},
    {1, 256, 16, 2, 0xa7b001d1b478a0abULL, 9463972},
};

TEST(IndexBuildGoldenTest, SavedBytesMatchPinnedDigests) {
  std::map<std::pair<uint64_t, uint32_t>, Corpus> corpora;
  for (const GoldenCase& c : kGolden) {
    auto it = corpora.find({c.seed, c.num_nodes});
    if (it == corpora.end()) {
      it = corpora
               .emplace(std::make_pair(c.seed, c.num_nodes),
                        Generated(c.seed, c.num_nodes))
               .first;
    }
    const InvertedIndex index = IndexBuilder::Build(
        it->second, PairOptions(c.frequent_terms, c.max_distance));
    std::string bytes;
    SaveIndexToString(index, &bytes);
    const uint64_t digest = Fnv1a64(bytes);
    EXPECT_EQ(digest, c.digest)
        << "seed " << c.seed << " nodes " << c.num_nodes << " pairs "
        << c.frequent_terms << "/" << c.max_distance << ": got 0x" << std::hex
        << digest;
    EXPECT_EQ(index.MemoryUsage(), c.memory_usage)
        << "seed " << c.seed << " nodes " << c.num_nodes << " pairs "
        << c.frequent_terms << "/" << c.max_distance;
  }
}

/// One pair-list entry: the packed per-node tfs plus its records
/// (offset of the key's first term, signed delta to the second).
struct PairEntry {
  uint32_t tf_first = 0;
  uint32_t tf_second = 0;
  std::vector<std::pair<uint32_t, int32_t>> records;

  friend bool operator==(const PairEntry&, const PairEntry&) = default;
};

using PairKey = std::pair<TokenId, TokenId>;
using PairLists = std::map<PairKey, std::map<NodeId, PairEntry>>;

/// Top-f terms by (df desc, text asc), counted straight from the corpus.
std::vector<TokenId> OracleFrequent(const Corpus& corpus, size_t f) {
  std::vector<uint32_t> df(corpus.vocabulary_size(), 0);
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    std::vector<TokenId> toks = corpus.doc(n).tokens;
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    for (const TokenId t : toks) ++df[t];
  }
  std::vector<TokenId> terms;
  for (TokenId t = 0; t < df.size(); ++t) {
    if (df[t] > 0) terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end(), [&](TokenId a, TokenId b) {
    if (df[a] != df[b]) return df[a] > df[b];
    return corpus.token_text(a) < corpus.token_text(b);
  });
  if (terms.size() > f) terms.resize(f);
  return terms;
}

/// Every pair of positions (i, j) whose tokens differ, lie within
/// |offset delta| <= max_distance + 1, and include a frequent term —
/// oriented so the more frequent side comes first.
PairLists OraclePairs(const Corpus& corpus,
                      const std::vector<TokenId>& frequent,
                      uint32_t max_distance) {
  auto rank = [&](TokenId t) {
    const auto it = std::find(frequent.begin(), frequent.end(), t);
    return it == frequent.end() ? frequent.size()
                                : static_cast<size_t>(it - frequent.begin());
  };
  const int64_t window = static_cast<int64_t>(max_distance) + 1;
  PairLists out;
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    const TokenizedDocument& doc = corpus.doc(n);
    std::map<TokenId, uint32_t> tf;
    for (const TokenId t : doc.tokens) ++tf[t];
    for (size_t i = 0; i < doc.size(); ++i) {
      for (size_t j = i + 1; j < doc.size(); ++j) {
        const TokenId a = doc.tokens[i], b = doc.tokens[j];
        const int64_t delta = static_cast<int64_t>(doc.positions[j].offset) -
                              static_cast<int64_t>(doc.positions[i].offset);
        if (a == b || delta > window) continue;
        const size_t ra = rank(a), rb = rank(b);
        if (ra == frequent.size() && rb == frequent.size()) continue;
        const bool a_first = ra < rb;
        const TokenId first = a_first ? a : b, second = a_first ? b : a;
        PairEntry& e = out[{first, second}][n];
        e.tf_first = tf[first];
        e.tf_second = tf[second];
        e.records.emplace_back(
            a_first ? doc.positions[i].offset : doc.positions[j].offset,
            static_cast<int32_t>(a_first ? delta : -delta));
      }
    }
  }
  for (auto& [key, nodes] : out) {
    for (auto& [node, e] : nodes) std::sort(e.records.begin(), e.records.end());
  }
  return out;
}

PairLists DecodePairs(const PairIndex& pairs) {
  PairLists out;
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (size_t k = 0; k < pairs.num_keys(); ++k) {
    const PairTermKey& key = pairs.key(k);
    std::map<NodeId, PairEntry>& nodes = out[{key.first, key.second}];
    const BlockPostingList& list = pairs.list(k);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      const Status s = list.DecodeBlock(b, &entries, &positions);
      EXPECT_TRUE(s.ok()) << s.ToString();
      for (const PostingEntry& pe : entries) {
        PairEntry& e = nodes[pe.node];
        const PositionInfo& header = positions[pe.pos_begin];
        EXPECT_EQ(header.paragraph, 0u);
        e.tf_first = header.offset;
        e.tf_second = header.sentence;
        for (uint32_t r = 1; r < pe.pos_count; ++r) {
          const PositionInfo& rec = positions[pe.pos_begin + r];
          EXPECT_EQ(rec.paragraph, 0u);
          e.records.emplace_back(rec.offset, PairIndex::UnZigZag(rec.sentence));
        }
      }
    }
  }
  return out;
}

TEST(IndexBuildGoldenTest, PairListsMatchBruteForceOracle) {
  const Corpus corpus = Generated(5, 1200);
  constexpr size_t kFrequent = 8;
  constexpr uint32_t kMaxDistance = 3;
  const InvertedIndex index =
      IndexBuilder::Build(corpus, PairOptions(kFrequent, kMaxDistance));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);

  const std::vector<TokenId> frequent = OracleFrequent(corpus, kFrequent);
  EXPECT_EQ(pairs->frequent_terms(), frequent);
  for (size_t k = 1; k < pairs->num_keys(); ++k) {
    const PairTermKey& prev = pairs->key(k - 1);
    const PairTermKey& cur = pairs->key(k);
    EXPECT_LT(std::make_pair(prev.first, prev.second),
              std::make_pair(cur.first, cur.second));
  }

  const PairLists expected = OraclePairs(corpus, frequent, kMaxDistance);
  const PairLists actual = DecodePairs(*pairs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, nodes] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key.first << "," << key.second;
    EXPECT_TRUE(it->second == nodes) << key.first << "," << key.second;
  }
}

}  // namespace
}  // namespace fts
