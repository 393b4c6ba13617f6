#include "index/index_builder.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "index/block_posting_list.h"
#include "index/build_parallel.h"

namespace fts {

InvertedIndex IndexBuilder::Build(const Corpus& corpus) {
  return Build(corpus, IndexBuildOptions{});
}

InvertedIndex IndexBuilder::Build(const Corpus& corpus,
                                  const IndexBuildOptions& options) {
  InvertedIndex index;
  const size_t num_nodes = corpus.num_nodes();
  const size_t vocab = corpus.vocabulary_size();

  index.token_texts_.reserve(vocab);
  for (TokenId t = 0; t < vocab; ++t) {
    index.token_texts_.push_back(corpus.token_text(t));
    index.token_ids_.emplace(corpus.token_text(t), t);
  }
  index.block_lists_.resize(vocab);
  index.unique_tokens_.assign(num_nodes, 0);
  index.node_norms_.assign(num_nodes, 0.0);

  // Every occurrence is grouped by token with a stable counting sort —
  // node order, then offset order, kept within each token — so each list
  // is encoded start to finish in one go from its own slice. Lists depend
  // only on their own slices, so they encode in parallel (IL_ANY, the
  // largest, first), byte-identical to a sequential build.
  IndexStats& s = index.stats_;
  std::vector<size_t> token_begin(vocab + 1, 0);
  for (NodeId n = 0; n < num_nodes; ++n) {
    const TokenizedDocument& doc = corpus.doc(n);
    for (const TokenId t : doc.tokens) ++token_begin[t + 1];
    if (!doc.positions.empty()) {
      s.total_positions += doc.positions.size();
      s.pos_per_cnode = std::max(s.pos_per_cnode,
                                 static_cast<uint32_t>(doc.positions.size()));
    }
  }
  for (size_t t = 0; t < vocab; ++t) token_begin[t + 1] += token_begin[t];
  std::vector<NodeId> occ_node(token_begin[vocab]);
  std::vector<PositionInfo> occ_pos(token_begin[vocab]);
  {
    std::vector<size_t> fill(token_begin.begin(), token_begin.end() - 1);
    for (NodeId n = 0; n < num_nodes; ++n) {
      const TokenizedDocument& doc = corpus.doc(n);
      for (size_t i = 0; i < doc.size(); ++i) {
        const size_t k = fill[doc.tokens[i]]++;
        occ_node[k] = n;
        occ_pos[k] = doc.positions[i];
      }
    }
  }
  const size_t threads = build_internal::BuildThreads(num_nodes);
  std::vector<uint32_t> longest_entry(vocab, 0);
  build_internal::ParallelFor(vocab + 1, threads, [&](size_t task) {
    if (task == 0) {
      for (NodeId n = 0; n < num_nodes; ++n) {
        const TokenizedDocument& doc = corpus.doc(n);
        if (!doc.positions.empty()) index.block_any_list_->Append(n, doc.positions);
      }
      index.block_any_list_->Finish();
      return;
    }
    const TokenId t = static_cast<TokenId>(task - 1);
    BlockPostingList& list = index.block_lists_[t];
    for (size_t k = token_begin[t]; k < token_begin[t + 1];) {
      size_t end = k + 1;
      while (end < token_begin[t + 1] && occ_node[end] == occ_node[k]) ++end;
      list.Append(occ_node[k], std::span<const PositionInfo>(&occ_pos[k], end - k));
      longest_entry[t] = std::max(longest_entry[t], static_cast<uint32_t>(end - k));
      k = end;
    }
    list.Finish();
  });
  for (const uint32_t len : longest_entry) {
    s.pos_per_entry = std::max(s.pos_per_entry, len);
  }
  std::vector<NodeId>().swap(occ_node);
  std::vector<PositionInfo>().swap(occ_pos);

  // TF-IDF norms: ||n||_2 = sqrt(sum_t (tf(n,t) * idf(t))^2) using the
  // paper's formulae tf = occurs/unique_tokens, idf = ln(1 + db_size/df).
  // df comes from the block-list headers (no payload decode). The sum runs
  // in *sorted token text* order — a canonical order independent of
  // dictionary interning — so the floating-point addition sequence is
  // identical wherever the same logical corpus is indexed. Segment-level
  // snapshot stats (index/index_snapshot.h) recompute norms with global
  // document frequencies in the same order, which is what makes
  // multi-segment scores bit-identical to a single-shot build. Token texts
  // are ranked once over the vocabulary, so each node sorts integers.
  std::vector<TokenId> by_text(vocab);
  for (TokenId t = 0; t < vocab; ++t) by_text[t] = t;
  std::sort(by_text.begin(), by_text.end(), [&corpus](TokenId a, TokenId b) {
    return corpus.token_text(a) < corpus.token_text(b);
  });
  std::vector<uint32_t> text_rank(vocab);
  for (size_t r = 0; r < vocab; ++r) text_rank[by_text[r]] = static_cast<uint32_t>(r);
  std::vector<TokenId>().swap(by_text);

  constexpr size_t kRangeNodes = 256;
  build_internal::ParallelFor(
      (num_nodes + kRangeNodes - 1) / kRangeNodes, threads, [&](size_t r) {
        std::vector<uint32_t> tf(vocab, 0);
        std::vector<TokenId> toks;
        const NodeId end =
            static_cast<NodeId>(std::min(num_nodes, (r + 1) * kRangeNodes));
        for (NodeId n = static_cast<NodeId>(r * kRangeNodes); n < end; ++n) {
          toks.clear();
          for (const TokenId t : corpus.doc(n).tokens) {
            if (tf[t]++ == 0) toks.push_back(t);
          }
          const uint32_t uniq = static_cast<uint32_t>(toks.size());
          index.unique_tokens_[n] = uniq;
          if (uniq == 0) {
            index.node_norms_[n] = 1.0;  // empty node: neutral norm, never scored
            continue;
          }
          std::sort(toks.begin(), toks.end(), [&text_rank](TokenId a, TokenId b) {
            return text_rank[a] < text_rank[b];
          });
          double sum_sq = 0;
          for (const TokenId tok : toks) {
            const double df =
                static_cast<double>(index.block_lists_[tok].num_entries());
            const double idf = std::log(1.0 + static_cast<double>(num_nodes) / df);
            const double tf_n = static_cast<double>(tf[tok]) / uniq;
            sum_sq += tf_n * idf * tf_n * idf;
            tf[tok] = 0;
          }
          index.node_norms_[n] = sum_sq > 0 ? std::sqrt(sum_sq) : 1.0;
        }
      });
  index.RecomputeMinUniqNorm();

  // Remaining corpus shape statistics (paper Section 5.1.2 parameters).
  s.cnodes = num_nodes;
  uint64_t total_entries = 0;
  uint64_t nonempty_lists = 0;
  for (const BlockPostingList& l : index.block_lists_) {
    if (l.empty()) continue;
    ++nonempty_lists;
    total_entries += l.num_entries();
    s.entries_per_token =
        std::max(s.entries_per_token, static_cast<uint32_t>(l.num_entries()));
  }
  s.avg_pos_per_cnode =
      num_nodes == 0 ? 0 : static_cast<double>(s.total_positions) / num_nodes;
  s.avg_entries_per_token =
      nonempty_lists == 0 ? 0 : static_cast<double>(total_entries) / nonempty_lists;
  s.avg_pos_per_entry =
      total_entries == 0 ? 0 : static_cast<double>(s.total_positions) / total_entries;

  // Auxiliary pair lists last: their frequent-term ranking reads the
  // finished token-list dfs, and nothing above depends on them.
  if (options.pairs.frequent_terms > 0) {
    index.pair_index_ = std::make_unique<PairIndex>(
        PairIndex::Build(corpus, index, options.pairs));
    if (index.pair_index_->num_keys() == 0) index.pair_index_.reset();
  }

  return index;
}

}  // namespace fts
