#include "index/pair_index.h"

#include <algorithm>
#include <span>

#include "index/build_parallel.h"
#include "index/inverted_index.h"

namespace fts {

PairIndex PairIndex::Build(const Corpus& corpus, const InvertedIndex& index,
                           const PairIndexOptions& opts) {
  PairIndex out;
  out.max_distance_ = opts.max_distance;
  if (opts.frequent_terms == 0) return out;

  // Frequent-term selection: top-f by (df desc, text asc). The text
  // tie-break makes the ranking — and therefore every canonical key
  // orientation — a function of the logical corpus alone, independent of
  // dictionary interning order.
  std::vector<TokenId> cands;
  for (TokenId t = 0; t < corpus.vocabulary_size(); ++t) {
    if (index.df(t) > 0) cands.push_back(t);
  }
  std::sort(cands.begin(), cands.end(), [&](TokenId a, TokenId b) {
    const uint32_t dfa = index.df(a), dfb = index.df(b);
    if (dfa != dfb) return dfa > dfb;
    return corpus.token_text(a) < corpus.token_text(b);
  });
  if (cands.size() > opts.frequent_terms) cands.resize(opts.frequent_terms);
  out.frequent_ = std::move(cands);

  // Each list is encoded start to finish in one go: co-occurrence records
  // are collected per node into flat arrays, grouped by key, and only then
  // appended — so no list sits half-built while the others grow.
  //
  // 1. Node ranges (in parallel): the windowed double loop finds every
  //    co-occurrence (offsets are strictly increasing within a document, so
  //    the inner loop is bounded by the window's token span). A node's
  //    records are sorted by (key, offset, signed delta), and each key's run
  //    becomes one entry: the packed tf header plus its records, in the
  //    range's payload array.
  // 2. A stable two-pass counting sort over (second, then first) groups the
  //    entries by packed key, node order kept within each key — exactly the
  //    append order BlockPostingList requires — and leaves keys_ sorted.
  // 3. Lists (in parallel): each depends only on its own entries.
  const size_t vocab = corpus.vocabulary_size();
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> rank_of(vocab, kNone);
  for (size_t r = 0; r < out.frequent_.size(); ++r) {
    rank_of[out.frequent_[r]] = static_cast<uint32_t>(r);
  }

  struct Record {
    uint64_t key;
    uint32_t offset;  // of the key's first term
    int32_t delta;    // to the key's second term
  };
  struct Entry {
    uint64_t key;
    NodeId node;
    uint32_t range;  // index into ranges: whose payload holds the entry
    uint32_t begin;  // into that range's payload
    uint32_t size;   // tf header + records
  };
  struct Range {
    std::vector<Entry> entries;
    std::vector<PositionInfo> payload;
  };
  constexpr size_t kRangeNodes = 256;
  const size_t num_nodes = corpus.num_nodes();
  const size_t threads = build_internal::BuildThreads(num_nodes);
  std::vector<Range> ranges((num_nodes + kRangeNodes - 1) / kRangeNodes);
  const uint32_t window = opts.max_distance + 1;
  build_internal::ParallelFor(ranges.size(), threads, [&](size_t r) {
    Range& range = ranges[r];
    std::vector<uint32_t> tf(vocab, 0);
    std::vector<Record> recs;
    const NodeId end =
        static_cast<NodeId>(std::min(num_nodes, (r + 1) * kRangeNodes));
    for (NodeId n = static_cast<NodeId>(r * kRangeNodes); n < end; ++n) {
      const TokenizedDocument& doc = corpus.doc(n);
      recs.clear();
      for (size_t i = 0; i < doc.size(); ++i) {
        const TokenId a = doc.tokens[i];
        const uint32_t ra = rank_of[a];
        const uint32_t off_i = doc.positions[i].offset;
        ++tf[a];
        for (size_t j = i + 1;
             j < doc.size() && doc.positions[j].offset - off_i <= window; ++j) {
          const TokenId b = doc.tokens[j];
          const uint32_t rb = rank_of[b];
          if (a == b || (ra == kNone && rb == kNone)) continue;
          const uint32_t off_j = doc.positions[j].offset;
          const int32_t gap = static_cast<int32_t>(off_j - off_i);
          recs.push_back(ra < rb ? Record{PackKey(a, b), off_i, gap}
                                 : Record{PackKey(b, a), off_j, -gap});
        }
      }
      std::sort(recs.begin(), recs.end(), [](const Record& x, const Record& y) {
        if (x.key != y.key) return x.key < y.key;
        if (x.offset != y.offset) return x.offset < y.offset;
        return x.delta < y.delta;
      });
      for (size_t i = 0; i < recs.size();) {
        const uint64_t key = recs[i].key;
        const size_t begin = range.payload.size();
        range.payload.push_back({tf[static_cast<TokenId>(key >> 32)],
                                 tf[static_cast<TokenId>(key)], 0});
        for (; i < recs.size() && recs[i].key == key; ++i) {
          range.payload.push_back(
              {recs[i].offset, ZigZag(recs[i].delta), 0});
        }
        range.entries.push_back(
            {key, n, static_cast<uint32_t>(r), static_cast<uint32_t>(begin),
             static_cast<uint32_t>(range.payload.size() - begin)});
      }
      for (const TokenId t : doc.tokens) tf[t] = 0;
    }
  });

  std::vector<const Entry*> order, sorted;
  for (const Range& range : ranges) {
    for (const Entry& e : range.entries) order.push_back(&e);
  }
  for (const int shift : {0, 32}) {  // by second, then stably by first
    std::vector<size_t> start(vocab + 1, 0);
    for (const Entry* e : order) ++start[static_cast<TokenId>(e->key >> shift) + 1];
    for (size_t t = 0; t < vocab; ++t) start[t + 1] += start[t];
    sorted.resize(order.size());
    for (const Entry* e : order) {
      sorted[start[static_cast<TokenId>(e->key >> shift)]++] = e;
    }
    order.swap(sorted);
  }
  std::vector<const Entry*>().swap(sorted);

  std::vector<size_t> list_begin;  // into order: one per list, then the end
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || order[i]->key != order[i - 1]->key) list_begin.push_back(i);
  }
  out.keys_.reserve(list_begin.size());
  for (const size_t i : list_begin) {
    out.keys_.push_back({static_cast<TokenId>(order[i]->key >> 32),
                         static_cast<TokenId>(order[i]->key)});
  }
  list_begin.push_back(order.size());
  out.lists_.resize(out.keys_.size());
  build_internal::ParallelFor(out.lists_.size(), threads, [&](size_t k) {
    BlockPostingList& list = out.lists_[k];
    for (size_t i = list_begin[k]; i < list_begin[k + 1]; ++i) {
      const Entry& e = *order[i];
      list.Append(e.node, std::span<const PositionInfo>(
                              ranges[e.range].payload.data() + e.begin, e.size));
    }
    list.Finish();
  });
  out.RebuildLookups();
  return out;
}

PairIndex::Lookup PairIndex::Find(TokenId a, TokenId b) const {
  Lookup out;
  if (a == b) return out;
  const size_t ra = rank(a), rb = rank(b);
  if (ra == kNotFrequent && rb == kNotFrequent) return out;
  out.eligible = true;
  out.swapped = !(ra < rb);
  const auto it =
      slots_.find(out.swapped ? PackKey(b, a) : PackKey(a, b));
  if (it != slots_.end()) out.list = &lists_[it->second];
  return out;
}

void PairIndex::RebuildLookups() {
  rank_.clear();
  rank_.reserve(frequent_.size());
  for (size_t r = 0; r < frequent_.size(); ++r) rank_.emplace(frequent_[r], r);
  slots_.clear();
  slots_.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    slots_.emplace(PackKey(keys_[i].first, keys_[i].second), i);
  }
}

size_t PairIndex::MemoryUsage() const {
  size_t bytes = sizeof(PairIndex);
  bytes += frequent_.capacity() * sizeof(TokenId);
  bytes += keys_.capacity() * sizeof(PairTermKey);
  bytes += lists_.capacity() * sizeof(BlockPostingList);
  for (const BlockPostingList& l : lists_) bytes += l.resident_bytes();
  bytes += rank_.bucket_count() * sizeof(void*) +
           rank_.size() * (sizeof(std::pair<TokenId, size_t>) + 2 * sizeof(void*));
  bytes += slots_.bucket_count() * sizeof(void*) +
           slots_.size() * (sizeof(std::pair<uint64_t, size_t>) + 2 * sizeof(void*));
  return bytes;
}

Status PairIndex::Validate(uint64_t cnodes) const {
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (const BlockPostingList& l : lists_) {
    uint64_t total_entries = 0;
    uint64_t total_positions = 0;
    bool have_prev = false;
    NodeId prev = 0;
    for (size_t b = 0; b < l.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(l.DecodeBlock(b, &entries, &positions));
      for (const PostingEntry& e : entries) {
        if (have_prev && e.node <= prev) {
          return Status::Corruption("non-increasing node ids in pair list");
        }
        if (e.node >= cnodes) {
          return Status::Corruption("pair-list node id out of range");
        }
        prev = e.node;
        have_prev = true;
        // Every entry is the packed tf header plus >= 1 record, and every
        // record's delta respects the build window — anything else cannot
        // have come from the builder.
        if (e.pos_count < 2) {
          return Status::Corruption("pair-list entry missing records");
        }
        const PositionInfo& h = positions[e.pos_begin];
        if (h.offset == 0 || h.sentence == 0) {
          return Status::Corruption("pair-list entry has zero term frequency");
        }
        for (uint32_t k = 1; k < e.pos_count; ++k) {
          const int64_t delta =
              UnZigZag(positions[e.pos_begin + k].sentence);
          if (delta == 0 || delta > static_cast<int64_t>(max_distance_) + 1 ||
              delta < -(static_cast<int64_t>(max_distance_) + 1)) {
            return Status::Corruption("pair-list record delta out of window");
          }
        }
      }
      total_entries += entries.size();
      total_positions += positions.size();
    }
    if (total_entries != l.num_entries()) {
      return Status::Corruption("pair-list entry total disagrees with header");
    }
    if (total_positions != l.total_positions()) {
      return Status::Corruption("pair-list position total disagrees with header");
    }
  }
  return Status::OK();
}

}  // namespace fts
