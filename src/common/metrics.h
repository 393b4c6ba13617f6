// Machine-independent cost counters collected during query evaluation.
//
// The paper's complexity model (Section 5.1) counts sequential inverted-list
// accesses; these counters let the benchmark harness validate the *shape* of
// the complexity hierarchy (Figure 3) without depending on wall-clock noise.

#ifndef FTS_COMMON_METRICS_H_
#define FTS_COMMON_METRICS_H_

#include <cstdint>
#include <string>

namespace fts {

/// Per-query evaluation cost counters. Every engine resets and fills one of
/// these for each Evaluate() call; all counters are cumulative within a call.
struct EvalCounters {
  /// Inverted-list entries visited via nextEntry() (one per (node, token)).
  uint64_t entries_scanned = 0;
  /// Individual positions read from PosLists.
  uint64_t positions_scanned = 0;
  /// Tuples materialized by the algebra engine (COMP only; pipelined
  /// engines materialize nothing). An occurrence scan charges one per
  /// position; a node-level scan (project[](scan(t)), evaluated per entry)
  /// charges one per list entry and reads no positions.
  uint64_t tuples_materialized = 0;
  /// Position-predicate evaluations.
  uint64_t predicate_evals = 0;
  /// advanceNode/advancePosition calls on pipelined cursors.
  uint64_t cursor_ops = 0;
  /// Ordering permutations executed (NPRED only; 1 for everything else).
  uint64_t orderings_run = 0;
  /// Skip-header probes made by SeekEntry (binary-search steps over the
  /// block skip table, or over raw entries for uncompressed lists). These
  /// are *not* sequential accesses in the paper's model; they are reported
  /// separately so the paper's operation-count figures stay honest.
  uint64_t skip_checks = 0;
  /// Compressed blocks decoded by block cursors (sequential or seek).
  uint64_t blocks_decoded = 0;
  /// Posting entries decoded from compressed blocks. A seek that lands in
  /// one block decodes one block's worth, independent of list length.
  uint64_t entries_decoded = 0;
  /// Positions decoded from compressed PosList payloads (charged on the
  /// first GetPositions() of an entry). Node-level work — df lookups, BOOL
  /// merges, zig-zag alignment, COMP's node-level scans — keeps this at
  /// zero.
  uint64_t positions_decoded = 0;
  /// Blocks whose ids + entry headers were decoded in one bulk pass through
  /// the group varint decoder (every cursor block load takes this path; a
  /// cache hit does not).
  uint64_t blocks_bulk_decoded = 0;
  /// Decoded-block cache hits: block loads served from a per-query (L1)
  /// DecodedBlockCache without decoding anything.
  uint64_t cache_hits = 0;
  /// Decoded-block cache misses: block loads that decoded and inserted (or,
  /// with an L2 attached, fell through to it).
  uint64_t cache_misses = 0;
  /// Cross-query SharedBlockCache (L2) hits: block loads served from the
  /// shard maps without decoding — typically blocks another query already
  /// paid to bulk-decode (and, on mmap-served indexes, first-touch
  /// validate).
  uint64_t shared_cache_hits = 0;
  /// Cross-query SharedBlockCache (L2) misses: block loads that decoded and
  /// published the block for later queries.
  uint64_t shared_cache_misses = 0;
  /// Blocks that passed first-touch validation (checksum + structure) while
  /// this query was running — nonzero only on the first queries after a
  /// lazy (mmap) index load; once a block's validation is memoized, later
  /// decodes charge nothing here.
  uint64_t first_touch_validations = 0;
  /// Blocks a block-max top-k evaluation hopped over because their summed
  /// impact upper bounds could not beat the heap threshold — blocks that a
  /// full evaluation would have decoded and this query never did. The
  /// early-termination win in one number.
  uint64_t blocks_skipped_by_score = 0;
  /// Varint groups decoded through a SIMD arm (one per bulk group-decoder
  /// call — entry-header streams, position-triple chunks, bitset-block
  /// count/length streams). Zero when the scalar arm is dispatched
  /// (FTS_FORCE_SCALAR_DECODE=1 or no SSSE3), so tests can assert the
  /// intended arm actually ran.
  uint64_t simd_groups_decoded = 0;
  /// Dense (bitset-encoded) block pairs intersected at word level by the
  /// BOOL zig-zag AND fast path instead of entry-at-a-time seeking.
  uint64_t bitset_blocks_intersected = 0;
  /// Phrase/NEAR operators the multi-index planner routed to an auxiliary
  /// (frequent-term, other-term) pair list instead of the position
  /// pipeline (docs/pair_index.md). One per routed operator, including
  /// routes that prove the result empty without touching a list.
  uint64_t pair_seeks = 0;
  /// Pair-list entries (one per matching node) walked by routed operators.
  /// The pair-path analogue of entries_scanned; the ratio against the
  /// pipeline's entries_scanned on the same query is the win.
  uint64_t pair_entries_decoded = 0;

  void Reset() { *this = EvalCounters{}; }

  /// Field-wise accumulation — the one aggregation routine shared by the
  /// NPRED per-ordering loop, ExecContext, and service-level metrics, so no
  /// caller hand-copies field sums (and a new counter added here propagates
  /// everywhere automatically).
  void MergeFrom(const EvalCounters& o) { *this += o; }

  EvalCounters& operator+=(const EvalCounters& o) {
    entries_scanned += o.entries_scanned;
    positions_scanned += o.positions_scanned;
    tuples_materialized += o.tuples_materialized;
    predicate_evals += o.predicate_evals;
    cursor_ops += o.cursor_ops;
    orderings_run += o.orderings_run;
    skip_checks += o.skip_checks;
    blocks_decoded += o.blocks_decoded;
    entries_decoded += o.entries_decoded;
    positions_decoded += o.positions_decoded;
    blocks_bulk_decoded += o.blocks_bulk_decoded;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    shared_cache_hits += o.shared_cache_hits;
    shared_cache_misses += o.shared_cache_misses;
    first_touch_validations += o.first_touch_validations;
    blocks_skipped_by_score += o.blocks_skipped_by_score;
    simd_groups_decoded += o.simd_groups_decoded;
    bitset_blocks_intersected += o.bitset_blocks_intersected;
    pair_seeks += o.pair_seeks;
    pair_entries_decoded += o.pair_entries_decoded;
    return *this;
  }

  std::string ToString() const {
    return "entries=" + std::to_string(entries_scanned) +
           " positions=" + std::to_string(positions_scanned) +
           " tuples=" + std::to_string(tuples_materialized) +
           " preds=" + std::to_string(predicate_evals) +
           " cursor_ops=" + std::to_string(cursor_ops) +
           " orderings=" + std::to_string(orderings_run) +
           " skip_checks=" + std::to_string(skip_checks) +
           " blocks_decoded=" + std::to_string(blocks_decoded) +
           " entries_decoded=" + std::to_string(entries_decoded) +
           " positions_decoded=" + std::to_string(positions_decoded) +
           " blocks_bulk_decoded=" + std::to_string(blocks_bulk_decoded) +
           " cache_hits=" + std::to_string(cache_hits) +
           " cache_misses=" + std::to_string(cache_misses) +
           " l2_hits=" + std::to_string(shared_cache_hits) +
           " l2_misses=" + std::to_string(shared_cache_misses) +
           " first_touch=" + std::to_string(first_touch_validations) +
           " blocks_skipped_by_score=" + std::to_string(blocks_skipped_by_score) +
           " simd_groups=" + std::to_string(simd_groups_decoded) +
           " bitset_ands=" + std::to_string(bitset_blocks_intersected) +
           " pair_seeks=" + std::to_string(pair_seeks) +
           " pair_entries=" + std::to_string(pair_entries_decoded);
  }
};

}  // namespace fts

#endif  // FTS_COMMON_METRICS_H_
