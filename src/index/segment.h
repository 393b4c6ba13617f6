// Writer-side segment building (the ingest half of docs/ingestion.md).
//
// A SegmentBuffer accumulates documents in memory (an ordinary Corpus);
// Seal() runs IndexBuilder over it and hands back an immutable segment —
// just an InvertedIndex, so a sealed segment serializes, mmaps, caches and
// evaluates exactly like a one-shot index. Durability is write, sync,
// rename, sync: SaveSegmentAtomic serializes to `<path>.tmp`, fsyncs it,
// renames it into place and fsyncs the directory, so a crash mid-flush
// leaves either the old file or no file, never a torn one, and a returned
// OK means the file survives a crash.

#ifndef FTS_INDEX_SEGMENT_H_
#define FTS_INDEX_SEGMENT_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "index/index_builder.h"
#include "index/inverted_index.h"
#include "text/corpus.h"

namespace fts {

/// In-memory accumulation buffer for the segment under construction. Not
/// thread-safe: the owning writer (IngestService) serializes access.
class SegmentBuffer {
 public:
  /// Appends one document (tokenizing it) and returns its id local to this
  /// segment.
  NodeId Add(std::string_view text) { return corpus_.AddDocument(text); }

  size_t num_docs() const { return corpus_.num_nodes(); }
  bool empty() const { return corpus_.num_nodes() == 0; }
  const Corpus& corpus() const { return corpus_; }

  /// Builds the immutable segment for everything added so far and resets
  /// the buffer for the next segment. `options` rides through to
  /// IndexBuilder — a sealed segment carries pair lists exactly when its
  /// owner asks for them.
  std::shared_ptr<const InvertedIndex> Seal(
      const IndexBuildOptions& options = {});

 private:
  Corpus corpus_;
};

/// Serializes `segment` to `path` crash-consistently and durably: writes
/// and fsyncs `<path>.tmp`, renames it into place (rename(2) is atomic
/// within a filesystem), then fsyncs the parent directory so the rename
/// itself survives a crash.
Status SaveSegmentAtomic(const InvertedIndex& segment, const std::string& path);

}  // namespace fts

#endif  // FTS_INDEX_SEGMENT_H_
