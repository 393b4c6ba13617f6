#include "index/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "index/index_builder.h"
#include "index/index_io.h"

namespace fts {

std::shared_ptr<const InvertedIndex> SegmentBuffer::Seal(
    const IndexBuildOptions& options) {
  auto segment = std::make_shared<const InvertedIndex>(
      IndexBuilder::Build(corpus_, options));
  corpus_ = Corpus();
  return segment;
}

namespace {

Status IOErrorFromErrno(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

/// fsync(2)s `path` (a file or a directory).
Status SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return IOErrorFromErrno("open " + path, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return IOErrorFromErrno("fsync " + path, err);
  return Status::OK();
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

Status SaveSegmentAtomic(const InvertedIndex& segment, const std::string& path) {
  const std::string tmp = path + ".tmp";
  FTS_RETURN_IF_ERROR(SaveIndexToFile(segment, tmp));
  // The bytes must be on disk before the rename publishes them: otherwise
  // a crash can leave the new name pointing at a torn or empty file.
  if (Status synced = SyncPath(tmp, O_WRONLY); !synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return IOErrorFromErrno("rename " + tmp + " -> " + path, err);
  }
  // And the rename itself is durable only once the directory entry is.
  return SyncPath(ParentDir(path), O_RDONLY | O_DIRECTORY);
}

}  // namespace fts
