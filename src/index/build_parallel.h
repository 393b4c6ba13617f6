// Fan-out shared by the two index build paths (index_builder.cc and
// pair_index.cc). Every task they hand out writes only its own output — one
// posting list, one node range — so the result is byte-identical whatever
// the thread count or schedule.

#ifndef FTS_INDEX_BUILD_PARALLEL_H_
#define FTS_INDEX_BUILD_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace fts::build_internal {

/// Builds over fewer context nodes stay on the calling thread: an ingest
/// seal (256 documents) finishes in about the time it takes to start the
/// threads.
inline constexpr size_t kParallelMinNodes = 1024;

/// Threads for a build over `num_nodes` nodes: 1 below kParallelMinNodes,
/// otherwise min(hardware_concurrency(), 8) and never fewer than 1.
inline size_t BuildThreads(size_t num_nodes) {
  if (num_nodes < kParallelMinNodes) return 1;
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 8);
}

/// Calls fn(i) once for every i in [0, n), handing the indices out in
/// ascending order to `threads` workers, the calling thread among them.
/// Calls for distinct i may run concurrently. Returns after every call has
/// finished; the first exception a call throws is rethrown here, and the
/// indices not yet handed out are skipped. Fewer workers run if a thread
/// cannot be started.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto work = [&] {
    try {
      for (size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      next = n;
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(std::min(threads, n));
  for (size_t t = 1; t < std::min(threads, n); ++t) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;
    }
  }
  work();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace fts::build_internal

#endif  // FTS_INDEX_BUILD_PARALLEL_H_
