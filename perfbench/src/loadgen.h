// Load generation. An open-loop phase has one sender thread issue request
// i at its due time t0 + i / rate, whether or not earlier requests have
// answered (independent users, not callers that wait), and hand the
// pending reply to the waiter thread of the request's lane (one lane per
// client connection; slow NPRED/COMP requests get a lane of their own).
// Latency is timed from the due time to the decoded reply, so a stall in
// the system also charges the requests queued behind it; how late the
// sender itself ran is reported as lag. A closed-loop phase keeps a fixed
// number of requests in flight instead and measures the reply rate.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// A reply reduced to what correctness checking needs.
struct Reply {
  fts::Status status;
  std::vector<uint64_t> nodes;
  std::vector<double> scores;
};

/// The system under load, seen from the client side.
class Target {
 public:
  virtual ~Target() = default;

  /// Blocks until the reply is available (or the request failed).
  using Waiter = std::function<Reply()>;

  /// Number of independent client lanes (connections).
  virtual size_t lanes() const = 0;

  /// Issues `query` on `lane` without waiting for the answer. Called from
  /// the sender thread only; the returned waiter runs on the lane's
  /// waiter thread.
  virtual Waiter Send(size_t lane, const LogQuery& query) = 0;
};

/// Returns true when `reply` is a correct answer to distinct query `id`.
using Checker = std::function<bool(uint32_t id, const Reply& reply)>;

struct PhaseStats {
  double rate_qps = 0.0;
  size_t attempted = 0;
  size_t failed = 0;      ///< error status, refusal or timeout
  size_t mismatched = 0;  ///< OK status but wrong answer
  /// Open loop: due-to-reply latency of every attempt, failures +infinity.
  /// Closed loop: send-to-reply latency of every correct reply.
  std::vector<double> latency_us;
  /// Send time minus due time, per attempt.
  std::vector<double> lag_us;
  /// Open loop: most requests in flight when one was sent.
  size_t backlog_max = 0;
  /// Closed loop only: reply rate in each kRateWindowSeconds window.
  std::vector<double> window_qps;
  std::string first_mismatch;
};

/// Runs one open-loop phase of `seconds` at `rate_qps`, drawing queries
/// from `log` starting at *cursor (advanced past the phase). With a
/// tracer, every request records loadgen.send and loadgen.request spans.
PhaseStats RunOpenLoop(Target& target, const QueryLog& log, size_t* cursor,
                       double rate_qps, double seconds, const Checker& check,
                       Tracer* tracer);

/// Pools `from` into `into` (rate: the last block's; backlog: the worst).
void Append(PhaseStats& into, PhaseStats&& from);

/// Window over which a closed loop counts completed replies.
inline constexpr double kRateWindowSeconds = 0.125;

/// Runs one closed-loop phase of `seconds`: the sender keeps `depth`
/// requests in flight (callers that each wait for their reply), issuing
/// the next one as soon as any reply arrives. Latency is timed from the
/// send; window_qps holds the reply rate of each full window after the
/// first (which fills the pipeline), from its first reply to its last.
PhaseStats RunClosedLoop(Target& target, const QueryLog& log, size_t* cursor,
                         size_t depth, double seconds, const Checker& check);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
