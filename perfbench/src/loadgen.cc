#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "stats.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Pending {
  size_t slot = 0;  ///< index within the phase
  uint32_t query = 0;
  int64_t due_ns = 0;
  Target::Waiter wait;
};

/// Hand-off queue from the sender to one lane's waiter.
struct Lane {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;

  void Push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
  }

  /// False once closed and drained.
  bool Pop(Pending* out) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return closed || !queue.empty(); });
    if (queue.empty()) return false;
    *out = std::move(queue.front());
    queue.pop_front();
    return true;
  }
};

/// Picks a request's lane. Replies on one connection come back in request
/// order. Independent users would not share a connection, so with a
/// handful of connections the slow classes (NPRED, COMP: tens of ms) get
/// the last lane to themselves, and cheap requests never wait behind them.
class LanePicker {
 public:
  LanePicker(const QueryLog& log, size_t lanes) : log_(log), lanes_(lanes) {
    bool any_slow = false;
    for (uint32_t qid = 0; qid < log.distinct.size() && !any_slow; ++qid) {
      any_slow = Slow(qid);
    }
    fast_lanes_ = any_slow && lanes > 1 ? lanes - 1 : lanes;
  }

  size_t Pick(uint32_t qid) {
    return fast_lanes_ < lanes_ && Slow(qid) ? lanes_ - 1 : fast_sent_++ % fast_lanes_;
  }

 private:
  bool Slow(uint32_t qid) const {
    const QueryShape shape = log_.distinct[qid].shape;
    return shape == QueryShape::kNpred || shape == QueryShape::kComp;
  }

  const QueryLog& log_;
  size_t lanes_;
  size_t fast_lanes_ = 1;
  size_t fast_sent_ = 0;
};

/// Checks one reply; returns true when it is a correct answer and
/// otherwise counts it as failed or mismatched in `out`.
bool Accept(const QueryLog& log, const Checker& check, const Pending& p, const Reply& reply,
            std::mutex& mu, PhaseStats& out) {
  const bool ok = reply.status.ok();
  if (ok && check(p.query, reply)) return true;
  std::lock_guard<std::mutex> lock(mu);
  if (!ok) {
    ++out.failed;
  } else {
    ++out.mismatched;
    if (out.first_mismatch.empty()) out.first_mismatch = log.distinct[p.query].text;
  }
  return false;
}

}  // namespace

void Append(PhaseStats& into, PhaseStats&& from) {
  into.rate_qps = from.rate_qps;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.mismatched += from.mismatched;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(), from.latency_us.end());
  into.lag_us.insert(into.lag_us.end(), from.lag_us.begin(), from.lag_us.end());
  into.backlog_max = std::max(into.backlog_max, from.backlog_max);
  into.window_qps.insert(into.window_qps.end(), from.window_qps.begin(), from.window_qps.end());
  if (into.first_mismatch.empty()) into.first_mismatch = std::move(from.first_mismatch);
}

PhaseStats RunOpenLoop(Target& target, const QueryLog& log, size_t* cursor,
                       double rate_qps, double seconds, const Checker& check,
                       Tracer* tracer) {
  const size_t n =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate_qps * seconds)));
  const size_t start = *cursor;
  *cursor += n;

  PhaseStats out;
  out.rate_qps = rate_qps;
  out.attempted = n;
  out.latency_us.assign(n, kInf);
  out.lag_us.assign(n, 0.0);

  std::atomic<size_t> completed{0};
  std::mutex result_mu;  // guards failed/mismatched/first_mismatch

  const size_t lanes = target.lanes();
  std::vector<Lane> lane_queues(lanes);
  LanePicker picker(log, lanes);
  std::vector<std::thread> waiters;
  waiters.reserve(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    waiters.emplace_back([&, l] {
      SpanBuffer spans = tracer != nullptr ? tracer->NewBuffer() : SpanBuffer(0);
      Pending p;
      while (lane_queues[l].Pop(&p)) {
        const Reply reply = p.wait();
        const int64_t done_ns = NowNs();
        if (tracer != nullptr) {
          spans.Add("loadgen.request", p.due_ns, done_ns, start + p.slot);
        }
        if (Accept(log, check, p, reply, result_mu, out)) {
          out.latency_us[p.slot] = UsBetween(p.due_ns, done_ns);
        }
        completed.fetch_add(1);
      }
      if (tracer != nullptr) tracer->Collect(std::move(spans));
    });
  }

  // The sender runs on this thread; a 1 ns timer slack keeps its sleeps
  // within a few microseconds of the due time.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  SpanBuffer spans = tracer != nullptr ? tracer->NewBuffer() : SpanBuffer(0);
  const double interval_ns = 1e9 / rate_qps;
  const int64_t t0 = NowNs() + 1000000;  // first request due in 1 ms
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    const size_t entry = (start + i) % log.entries.size();
    const uint32_t qid = log.entries[entry];
    Pending p;
    p.slot = i;
    p.query = qid;
    p.due_ns = due;
    const size_t lane = picker.Pick(qid);
    p.wait = target.Send(lane, log.distinct[qid]);
    if (tracer != nullptr) spans.Add("loadgen.send", now, NowNs(), start + i);
    out.lag_us[i] = UsBetween(due, now);
    out.backlog_max = std::max(out.backlog_max, i - completed.load());
    lane_queues[lane].Push(std::move(p));
  }
  for (Lane& lane : lane_queues) lane.Close();
  for (std::thread& t : waiters) t.join();
  prctl(PR_SET_TIMERSLACK, old_slack > 0 ? old_slack : 50000, 0, 0, 0);
  if (tracer != nullptr) tracer->Collect(std::move(spans));

  return out;
}

PhaseStats RunClosedLoop(Target& target, const QueryLog& log, size_t* cursor,
                         size_t depth, double seconds, const Checker& check) {
  PhaseStats out;
  std::mutex result_mu;  // guards failed/mismatched/first_mismatch
  std::mutex flight_mu;
  std::condition_variable flight_cv;
  size_t inflight = 0;

  const size_t lanes = target.lanes();
  std::vector<Lane> lane_queues(lanes);
  LanePicker picker(log, lanes);
  // Per lane: reply time and send-to-reply latency of each correct reply.
  std::vector<std::vector<int64_t>> done(lanes);
  std::vector<std::vector<double>> latency(lanes);
  std::vector<std::thread> waiters;
  waiters.reserve(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    waiters.emplace_back([&, l] {
      Pending p;
      while (lane_queues[l].Pop(&p)) {
        const Reply reply = p.wait();
        const int64_t done_ns = NowNs();
        if (Accept(log, check, p, reply, result_mu, out)) {
          done[l].push_back(done_ns);
          latency[l].push_back(UsBetween(p.due_ns, done_ns));
        }
        {
          std::lock_guard<std::mutex> lock(flight_mu);
          --inflight;
        }
        flight_cv.notify_one();
      }
    });
  }

  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  size_t sent = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(flight_mu);
      flight_cv.wait(lock, [&] { return inflight < depth; });
    }
    const int64_t now = NowNs();
    if (now >= end) break;
    {
      std::lock_guard<std::mutex> lock(flight_mu);
      ++inflight;
    }
    const uint32_t qid = log.entries[(*cursor + sent) % log.entries.size()];
    Pending p;
    p.slot = sent++;
    p.query = qid;
    p.due_ns = now;
    const size_t lane = picker.Pick(qid);
    p.wait = target.Send(lane, log.distinct[qid]);
    lane_queues[lane].Push(std::move(p));
  }
  for (Lane& lane : lane_queues) lane.Close();
  for (std::thread& t : waiters) t.join();

  *cursor += sent;
  out.rate_qps = static_cast<double>(sent) / seconds;
  out.attempted = sent;
  // Reply rate of each window: replies after its first one over the time
  // from its first reply to its last.
  const int64_t window_ns = static_cast<int64_t>(kRateWindowSeconds * 1e9);
  const size_t windows = static_cast<size_t>((end - t0) / window_ns);
  std::vector<size_t> count(windows, 0);
  std::vector<int64_t> first(windows, std::numeric_limits<int64_t>::max());
  std::vector<int64_t> last(windows, 0);
  for (size_t l = 0; l < lanes; ++l) {
    for (int64_t d : done[l]) {
      const size_t w = static_cast<size_t>((d - t0) / window_ns);
      if (w >= windows) continue;
      ++count[w];
      first[w] = std::min(first[w], d);
      last[w] = std::max(last[w], d);
    }
    out.latency_us.insert(out.latency_us.end(), latency[l].begin(), latency[l].end());
  }
  for (size_t w = 1; w < windows; ++w) {
    if (count[w] < 2 || last[w] <= first[w]) continue;
    out.window_qps.push_back(static_cast<double>(count[w] - 1) * 1e9 /
                             static_cast<double>(last[w] - first[w]));
  }
  return out;
}

}  // namespace perfbench
