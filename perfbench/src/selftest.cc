#include "selftest.h"

#include <chrono>
#include <thread>

#include "loadgen.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

/// Answers instantly, but its first Send stalls the sender for `stall`.
class StallingTarget : public Target {
 public:
  explicit StallingTarget(std::chrono::microseconds stall) : stall_(stall) {}
  size_t lanes() const override { return 1; }
  Waiter Send(size_t, const LogQuery&) override {
    if (sends_++ == 0) std::this_thread::sleep_for(stall_);
    return [] { return Reply{}; };
  }

 private:
  std::chrono::microseconds stall_;
  size_t sends_ = 0;
};

std::string CheckDeterminism() {
  for (LogMix mix : {LogMix::kLight, LogMix::kHeavy, LogMix::kLightPpred}) {
    const uint64_t a = LogHash(BuildLog(mix, 7));
    if (a != LogHash(BuildLog(mix, 7))) return "same seed gave different log hashes";
    if (a == LogHash(BuildLog(mix, 8))) return "different seeds gave equal log hashes";
  }
  return "";
}

std::string CheckPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = Percentile(v, 0.99);
  if (!p99 || *p99 != 990.0) return "p99 of 1..1000 is not 990";
  v.resize(1009);  // rank 999, 10 beyond
  if (!Percentile(v, 0.99)) return "p99 refused with exactly 10 samples beyond";
  v.resize(500);
  if (Percentile(v, 0.99)) return "p99 reported with fewer than 10 samples beyond";
  v.resize(19);
  if (Percentile(v, 0.5)) return "p50 of 19 samples reported (9 beyond)";
  v.push_back(std::numeric_limits<double>::infinity());
  if (!Percentile(v, 0.5)) return "p50 of 20 samples refused";
  return "";
}

std::string CheckDueTimeLatency() {
  QueryLog log;
  log.distinct.push_back(LogQuery{"x", 0, QueryShape::kBoolNoNeg});
  log.entries.assign(100, 0);
  StallingTarget target(std::chrono::microseconds(3000));
  size_t cursor = 0;
  const PhaseStats s = RunOpenLoop(target, log, &cursor, 1000.0, 0.02,
                                   [](uint32_t, const Reply&) { return true; },
                                   nullptr);
  if (s.attempted != 20 || cursor != 20) return "phase did not attempt rate * seconds";
  // Request 1 was due 1 ms after request 0 but could only be sent once the
  // 3 ms stall ended: its lag and its latency must both show the wait.
  if (s.lag_us[1] < 1500.0) return "sender lag behind the due time not reported";
  if (s.latency_us[1] < s.lag_us[1]) return "latency not timed from the due time";
  return "";
}

}  // namespace

std::string RunSelfTests() {
  for (auto* check : {&CheckDeterminism, &CheckPercentiles, &CheckDueTimeLatency}) {
    const std::string failure = check();
    if (!failure.empty()) return failure;
  }
  return "";
}

}  // namespace perfbench
