// Harness self-tests, run before every measurement: seeded log generation
// is deterministic, the percentile helper refuses under-supported tails,
// and open-loop latency is timed from the due time with sender lag
// reported.

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <string>

namespace perfbench {

/// Empty on success, else a description of the first failed check.
std::string RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
