// The benchmark's workloads. Each builds its inputs from the run's seed,
// measures with `tracer` recording spans when it is enabled, checks its
// answers against brute force, and reports its metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

/// tloc-batch, words-batch (batch.cc).
RunResult RunBatchWorkload(const RunOptions& opt, Tracer* tracer);
/// tloc-serve (serve.cc).
RunResult RunServeWorkload(const RunOptions& opt, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
