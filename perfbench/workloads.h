// The three workloads and the host-ceiling probe of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

// Streaming ceilings of this host, measured at the engines' thread count.
struct HostCeilings {
  double mem_read_gb_per_s = 0.0;
  double memcpy_gb_per_s = 0.0;
  double file_read_mb_per_s = 0.0;
};

// Memory read and memcpy over arrays of at least 4x the last-level cache, and
// a sequential PosixDevice read of `file` (in `dir`) at the 1 MiB I/O unit.
HostCeilings MeasureHost(const RunConfig& cfg, Tracer& tracer, const std::string& dir,
                         const std::string& file);
void ReportHost(const HostCeilings& host, Report& report);

// Each runs one workload end to end, prints the result line and returns the
// process exit code (0 whenever the run completed, verified or not).
int RunPageRankInMemory(const RunConfig& cfg);
int RunPageRankOutOfCore(const RunConfig& cfg);
int RunServeMixed(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
