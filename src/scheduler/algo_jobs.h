// Named-job factory: turn "pagerank", "bfs:src=5", ... into ScheduledJobs.
//
// Shared by the CLI's --jobs batch mode, the fig30 scan-sharing bench and
// the scheduler tests, so all three agree on job spec syntax, store wiring
// (attach mode against a scan source) and result extraction. Each job's
// output lands in a caller-held JobOutput after the scheduler finalizes it.
#ifndef XSTREAM_SCHEDULER_ALGO_JOBS_H_
#define XSTREAM_SCHEDULER_ALGO_JOBS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sizing.h"
#include "core/stats.h"
#include "graph/types.h"
#include "scheduler/job.h"
#include "scheduler/scan_source.h"
#include "storage/device.h"

namespace xstream {

// One parsed job request. Spec syntax: "<algo>[:key=value]...", e.g.
//   pagerank            pagerank:iters=10          bfs:src=42
//   wcc                 sssp:src=7                 spmv:seed=3
struct JobSpec {
  std::string algo;
  std::string name;                       // display name; defaults to the spec
  VertexId root = 0;                      // bfs / sssp
  uint64_t iterations = 5;                // pagerank rank rounds
  uint64_t seed = 0;                      // spmv input vector
  uint64_t max_iterations = UINT64_MAX;   // safety cap
};

// Aborts with a usage message on malformed specs / unknown algorithms.
JobSpec ParseJobSpec(const std::string& spec);
std::vector<JobSpec> ParseJobList(const std::string& comma_separated);
const std::vector<std::string>& KnownJobAlgorithms();

// Where a finalized job delivers its results. per_vertex is indexed by
// original vertex id; the value is the algorithm's principal output (WCC
// label, BFS level, PageRank rank, SSSP distance, SpMV y).
struct JobOutput {
  std::string summary;
  std::vector<double> per_vertex;
  RunStats stats;
};

// Builds a job whose store attaches to the scan source's edge files; its
// update and vertex files are created on the given devices under
// `opts.file_prefix`, so every job needs its own prefix. `hybrid` picks a
// HybridStreamStore, whose initial pin budget is `opts.memory_budget_bytes`
// until the scheduler's budget re-split replaces it; otherwise a plain
// DeviceStreamStore, which reads only the DeviceStoreOptions part of `opts`.
std::unique_ptr<ScheduledJob> MakeDeviceJob(const JobSpec& spec, DeviceScanSource& source,
                                            StorageDevice& update_dev,
                                            StorageDevice& vertex_dev,
                                            const HybridStoreOptions& opts, bool hybrid,
                                            std::shared_ptr<JobOutput> out);

// Builds a job whose MemoryStreamStore shares the source's edge chunks.
std::unique_ptr<ScheduledJob> MakeMemoryJob(const JobSpec& spec, MemoryScanSource& source,
                                            std::shared_ptr<JobOutput> out);

}  // namespace xstream

#endif  // XSTREAM_SCHEDULER_ALGO_JOBS_H_
