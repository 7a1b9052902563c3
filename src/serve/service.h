// GraphService: the xstream-serve daemon's core — mounted graphs, a
// fair-share JobScheduler per graph, and the /v1 REST surface.
//
// The serving model keeps X-Stream's batch machinery intact and wraps it:
// each mounted graph owns one partitioned scan source (in-RAM chunks or
// partitioned edge files, per ServiceOptions::engine) plus one JobScheduler
// whose shared-scan rounds run on a dedicated pump thread. An HTTP query is
// just a ScheduledJob built by the same algo_jobs factory the CLI --jobs
// path uses, submitted under its tenant through TrySubmit — so results are
// bit-identical to a solo batch run, quotas turn into HTTP 429s, and the
// scheduler's weighted-deficit admission is what makes the service
// multi-tenant fair.
//
// REST surface (mounted on an obs::HttpExporter prefix route, sharing the
// port with /metrics, /healthz, /stats, /trace, /attribution):
//   POST   /v1/jobs            {"graph","algo","tenant"?,"params"?} -> 201
//   GET    /v1/jobs            all job reports (newest last)
//   GET    /v1/jobs/<id>       one job's status + progress
//   GET    /v1/jobs/<id>/result per-vertex values once done (409 while
//                              running, 410 after cancellation)
//   DELETE /v1/jobs/<id>       cancel -> 202
//   GET    /v1/graphs          mounted graphs + their layouts
//   GET    /v1/tenants         per-tenant fair-share counters
// Errors: malformed JSON 400, unknown graph 404, unknown algo 400, quota
// rejection 429 + Retry-After, draining 503 + Retry-After.
//
// Shutdown: BeginDrain() flips submissions to 503 while running jobs keep
// their scan rounds; WaitIdle() joins the backlog (driving it too); Stop()
// parks the pump threads. The daemon wires SIGTERM to exactly that
// sequence, so in-flight queries finish before exit.
//
// Thread-safety: Mount() is setup-time (before Start). Handle() runs on the
// exporter thread concurrently with the pump threads; everything they share
// sits behind mu_ or inside the thread-safe scheduler API.
#ifndef XSTREAM_SERVE_SERVICE_H_
#define XSTREAM_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "obs/http_exporter.h"
#include "scheduler/algo_jobs.h"
#include "scheduler/scheduler.h"
#include "storage/posix_device.h"
#include "threads/thread_pool.h"

namespace xstream::serve {

/// One graph to mount at startup.
struct GraphSpec {
  std::string name;
  EdgeList edges;
};

/// Service-wide configuration (plain data, set before construction).
struct ServiceOptions {
  /// Substrate for every mounted graph: "in-memory" shares RAM edge chunks,
  /// "out-of-core"/"hybrid" share partitioned edge files under `workdir`.
  std::string engine = "in-memory";
  std::string workdir;        // scratch dir when empty (device engines only)
  int threads = 0;            // shared compute pool size, 0 = all cores
  uint32_t partitions = 0;    // per-graph partition count, 0 = auto
  /// Store knobs of every device-backed job (and the scan source's I/O
  /// unit); file_prefix is replaced per job. memory_budget_bytes is each
  /// hybrid job's initial pin budget (0 by default); a non-zero
  /// scheduler.memory_budget_bytes is re-split across the active jobs.
  HybridStoreOptions device;
  /// Fair-share admission config (weights, quotas, memory budget) applied
  /// to every graph's scheduler.
  SchedulerOptions scheduler;
  /// Request-body ceiling forwarded to the exporter (413 above it).
  size_t max_body_bytes = 1 << 20;
};

class GraphService {
 public:
  explicit GraphService(ServiceOptions opts);
  ~GraphService();  // Stop()s; abandons whatever WaitIdle was not called for

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Partitions and mounts one graph. Call before Start(); aborts on
  /// duplicate names.
  void Mount(GraphSpec spec);

  /// Registers the /v1 routes on `exporter` and starts one pump thread per
  /// mounted graph. The exporter must outlive this service.
  void Start(obs::HttpExporter& exporter);

  /// Stops admitting new jobs (POST answers 503 + Retry-After); running and
  /// queued jobs continue. Idempotent.
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Blocks until every scheduler's backlog is empty, lending this thread
  /// as a driver alongside the pumps.
  void WaitIdle();

  /// Parks the pump threads. Idempotent; the destructor calls it.
  void Stop();

  /// The /v1 entry point (public so tests can drive it in-process too).
  obs::HttpResponse Handle(const obs::HttpRequest& request);

  std::vector<std::string> graph_names() const;
  JobScheduler* scheduler(const std::string& graph);  // nullptr if unknown

 private:
  struct GraphContext {
    std::string name;
    GraphInfo info;
    PartitionLayout layout;
    std::unique_ptr<PosixDevice> disk;      // device engines only
    std::unique_ptr<ScanSource> source;
    std::unique_ptr<JobScheduler> scheduler;
    std::thread pump;
    uint64_t completed_seen = 0;  // pump-local, for the serve.jobs_completed counter
  };
  // One submitted job as the service tracks it (scheduler ids are
  // per-graph; service ids are global across graphs).
  struct JobEntry {
    uint64_t id = 0;
    GraphContext* graph = nullptr;
    JobId sched_id = 0;
    std::string tenant;
    JobSpec spec;
    std::shared_ptr<JobOutput> output;
  };

  void PumpLoop(GraphContext* ctx);
  obs::HttpResponse HandleJobs(const obs::HttpRequest& request);
  obs::HttpResponse SubmitJob(const obs::HttpRequest& request);
  obs::HttpResponse JobStatus(const JobEntry& entry) const;
  obs::HttpResponse JobResult(const JobEntry& entry) const;
  obs::HttpResponse ListGraphs() const;
  obs::HttpResponse ListTenants() const;
  const JobEntry* FindJobLocked(uint64_t id) const;

  ServiceOptions opts_;
  ThreadPool pool_;
  std::unique_ptr<ScratchDir> scratch_;

  mutable std::mutex mu_;                 // guards jobs_ and next_job_id_
  std::map<uint64_t, JobEntry> jobs_;
  uint64_t next_job_id_ = 1;

  std::vector<std::unique_ptr<GraphContext>> graphs_;  // fixed after Start()
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::mutex pump_mu_;                    // pairs with pump_cv_
  std::condition_variable pump_cv_;       // submission -> pump wakeup
  bool started_ = false;
};

}  // namespace xstream::serve

#endif  // XSTREAM_SERVE_SERVICE_H_
