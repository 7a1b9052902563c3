// pagerank-inmem and pagerank-ooc: PageRank (5 rank iterations plus the
// degree round) repeated on one engine over the saved scale-20 RMAT graph.
//
// pagerank-inmem runs InMemoryEngine; pagerank-ooc runs HybridEngine with a
// pin budget of 0 and a streaming budget of 0 over 8 partitions, so vertex
// states live in files and every iteration writes update and vertex files
// (the CLI's --engine=hybrid --memory-budget=0 --budget-mb=0 --partitions=8).
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <tuple>

#include "algorithms/pagerank.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/edge_io.h"
#include "inputs.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "partitioning/quality.h"
#include "storage/posix_device.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xstream::PageRankAlgorithm;
using Phase = xstream::obs::Phase;

constexpr uint64_t kRankIterations = 5;
constexpr uint64_t kMaxIterations = kRankIterations + 1;  // + the degree round
constexpr uint32_t kOutOfCorePartitions = 8;

// One timed PageRank operation (Init through the last iteration).
struct OpSample {
  double seconds = 0.0;
  xstream::RunStats stats;
  // Filled for traced operations only.
  double init_s = 0.0;
  std::vector<double> iteration_s;
  std::array<double, xstream::obs::kPhaseCount> phase_s{};  // accountant wall deltas
  double edge_read_wait_s = 0.0;
  xstream::DeviceStats device;  // delta over the operation
  double codec_bytes = 0.0;
};

struct SetupSample {
  double load_s = 0.0;  // edge-file read (in-memory engine only)
  double ctor_s = 0.0;  // engine construction
  double total() const { return load_s + ctor_s; }
};

double CodecBytes() {
  return static_cast<double>(
      xstream::obs::MetricsRegistry::Global().counter("store.codec.encoded_bytes").Value());
}

xstream::EdgeList ReadGraph(const GraphInputs& g) {
  xstream::PosixDevice dev("data", g.dir);
  return xstream::ReadEdgeFile(dev, g.edge_file());
}

xstream::DeviceStats Delta(const xstream::DeviceStats& a, const xstream::DeviceStats& b) {
  xstream::DeviceStats d;
  d.bytes_read = b.bytes_read - a.bytes_read;
  d.bytes_written = b.bytes_written - a.bytes_written;
  d.busy_seconds = b.busy_seconds - a.busy_seconds;
  return d;
}

// Everything the two engines differ in: construction, the per-iteration
// drive of a traced operation, and access to results.
class Harness {
 public:
  virtual ~Harness() = default;
  virtual SetupSample Setup(Tracer& tracer) = 0;
  // Runs one operation; traced operations drive iterations one at a time
  // under spans.
  virtual OpSample Op(Tracer& tracer, bool traced) = 0;
  virtual std::vector<float> Ranks() = 0;
  virtual uint32_t num_partitions() const = 0;
  virtual const xstream::PartitionLayout& layout() const = 0;
  virtual void LayerCounts(Report&) const {}
};

// Shared operation loop. `iterate(algo, parent_span, op)` runs one
// iteration of a traced operation.
template <typename Engine, typename Iterate>
OpSample RunOp(Engine& engine, Tracer& tracer, bool traced, Iterate&& iterate) {
  OpSample op;
  PageRankAlgorithm algo(engine.num_vertices(), kRankIterations);
  xstream::obs::AttributionSnapshot before = engine.driver().accountant().Snapshot();
  double codec_before = CodecBytes();
  engine.ResetStats();
  auto t0 = Clock::now();
  if (!traced) {
    engine.Run(algo, kMaxIterations);
  } else {
    Span span(tracer, "core", "core.pagerank");
    {
      auto ti = Clock::now();
      Span init(tracer, "core", "core.init", span.id());
      engine.InitVertices(algo);
      op.init_s = SecondsSince(ti);
    }
    for (uint64_t it = 0; it < kMaxIterations; ++it) {
      auto ti = Clock::now();
      xstream::IterationStats st;
      {
        Span iter(tracer, "core", "core.iteration", span.id());
        st = iterate(algo, iter.id(), op);
      }
      op.iteration_s.push_back(SecondsSince(ti));
      if (st.updates_generated == 0 || algo.Done(st)) {
        break;
      }
    }
    engine.FinalizeStats();
    tracer.Count("threads", "threads.steals", static_cast<double>(engine.stats().steals),
                 span.id());
  }
  op.seconds = SecondsSince(t0);
  op.stats = engine.stats();
  xstream::obs::AttributionSnapshot after = engine.driver().accountant().Snapshot();
  for (int p = 0; p < xstream::obs::kPhaseCount; ++p) {
    op.phase_s[p] = after.wall[p] - before.wall[p];
  }
  op.codec_bytes = CodecBytes() - codec_before;
  return op;
}

template <typename Engine>
std::vector<float> ReadRanks(Engine& engine) {
  std::vector<float> ranks(engine.num_vertices());
  engine.VertexFold(0, [&ranks](int acc, xstream::VertexId v,
                                const PageRankAlgorithm::VertexState& s) {
    ranks[v] = s.rank;
    return acc;
  });
  return ranks;
}

// ---- pagerank-inmem ---------------------------------------------------------

class InMemoryHarness : public Harness {
 public:
  using Engine = xstream::InMemoryEngine<PageRankAlgorithm>;

  InMemoryHarness(const RunConfig& cfg, const GraphInputs& g) : cfg_(cfg), g_(g) {}

  SetupSample Setup(Tracer& tracer) override {
    engine_.reset();  // at most one engine's buffers alive at a time
    SetupSample s;
    Span span(tracer, "core", "setup");
    xstream::EdgeList edges;
    {
      auto t0 = Clock::now();
      Span load(tracer, "graph", "graph.read_edge_file", span.id());
      edges = ReadGraph(g_);
      s.load_s = SecondsSince(t0);
    }
    auto t0 = Clock::now();
    Span ctor(tracer, "core", "core.engine_ctor", span.id());
    xstream::InMemoryConfig config;
    config.threads = cfg_.threads;
    engine_ = std::make_unique<Engine>(config, edges, g_.num_vertices);
    s.ctor_s = SecondsSince(t0);
    return s;  // the engine holds its own partitioned copy of the edges
  }

  OpSample Op(Tracer& tracer, bool traced) override {
    Engine& engine = *engine_;
    return RunOp(engine, tracer, traced,
                 [&](PageRankAlgorithm& algo, uint64_t parent, OpSample&) {
                   double start = tracer.Now();
                   xstream::obs::AttributionSnapshot before =
                       engine.driver().accountant().Snapshot();
                   xstream::IterationStats st = engine.RunIteration(algo);
                   // The in-memory iteration runs scatter, shuffle and gather
                   // back to back; lay the accountant's phase times out in that
                   // order as child spans.
                   xstream::obs::AttributionSnapshot after =
                       engine.driver().accountant().Snapshot();
                   auto phase = [&](Phase p) {
                     int i = static_cast<int>(p);
                     return after.wall[i] - before.wall[i];
                   };
                   double t = start;
                   for (auto [layer, name, p] :
                        {std::tuple{"core", "core.scatter", Phase::kScatter},
                         std::tuple{"buffers", "buffers.shuffle", Phase::kShuffle},
                         std::tuple{"core", "core.gather", Phase::kGather}}) {
                     tracer.Add(layer, name, t, t + phase(p), parent);
                     t += phase(p);
                   }
                   return st;
                 });
  }

  std::vector<float> Ranks() override { return ReadRanks(*engine_); }

  uint32_t num_partitions() const override { return engine_->num_partitions(); }
  const xstream::PartitionLayout& layout() const override { return engine_->layout(); }

 private:
  const RunConfig& cfg_;
  GraphInputs g_;
  std::unique_ptr<Engine> engine_;
};

// ---- pagerank-ooc -----------------------------------------------------------

class OutOfCoreHarness : public Harness {
 public:
  using Engine = xstream::HybridEngine<PageRankAlgorithm>;

  OutOfCoreHarness(const RunConfig& cfg, const GraphInputs& g, const std::string& dir)
      : cfg_(cfg), g_(g), dev_("scratch", dir) {}

  SetupSample Setup(Tracer& tracer) override {
    engine_.reset();
    SetupSample s;
    Span span(tracer, "core", "setup");
    auto t0 = Clock::now();
    Span ctor(tracer, "core", "core.engine_ctor", span.id());
    xstream::HybridConfig config;
    config.threads = cfg_.threads;
    config.memory_budget_bytes = 0;     // pin nothing
    config.streaming_budget_bytes = 0;  // vertex states in files
    config.num_partitions = kOutOfCorePartitions;
    xstream::GraphInfo info{g_.num_vertices, g_.num_edges};
    engine_ = std::make_unique<Engine>(config, dev_, dev_, dev_, kInput, info);
    s.ctor_s = SecondsSince(t0);
    return s;
  }

  OpSample Op(Tracer& tracer, bool traced) override {
    Engine& engine = *engine_;
    xstream::DeviceStats dev_before = dev_.stats();
    OpSample op = RunOp(
        engine, tracer, traced, [&](PageRankAlgorithm& algo, uint64_t parent, OpSample& o) {
          auto& driver = engine.driver();
          auto& store = engine.store();
          {
            Span s(tracer, "core", "core.begin_iteration", parent);
            driver.BeginIterationScatter(algo);
          }
          for (uint32_t p = 0; p < engine.num_partitions(); ++p) {
            if (!driver.PartitionNeedsScatter(p)) {
              continue;
            }
            {
              Span s(tracer, "core", "core.begin_partition", parent);
              driver.BeginScatterPartition(p);
            }
            double in_scatter = 0.0;
            auto ts = Clock::now();
            {
              Span stream(tracer, "storage", "storage.edge_stream", parent);
              store.ForEachEdgeChunk(p, [&](const xstream::Edge* es, uint64_t n) {
                double start = tracer.Now();
                auto tc = Clock::now();
                driver.ScatterChunk(algo, es, n);
                tracer.Add("core", "core.scatter_chunk", start, start + SecondsSince(tc),
                           stream.id());
                in_scatter += SecondsSince(tc);  // span recording is not a read wait
              });
            }
            o.edge_read_wait_s += SecondsSince(ts) - in_scatter;
            Span s(tracer, "core", "core.end_partition", parent);
            driver.EndScatterPartition(algo);
          }
          xstream::IterationStats st;
          {
            Span s(tracer, "core", "core.finish_iteration", parent);
            st = driver.FinishIterationScatter(algo);
          }
          Span plan(tracer, "residency", "residency.plan", parent);
          tracer.Count("residency", "residency.resident_partitions",
                       engine.resident_partitions(), plan.id());
          return st;
        });
    op.device = Delta(dev_before, dev_.stats());
    return op;
  }

  std::vector<float> Ranks() override { return ReadRanks(*engine_); }

  uint32_t num_partitions() const override { return engine_->num_partitions(); }
  const xstream::PartitionLayout& layout() const override { return engine_->layout(); }
  void LayerCounts(Report& report) const override {
    report.Set("residency.resident_partitions", engine_->resident_partitions());
  }

  static constexpr const char* kInput = "input.bin";

 private:
  const RunConfig& cfg_;
  GraphInputs g_;
  xstream::PosixDevice dev_;
  std::unique_ptr<Engine> engine_;
};

// Flushes dirty pages of the scratch filesystem so set-up writes do not drain
// during the timed operations.
void SyncScratch(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// ---- The shared workload loop ----------------------------------------------

struct Verifier {
  std::vector<double> oracle;
  double max_abs_err = 0.0;
  double max_rel_err = 0.0;

  bool Check(const std::vector<float>& ranks) {
    if (ranks.size() != oracle.size()) {
      return false;
    }
    bool ok = true;
    for (size_t v = 0; v < ranks.size(); ++v) {
      double err = std::fabs(ranks[v] - oracle[v]);
      max_abs_err = std::max(max_abs_err, err);
      max_rel_err = std::max(max_rel_err, oracle[v] > 0 ? err / oracle[v] : 0.0);
      ok = ok && PageRankClose(ranks[v], oracle[v]);
    }
    return ok;
  }
};

std::vector<OpSample> TimedOps(Harness& h, Tracer& tracer, bool traced, double seconds,
                               Verifier& verifier, Report& report) {
  std::vector<OpSample> ops;
  auto t0 = Clock::now();
  while (ops.size() < 2 || SecondsSince(t0) < seconds) {
    ops.push_back(h.Op(tracer, traced));
    report.CountOperation(verifier.Check(h.Ranks()));
  }
  return ops;
}

// End-to-end metrics of a batch workload. A run completes only a handful of
// whole PageRank operations, too few for percentiles, so rates and latencies
// are taken over the streaming iterations of the timed operations (one
// iteration = scatter, shuffle and gather over every edge). A run holds 30-40
// iterations, so a global p90 would have 3-4 samples beyond it and follow any
// slow spell of the host; query_p90_s is instead the median over operations
// of each operation's p90 iteration time. Whole-operation times are printed.
void EndToEnd(const std::vector<SetupSample>& setups, const std::vector<OpSample>& ops,
              Report& report) {
  std::vector<double> setup_s, rate, latency, op_p90;
  for (const SetupSample& s : setups) {
    setup_s.push_back(s.total());
  }
  std::string op_list;
  for (const OpSample& op : ops) {
    std::vector<double> op_latency;
    for (const xstream::IterationStats& it : op.stats.per_iteration) {
      rate.push_back(static_cast<double>(it.edges_streamed) / it.seconds);
      op_latency.push_back(it.seconds);
    }
    latency.insert(latency.end(), op_latency.begin(), op_latency.end());
    op_p90.push_back(Quantile(op_latency, 0.9));
    op_list += (op_list.empty() ? "" : " ") + std::to_string(op.seconds);
  }
  double p50 = Quantile(latency, 0.5);
  report.Set("setup_s", Median(setup_s));
  report.Set("edges_per_s", Median(rate));
  report.Set("queries_per_s", 1.0 / p50);
  report.Set("query_p50_s", p50);
  report.Set("query_p90_s", Median(op_p90));
  report.Set("peak_rss_mb", PeakRssMb());
  Info("operations: %zu timed PageRank runs of %llu iterations, seconds each (Init through "
       "the last iteration): %s",
       ops.size(), static_cast<unsigned long long>(kMaxIterations), op_list.c_str());
  Info("latency samples: %zu iterations; p90 = median over %zu operations of their p90; "
       "setups: %zu",
       latency.size(), op_p90.size(), setups.size());
}

void PerLayer(const std::vector<SetupSample>& setups, const std::vector<OpSample>& ops,
              const HostCeilings& host, Report& report) {
  auto med = [&ops](auto field) {
    std::vector<double> v;
    for (const OpSample& op : ops) {
      v.push_back(field(op));
    }
    return Median(v);
  };
  std::vector<double> load_s, ctor_s;
  for (const SetupSample& s : setups) {
    load_s.push_back(s.load_s);
    ctor_s.push_back(s.ctor_s);
  }
  report.Set("core.setup_s", Median(ctor_s));
  report.Set("core.init_s", med([](const OpSample& o) { return o.init_s; }));
  std::vector<double> iters;
  for (const OpSample& op : ops) {
    iters.insert(iters.end(), op.iteration_s.begin(), op.iteration_s.end());
  }
  report.Set("core.iteration_s", Median(iters));
  auto phase = [&](Phase p) {
    return med([p](const OpSample& o) { return o.phase_s[static_cast<int>(p)]; });
  };
  double scatter_s = phase(Phase::kScatter);
  double shuffle_s = phase(Phase::kShuffle);
  report.Set("core.scatter_s", scatter_s);
  report.Set("core.shuffle_s", shuffle_s);
  report.Set("core.gather_s", phase(Phase::kGather));
  const xstream::RunStats& st = ops.back().stats;  // identical work every operation
  double edges = static_cast<double>(st.edges_streamed);
  double updates = static_cast<double>(st.updates_generated);
  report.Set("core.edges_streamed", edges);
  report.Set("core.updates_generated", updates);
  report.Set("core.wasted_edge_frac", edges > 0 ? static_cast<double>(st.wasted_edges) / edges : 0);
  if (scatter_s > 0) {
    double gbps = edges * sizeof(xstream::Edge) / scatter_s / 1e9;
    report.Set("core.scatter_mem_util", gbps / host.mem_read_gb_per_s);
  }
  if (shuffle_s > 0) {
    double gbps = updates * sizeof(PageRankAlgorithm::Update) / shuffle_s / 1e9;
    report.Set("buffers.shuffle_gb_per_s", gbps);
    report.Set("buffers.shuffle_util", gbps / host.memcpy_gb_per_s);
  }
  report.Set("threads.steals", med([](const OpSample& o) { return 1.0 * o.stats.steals; }));
  report.Set("storage.edge_read_wait_s", med([](const OpSample& o) { return o.edge_read_wait_s; }));
  report.Set("storage.spill_wait_s",
             med([](const OpSample& o) { return o.stats.spill_wait_seconds; }));
  report.Set("storage.gather_wait_s",
             med([](const OpSample& o) { return o.stats.gather_wait_seconds; }));
  report.Set("storage.bytes_read", med([](const OpSample& o) { return 1.0 * o.device.bytes_read; }));
  report.Set("storage.bytes_written",
             med([](const OpSample& o) { return 1.0 * o.device.bytes_written; }));
  report.Set("storage.busy_s", med([](const OpSample& o) { return o.device.busy_seconds; }));
  report.Set("storage.update_file_bytes",
             med([](const OpSample& o) { return 1.0 * o.stats.update_file_bytes; }));
  report.Set("storage.absorbed_frac",
             updates > 0 ? static_cast<double>(st.updates_absorbed) / updates : 0.0);
  report.Set("storage.read_util", med([&host](const OpSample& o) {
               return o.device.bytes_read / o.seconds / 1e6 / host.file_read_mb_per_s;
             }));
  report.Set("residency.migration_bytes",
             med([](const OpSample& o) { return 1.0 * o.stats.migration_bytes; }));
  report.Set("codec.encoded_bytes", med([](const OpSample& o) { return o.codec_bytes; }));
}

double MeanSeconds(const std::vector<OpSample>& ops) {
  double total = 0.0;
  for (const OpSample& op : ops) {
    total += op.seconds;
  }
  return total / static_cast<double>(ops.size());
}

// Graph and partitioning layers, measured on their own in the traced run: one
// read of the saved edge file, then the partition-quality pass over the
// engine's layout (the partitioner is bypassed under the default range
// layout; the pass still reports how evenly that layout spreads the edges).
void GraphLayer(Tracer& tracer, const GraphInputs& g, const xstream::PartitionLayout& layout,
                Report& report) {
  auto t0 = Clock::now();
  xstream::EdgeList edges;
  {
    Span load(tracer, "graph", "graph.read_edge_file");
    edges = ReadGraph(g);
  }
  double load_s = SecondsSince(t0);
  report.Set("graph.load_s", load_s);
  report.Set("graph.load_gb_per_s", static_cast<double>(g.edge_bytes()) / load_s / 1e9);
  Span span(tracer, "partitioning", "partitioning.quality_pass");
  report.Set("partitioning.edge_balance",
             xstream::EvaluatePartitionQuality(layout, edges).edge_balance);
}

int RunPageRank(const RunConfig& cfg, Harness& h, const GraphInputs& g) {
  Verifier verifier{LoadPageRank5(g)};
  if (cfg.corrupt_oracle) {
    for (size_t v = 0; v < verifier.oracle.size(); v += 97) {
      verifier.oracle[v] += 0.5;
    }
  }
  Tracer tracer(cfg.trace);
  Report report;
  HostCeilings host;
  if (cfg.trace) {
    host = MeasureHost(cfg, tracer, g.dir, g.edge_file());
    ReportHost(host, report);
  }
  const int setup_runs = cfg.smoke ? 2 : 3;
  std::vector<SetupSample> setups;
  for (int i = 0; i < setup_runs; ++i) {
    setups.push_back(h.Setup(tracer));
  }
  SyncScratch(cfg.scratch_dir);
  Info("engine: %u partitions, %d threads", h.num_partitions(), cfg.threads);
  // One discarded warm-up operation (page cache, allocator, lazy set-up).
  h.Op(tracer, false);
  report.CountOperation(verifier.Check(h.Ranks()));

  if (!cfg.trace) {
    std::vector<OpSample> ops = TimedOps(h, tracer, false, cfg.seconds, verifier, report);
    EndToEnd(setups, ops, report);
  } else {
    double half = cfg.seconds / 2;
    std::vector<OpSample> plain;
    {
      Span ref(tracer, "obs", "obs.untraced_reference");
      plain = TimedOps(h, tracer, false, half, verifier, report);
    }
    std::vector<OpSample> traced = TimedOps(h, tracer, true, half, verifier, report);
    report.Set("obs.trace_overhead_frac", MeanSeconds(traced) / MeanSeconds(plain) - 1.0);
    GraphLayer(tracer, g, h.layout(), report);
    PerLayer(setups, traced, host, report);
    h.LayerCounts(report);
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload + ".json";
    if (!tracer.Write(path)) {
      Info("trace: cannot write %s", path.c_str());
      return 1;
    }
    Info("trace: %zu spans written to %s", tracer.span_count(), path.c_str());
  }
  Info("verification: PageRank max |rank - reference| = %.3g (relative %.3g) over %llu vertices",
       verifier.max_abs_err, verifier.max_rel_err, static_cast<unsigned long long>(g.num_vertices));
  report.Print(cfg.trace ? PerLayerMetrics() : EndToEndMetrics());
  return 0;
}

}  // namespace

int RunPageRankInMemory(const RunConfig& cfg) {
  GraphInputs g = LoadGraph(PageRankGraph(cfg));
  InMemoryHarness h(cfg, g);
  return RunPageRank(cfg, h, g);
}

int RunPageRankOutOfCore(const RunConfig& cfg) {
  GraphInputs g = LoadGraph(PageRankGraph(cfg));
  std::string dir = cfg.scratch_dir + "/pagerank-ooc";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Info("scratch: %s (%s)", dir.c_str(), FilesystemType(dir).c_str());
  // The engine reads its input from the scratch device; a hard link costs
  // nothing and leaves the cached input in place.
  std::error_code ec;
  std::filesystem::create_hard_link(g.dir + "/" + g.edge_file(),
                                    dir + "/" + OutOfCoreHarness::kInput, ec);
  if (ec) {
    std::filesystem::copy_file(g.dir + "/" + g.edge_file(), dir + "/" + OutOfCoreHarness::kInput);
  }
  int rc;
  {
    OutOfCoreHarness h(cfg, g, dir);
    rc = RunPageRank(cfg, h, g);
  }
  std::filesystem::remove_all(dir);
  return rc;
}

}  // namespace perfbench
