// serve-mixed: an in-process GraphService (in-memory substrate, 2 compute
// threads) mounting the saved scale-16 RMAT graph behind an HttpExporter on
// loopback, driven in a closed loop by 2 client threads, one tenant each.
//
// Each client cycles a fixed seeded list with equal shares of bfs, sssp
// (roots from the giant component), wcc and pagerank (3 iterations). A query
// is POST /v1/jobs, status polls at a fixed interval, then GET .../result;
// its latency runs from the POST to the last byte of the result. Bodies are
// written to scratch files and verified against the oracles after the
// measurement window, so neither parsing nor verification slows the loop.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string_view>
#include <thread>

#include "graph/edge_io.h"
#include "inputs.h"
#include "obs/http_exporter.h"
#include "serve/service.h"
#include "storage/posix_device.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr double kPollIntervalS = 0.005;
constexpr double kPollTimeoutS = 60.0;
constexpr const char* kGraph = "g";
const char* const kAlgos[] = {"bfs", "sssp", "wcc", "pagerank"};
constexpr int kListLength = 16;  // 4 queries of each algorithm per client
// The service keeps every finished job's result, so its memory grows with the
// queries served. peak_rss_mb is therefore read after a fixed number of
// measured queries: a faster service must not read as a memory regression.
constexpr size_t kRssQueries = 100;

// ---- Loopback HTTP client ---------------------------------------------------

// A reply views the calling thread's receive buffer, so it stays valid only
// until that thread's next Http() call. Reusing the buffer keeps the load
// generator's own allocations out of the process's peak RSS.
struct HttpReply {
  int status = 0;  // 0 = transport failure
  std::string_view body;
};

HttpReply Http(int port, const std::string& method, const std::string& target,
               const std::string& body = "") {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return reply;
  }
  timeval tv{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n";
  }
  req += "Connection: close\r\n\r\n" + body;
  for (size_t sent = 0; sent < req.size();) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  thread_local std::string raw;
  raw.clear();
  char buf[1 << 16];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  reply.body = std::string_view(raw).substr(head_end + 4);
  return reply;
}

// Number after `"key":` in a flat JSON object (status replies); NaN if absent.
// The view must lie inside a NUL-terminated buffer (HttpReply bodies do).
double JsonNumber(std::string_view body, const std::string& key) {
  size_t pos = body.find("\"" + key + "\":");
  if (pos == std::string::npos) {
    return std::nan("");
  }
  return std::strtod(body.data() + pos + key.size() + 3, nullptr);
}

bool JsonStringIs(std::string_view body, const std::string& key, const std::string& value) {
  return body.find("\"" + key + "\":\"" + value + "\"") != std::string::npos;
}

// Parses the "values" array of a result body as numbers. Non-finite values
// arrive as the strings "Infinity", "-Infinity" and "NaN".
bool ParseValues(const std::string& body, std::vector<double>* out) {
  size_t pos = body.find("\"values\"");
  if (pos == std::string::npos || (pos = body.find('[', pos)) == std::string::npos) {
    return false;
  }
  const char* p = body.c_str() + pos + 1;
  const char* end = body.c_str() + body.size();
  auto skip = [&] {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')) {
      ++p;
    }
  };
  skip();
  if (p < end && *p == ']') {
    return true;
  }
  while (p < end) {
    skip();
    if (*p == '"') {
      const char* close = std::find(p + 1, end, '"');
      std::string s(p + 1, close);
      if (s == "Infinity") {
        out->push_back(std::numeric_limits<double>::infinity());
      } else if (s == "-Infinity") {
        out->push_back(-std::numeric_limits<double>::infinity());
      } else if (s == "NaN") {
        out->push_back(std::nan(""));
      } else {
        return false;
      }
      p = close + 1;
    } else {
      char* next = nullptr;
      out->push_back(std::strtod(p, &next));
      if (next == p) {
        return false;
      }
      p = next;
    }
    skip();
    if (p < end && *p == ']') {
      return true;
    }
    if (p >= end || *p != ',') {
      return false;
    }
    ++p;
  }
  return false;
}

// ---- Queries ----------------------------------------------------------------

struct Query {
  int algo = 0;  // index into kAlgos
  int root = 0;  // index into the oracle root set (bfs, sssp)
};

std::string QueryBody(const Query& q, uint32_t root, int client) {
  std::string params;
  if (q.algo <= 1) {
    params = ",\"params\":{\"root\":" + std::to_string(root) + "}";
  } else if (q.algo == 3) {
    params = ",\"params\":{\"iters\":3}";
  }
  return std::string("{\"graph\":\"") + kGraph + "\",\"algo\":\"" + kAlgos[q.algo] +
         "\",\"tenant\":\"t" + std::to_string(client) + "\"" + params + "}";
}

// A client's fixed cycle: equal shares of the four algorithms, shuffled with
// the run seed; bfs/sssp roots rotate through the root set.
std::vector<Query> ClientQueries(uint64_t seed, int client, size_t num_roots) {
  std::vector<Query> list;
  for (int i = 0; i < kListLength; ++i) {
    list.push_back(Query{i % 4, static_cast<int>((client + i / 4) % num_roots)});
  }
  std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(client));
  std::shuffle(list.begin(), list.end(), rng);
  return list;
}

struct QueryRecord {
  Query query;
  double latency_s = 0.0;
  double submit_s = 0.0;  // POST round trip
  double result_s = 0.0;  // GET result round trip
  int polls = 0;
  size_t result_bytes = 0;
  double rounds = 0.0;  // scheduler rounds (iterations) the job ran
  double queue_s = 0.0, run_s = 0.0;  // the job's JobReport, from its last status
  uint64_t service_id = 0;
  bool ok = false;  // every reply 2xx; after verification: the result verified
  std::string body_file;
};

// Runs one query end to end; records spans under request id `req`.
QueryRecord RunQuery(int port, const Query& q, uint32_t root, int client, Tracer& tracer,
                     uint64_t req, const std::string& body_file) {
  QueryRecord rec;
  rec.query = q;
  Span span(tracer, "serve", std::string("serve.query.") + kAlgos[q.algo], 0, req);
  auto t0 = Clock::now();
  HttpReply post;
  {
    Span s(tracer, "serve", "serve.submit", span.id(), req);
    post = Http(port, "POST", "/v1/jobs", QueryBody(q, root, client));
  }
  rec.submit_s = SecondsSince(t0);
  double submitted_at = tracer.Now();
  if (post.status != 201) {
    return rec;
  }
  rec.service_id = static_cast<uint64_t>(JsonNumber(post.body, "id"));
  std::string path = "/v1/jobs/" + std::to_string(rec.service_id);
  while (true) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollIntervalS));
    Span s(tracer, "serve", "serve.poll", span.id(), req);
    HttpReply status = Http(port, "GET", path);
    ++rec.polls;
    if (status.status != 200 || JsonStringIs(status.body, "state", "cancelled") ||
        SecondsSince(t0) > kPollTimeoutS) {
      return rec;
    }
    if (JsonStringIs(status.body, "state", "done")) {
      rec.rounds = JsonNumber(status.body, "rounds");
      rec.queue_s = JsonNumber(status.body, "queue_seconds");
      rec.run_s = JsonNumber(status.body, "run_seconds");
      break;
    }
  }
  auto tr = Clock::now();
  HttpReply result;
  {
    Span s(tracer, "serve", "serve.result", span.id(), req);
    result = Http(port, "GET", path + "/result");
  }
  rec.result_s = SecondsSince(tr);
  rec.latency_s = SecondsSince(t0);
  span.End();
  if (result.status != 200) {
    return rec;
  }
  rec.result_bytes = result.body.size();
  // The scheduler's side of the query, from its JobReport durations.
  tracer.Add("scheduler", "scheduler.queue", submitted_at, submitted_at + rec.queue_s,
             span.id(), req);
  tracer.Add("scheduler", "scheduler.run", submitted_at + rec.queue_s,
             submitted_at + rec.queue_s + rec.run_s, span.id(), req);
  WriteBytes(body_file, result.body.data(), result.body.size());
  rec.body_file = body_file;
  rec.ok = true;
  return rec;
}

bool VerifyQuery(const QueryRecord& rec, const ServeOracles& o, uint64_t n,
                 double* max_pr_err) {
  if (!rec.ok) {
    return false;
  }
  std::vector<char> raw = ReadBytes(rec.body_file);
  std::vector<double> values;
  if (!ParseValues(std::string(raw.begin(), raw.end()), &values) || values.size() != n) {
    return false;
  }
  const int ri = rec.query.root;
  for (uint64_t v = 0; v < n; ++v) {
    double got = values[v];
    bool ok = false;
    switch (rec.query.algo) {
      case 0:  // bfs: exact levels, UINT32_MAX = unreachable
        ok = got == static_cast<double>(o.bfs[ri][v]);
        break;
      case 1:  // sssp: exact float distances, unreachable = "Infinity"
        ok = got == static_cast<double>(o.sssp[ri][v]);
        break;
      case 2:  // wcc: exact labels
        ok = got == static_cast<double>(o.wcc[v]);
        break;
      default:
        *max_pr_err = std::max(*max_pr_err, std::fabs(got - o.pagerank3[v]));
        ok = PageRankClose(got, o.pagerank3[v]);
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

void Corrupt(ServeOracles& o) {
  for (size_t v = 0; v < o.wcc.size(); v += 97) {
    o.wcc[v] += 1;
    o.pagerank3[v] += 0.5;
    for (auto& levels : o.bfs) {
      levels[v] = levels[v] == 0 ? 1 : levels[v] - 1;
    }
    for (auto& dist : o.sssp) {
      dist[v] += 1.0f;
    }
  }
}

// ---- The service under test -------------------------------------------------

struct Server {
  std::unique_ptr<xstream::obs::HttpExporter> exporter;
  std::unique_ptr<xstream::serve::GraphService> service;

  ~Server() { Reset(); }
  void Reset() {
    if (exporter != nullptr) {
      exporter->Stop();  // no request reaches the service after this
    }
    service.reset();
    exporter.reset();
  }
  int port() const { return exporter->port(); }
};

struct ServeSetup {
  double total_s = 0.0;
  double load_s = 0.0;
  double mount_s = 0.0;
};

ServeSetup StartServer(const RunConfig& cfg, const GraphInputs& g, Tracer& tracer,
                       Server& server) {
  server.Reset();
  ServeSetup s;
  Span span(tracer, "serve", "setup");
  auto t0 = Clock::now();
  xstream::serve::GraphSpec spec;
  spec.name = kGraph;
  {
    Span load(tracer, "graph", "graph.read_edge_file", span.id());
    xstream::PosixDevice dev("data", g.dir);
    spec.edges = xstream::ReadEdgeFile(dev, g.edge_file());
  }
  s.load_s = SecondsSince(t0);
  xstream::serve::ServiceOptions opts;
  opts.engine = "in-memory";
  opts.threads = cfg.threads;
  server.service = std::make_unique<xstream::serve::GraphService>(opts);
  auto tm = Clock::now();
  {
    Span mount(tracer, "serve", "serve.mount", span.id());
    server.service->Mount(std::move(spec));
  }
  s.mount_s = SecondsSince(tm);
  {
    Span start(tracer, "serve", "serve.start", span.id());
    server.exporter = std::make_unique<xstream::obs::HttpExporter>();
    server.service->Start(*server.exporter);
    if (!server.exporter->Start(0)) {
      throw std::runtime_error("cannot bind a loopback port");
    }
  }
  s.total_s = SecondsSince(t0);
  return s;
}

// Closed loop: every client runs its cycle until `seconds` have passed, then
// finishes the query in flight. Returns the window (start to last finish).
// When `rss_mb` is set, it receives the process's peak RSS at the moment the
// kRssQueries-th query of the loop completes (or at the end, if fewer do).
double ClosedLoop(const RunConfig& cfg, Server& server, const ServeOracles& o, Tracer& tracer,
                  double seconds, size_t max_per_client, const std::string& dir,
                  std::vector<QueryRecord>* records, double* rss_mb = nullptr) {
  std::vector<std::vector<QueryRecord>> per_client(kClients);
  std::atomic<uint64_t> next_req{records->size() + 1};
  std::atomic<size_t> completed{0};
  auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Query> list = ClientQueries(cfg.seed, c, o.roots.size());
      for (size_t i = 0; i < max_per_client && SecondsSince(t0) < seconds; ++i) {
        const Query& q = list[i % list.size()];
        uint64_t req = next_req.fetch_add(1);
        std::string file = dir + "/q" + std::to_string(req) + ".json";
        per_client[c].push_back(
            RunQuery(server.port(), q, o.roots[q.root], c, tracer, req, file));
        if (rss_mb != nullptr && completed.fetch_add(1) + 1 == kRssQueries) {
          *rss_mb = PeakRssMb();  // exactly one client thread gets here
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  double window = SecondsSince(t0);
  if (rss_mb != nullptr && completed.load() < kRssQueries) {
    *rss_mb = PeakRssMb();
  }
  for (auto& list : per_client) {
    records->insert(records->end(), list.begin(), list.end());
  }
  return window;
}

struct WindowResult {
  double window_s = 0.0;
  std::vector<QueryRecord> records;
  size_t verified = 0;
  double rss_mb = 0.0;  // peak RSS after kRssQueries queries of the window
};

WindowResult MeasureWindow(const RunConfig& cfg, Server& server, const ServeOracles& o,
                           const GraphInputs& g, Tracer& tracer, double seconds,
                           const std::string& dir, Report& report, double* max_pr_err) {
  WindowResult w;
  w.window_s =
      ClosedLoop(cfg, server, o, tracer, seconds, SIZE_MAX, dir, &w.records, &w.rss_mb);
  for (QueryRecord& rec : w.records) {
    bool ok = VerifyQuery(rec, o, g.num_vertices, max_pr_err);
    report.CountOperation(ok);
    w.verified += ok ? 1 : 0;
    rec.ok = ok;
  }
  return w;
}

double QueriesPerSecond(const WindowResult& w) {
  return static_cast<double>(w.verified) / w.window_s;
}

template <typename F>
std::vector<double> Collect(const WindowResult& w, F&& field) {
  std::vector<double> v;
  for (const QueryRecord& rec : w.records) {
    if (rec.ok) {
      v.push_back(field(rec));
    }
  }
  return v;
}

// The result route encoded in-process (no socket): GraphService::Handle() on
// one finished job per algorithm.
double ResultEncodeSeconds(Server& server, const WindowResult& w, Tracer& tracer) {
  std::vector<double> samples;
  for (int algo = 0; algo < 4; ++algo) {
    auto it = std::find_if(w.records.begin(), w.records.end(), [algo](const QueryRecord& r) {
      return r.ok && r.query.algo == algo;
    });
    if (it == w.records.end()) {
      continue;
    }
    xstream::obs::HttpRequest req{"GET", "/v1/jobs/" + std::to_string(it->service_id) + "/result",
                                  "", ""};
    for (int rep = 0; rep < 5; ++rep) {
      Span span(tracer, "serve", "serve.result_encode");
      auto t0 = Clock::now();
      xstream::obs::HttpResponse resp = server.service->Handle(req);
      samples.push_back(SecondsSince(t0));
      if (resp.status != 200) {
        return 0.0;
      }
    }
  }
  return Median(samples);
}

}  // namespace

int RunServeMixed(const RunConfig& cfg) {
  GraphInputs g = LoadGraph(ServeGraph(cfg));
  ServeOracles oracles = LoadServeOracles(g);
  if (cfg.corrupt_oracle) {
    Corrupt(oracles);
  }
  const std::string dir = cfg.scratch_dir + "/serve-mixed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Tracer tracer(cfg.trace);
  Report report;
  HostCeilings host;
  if (cfg.trace) {
    host = MeasureHost(cfg, tracer, g.dir, g.edge_file());
    ReportHost(host, report);
  }
  double max_pr_err = 0.0;
  int rc = 0;
  {
    Server server;
    const int setup_runs = cfg.smoke ? 2 : 11;
    std::vector<double> setup_s, load_s, mount_s;
    for (int i = 0; i < setup_runs; ++i) {
      ServeSetup s = StartServer(cfg, g, tracer, server);
      setup_s.push_back(s.total_s);
      load_s.push_back(s.load_s);
      mount_s.push_back(s.mount_s);
    }
    Info("serve: %d closed-loop clients, poll every %.0f ms, %zu roots, listening on %d",
         kClients, kPollIntervalS * 1e3, oracles.roots.size(), server.port());
    // Warm-up: one cycle prefix per client (one query of each algorithm on
    // average), verified but not timed.
    {
      std::vector<QueryRecord> warm;
      Tracer off(false);
      ClosedLoop(cfg, server, oracles, off, 1e9, 4, dir, &warm);
      for (const QueryRecord& rec : warm) {
        report.CountOperation(VerifyQuery(rec, oracles, g.num_vertices, &max_pr_err));
      }
    }
    xstream::JobScheduler& sched = *server.service->scheduler(kGraph);
    if (!cfg.trace) {
      WindowResult w = MeasureWindow(cfg, server, oracles, g, tracer, cfg.seconds, dir, report,
                                     &max_pr_err);
      std::vector<double> latency = Collect(w, [](const QueryRecord& r) { return r.latency_s; });
      double edges = 0.0;
      for (double rounds : Collect(w, [](const QueryRecord& r) { return r.rounds; })) {
        edges += rounds * static_cast<double>(g.num_edges);
      }
      report.Set("setup_s", Median(setup_s));
      report.Set("edges_per_s", edges / w.window_s);
      report.Set("queries_per_s", QueriesPerSecond(w));
      report.Set("query_p50_s", Quantile(latency, 0.5));
      report.Set("query_p90_s", Quantile(latency, 0.9));
      report.Set("peak_rss_mb", w.rss_mb);
      Info("memory: peak RSS %.1f MB after %zu measured queries, %.1f MB at the end",
           w.rss_mb, std::min(kRssQueries, w.records.size()), PeakRssMb());
      Info("queries: %zu verified of %zu in a %.2f s window; latency samples %zu "
           "(%zu beyond p90)",
           w.verified, w.records.size(), w.window_s, latency.size(),
           latency.size() - static_cast<size_t>(std::ceil(0.9 * latency.size())));
    } else {
      WindowResult plain;
      {
        Tracer off(false);
        Span ref(tracer, "obs", "obs.untraced_reference");
        plain = MeasureWindow(cfg, server, oracles, g, off, cfg.seconds / 2, dir, report,
                              &max_pr_err);
      }
      xstream::SchedulerStats before = sched.stats();
      WindowResult w = MeasureWindow(cfg, server, oracles, g, tracer, cfg.seconds / 2, dir,
                                     report, &max_pr_err);
      xstream::SchedulerStats after = sched.stats();
      double queries = std::max<double>(1.0, static_cast<double>(w.records.size()));
      report.Set("obs.trace_overhead_frac", QueriesPerSecond(plain) / QueriesPerSecond(w) - 1.0);
      report.Set("graph.load_s", Median(load_s));
      report.Set("graph.load_gb_per_s",
                 static_cast<double>(g.edge_bytes()) / Median(load_s) / 1e9);
      report.Set("scheduler.queue_s",
                 Median(Collect(w, [](const QueryRecord& r) { return r.queue_s; })));
      report.Set("scheduler.run_s",
                 Median(Collect(w, [](const QueryRecord& r) { return r.run_s; })));
      report.Set("scheduler.scans_saved",
                 static_cast<double>(after.scans_saved - before.scans_saved) / queries);
      report.Set("scheduler.shared_scan_bytes",
                 static_cast<double>(after.shared_scan_bytes - before.shared_scan_bytes) /
                     queries);
      report.Set("scheduler.rounds_completed",
                 static_cast<double>(after.rounds_completed - before.rounds_completed) /
                     queries);
      report.Set("serve.mount_s", Median(mount_s));
      report.Set("serve.submit_s",
                 Median(Collect(w, [](const QueryRecord& r) { return r.submit_s; })));
      std::vector<double> polls = Collect(w, [](const QueryRecord& r) { return 1.0 * r.polls; });
      double poll_sum = 0.0;
      for (double p : polls) {
        poll_sum += p;
      }
      report.Set("serve.polls_per_query", polls.empty() ? 0.0 : poll_sum / polls.size());
      report.Set("serve.result_s",
                 Median(Collect(w, [](const QueryRecord& r) { return r.result_s; })));
      report.Set("serve.result_bytes",
                 Median(Collect(w, [](const QueryRecord& r) { return 1.0 * r.result_bytes; })));
      report.Set("serve.result_encode_s", ResultEncodeSeconds(server, w, tracer));
      const std::string path = cfg.out_dir + "/trace-" + cfg.workload + ".json";
      if (!tracer.Write(path)) {
        Info("trace: cannot write %s", path.c_str());
        rc = 1;
      } else {
        Info("trace: %zu spans written to %s", tracer.span_count(), path.c_str());
      }
    }
  }
  std::filesystem::remove_all(dir);
  Info("verification: PageRank max |rank - reference| = %.3g over %llu vertices", max_pr_err,
       static_cast<unsigned long long>(g.num_vertices));
  if (rc == 0) {
    report.Print(cfg.trace ? PerLayerMetrics() : EndToEndMetrics());
  }
  return rc;
}

}  // namespace perfbench
