#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <queue>
#include <random>
#include <utility>

#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "storage/posix_device.h"

namespace perfbench {

namespace {

constexpr int kServeRoots = 8;

GraphInputs Describe(const RunConfig& cfg, const char* full_name, const char* smoke_name) {
  GraphInputs g;
  g.dir = cfg.data_dir;
  g.name = cfg.smoke ? smoke_name : full_name;
  return g;
}

// Writes the edge file; the ".meta" file written last marks the graph done.
void SaveGraph(GraphInputs& g, const xstream::EdgeList& edges) {
  xstream::GraphInfo info = xstream::ScanEdges(edges);
  g.num_vertices = info.num_vertices;
  g.num_edges = info.num_edges;
  xstream::PosixDevice dev("data", g.dir);
  xstream::WriteEdgeFile(dev, g.edge_file(), edges);
}

void SaveMeta(const GraphInputs& g) {
  std::ofstream(g.Path(".meta")) << g.num_vertices << " " << g.num_edges << "\n";
}

// SSSP distances in the engines' float arithmetic (dist[src] + weight, both
// float), so a correct engine matches them exactly. Dijkstra is valid here
// because float addition of a non-negative weight is monotone.
std::vector<float> FloatSssp(const xstream::ReferenceGraph& g, xstream::VertexId root) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> dist(g.num_vertices(), inf);
  using Item = std::pair<float, xstream::VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[root] = 0.0f;
  heap.push({0.0f, root});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) {
      continue;
    }
    for (const auto& [v, w] : g.OutEdges(u)) {
      float nd = dist[u] + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

// Roots for BFS/SSSP queries: distinct vertices of the largest weakly
// connected component, drawn with the run seed, so no query is trivial.
std::vector<uint32_t> PickRoots(const std::vector<uint32_t>& wcc, uint64_t seed) {
  std::vector<uint64_t> size(wcc.size(), 0);
  for (uint32_t label : wcc) {
    ++size[label];
  }
  uint32_t giant = static_cast<uint32_t>(std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<uint32_t> members;
  for (uint32_t v = 0; v < wcc.size(); ++v) {
    if (wcc[v] == giant) {
      members.push_back(v);
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(members.begin(), members.end(), rng);
  members.resize(std::min<size_t>(members.size(), kServeRoots));
  return members;
}

// The PageRank graph's structure is fixed: RMAT generator seed 1, the graph
// `graphgen --kind=rmat --scale=20` saves. The run seed permutes its edge
// order, so each seed is a different input file of the same graph. Structure
// varies the engines' buffer footprints in steps: across generator seeds the
// out-of-core peak RSS read either about 62 or about 81 MB, which no bound
// could gate.
bool PreparePageRank(const RunConfig& cfg) {
  GraphInputs g = PageRankGraph(cfg);
  if (FileExists(g.Path(".meta"))) {
    return true;
  }
  xstream::RmatParams params;
  params.scale = cfg.smoke ? 12 : 20;
  params.edge_factor = 16;
  params.seed = 1;
  xstream::EdgeList edges = xstream::GenerateRmat(params);
  xstream::PermuteEdges(edges, cfg.seed);
  SaveGraph(g, edges);
  xstream::ReferenceGraph ref(edges, g.num_vertices);
  edges = xstream::EdgeList();
  WriteVector(g.Path(".pr5.f64"), xstream::ReferencePageRank(ref, 5));
  SaveMeta(g);
  return true;
}

bool PrepareServe(const RunConfig& cfg) {
  GraphInputs g = ServeGraph(cfg);
  if (FileExists(g.Path(".meta"))) {
    return true;
  }
  xstream::RmatParams params;
  params.scale = cfg.smoke ? 10 : 16;
  params.edge_factor = 8;
  params.seed = cfg.seed;
  xstream::EdgeList edges = xstream::GenerateRmat(params);
  SaveGraph(g, edges);
  xstream::ReferenceGraph ref(edges, g.num_vertices);
  WriteVector(g.Path(".pr3.f64"), xstream::ReferencePageRank(ref, 3));
  std::vector<uint32_t> wcc = xstream::ReferenceWcc(edges, g.num_vertices);
  WriteVector(g.Path(".wcc.u32"), wcc);
  std::vector<uint32_t> roots = PickRoots(wcc, cfg.seed);
  WriteVector(g.Path(".roots.u32"), roots);
  for (size_t i = 0; i < roots.size(); ++i) {
    WriteVector(g.Path(".bfs." + std::to_string(i) + ".u32"),
                xstream::ReferenceBfsLevels(ref, roots[i]));
    std::vector<float> sssp = FloatSssp(ref, roots[i]);
    // Cross-check the float oracle against the library's double-precision
    // reference: same reachable set, distances within the tests' 1e-3.
    std::vector<double> want = xstream::ReferenceSssp(ref, roots[i]);
    for (size_t v = 0; v < want.size(); ++v) {
      bool ok = std::isinf(want[v]) ? std::isinf(sssp[v])
                                    : std::fabs(static_cast<double>(sssp[v]) - want[v]) <= 1e-3;
      if (!ok) {
        Info("prepare: float SSSP oracle disagrees with ReferenceSssp at vertex %zu", v);
        return false;
      }
    }
    WriteVector(g.Path(".sssp." + std::to_string(i) + ".f32"), sssp);
  }
  SaveMeta(g);
  return true;
}

}  // namespace

uint64_t GraphInputs::edge_bytes() const { return num_edges * sizeof(xstream::Edge); }

GraphInputs PageRankGraph(const RunConfig& cfg) { return Describe(cfg, "rmat20", "rmat12"); }
GraphInputs ServeGraph(const RunConfig& cfg) { return Describe(cfg, "rmat16", "rmat10"); }

bool PrepareInputs(const RunConfig& cfg) {
  bool ok = cfg.workload == "serve-mixed" ? PrepareServe(cfg) : PreparePageRank(cfg);
  if (ok) {
    GraphInputs g =
        LoadGraph(cfg.workload == "serve-mixed" ? ServeGraph(cfg) : PageRankGraph(cfg));
    Info("input %s: %llu vertices, %llu edges, %llu bytes", g.name.c_str(),
         static_cast<unsigned long long>(g.num_vertices),
         static_cast<unsigned long long>(g.num_edges),
         static_cast<unsigned long long>(g.edge_bytes()));
  }
  return ok;
}

GraphInputs LoadGraph(GraphInputs g) {
  std::ifstream meta(g.Path(".meta"));
  if (!(meta >> g.num_vertices >> g.num_edges)) {
    throw std::runtime_error("missing inputs for " + g.Path("") + " (run prepare first)");
  }
  return g;
}

std::vector<double> LoadPageRank5(const GraphInputs& g) {
  return ReadVector<double>(g.Path(".pr5.f64"));
}

ServeOracles LoadServeOracles(const GraphInputs& g) {
  ServeOracles o;
  o.pagerank3 = ReadVector<double>(g.Path(".pr3.f64"));
  o.wcc = ReadVector<uint32_t>(g.Path(".wcc.u32"));
  o.roots = ReadVector<uint32_t>(g.Path(".roots.u32"));
  for (size_t i = 0; i < o.roots.size(); ++i) {
    o.bfs.push_back(ReadVector<uint32_t>(g.Path(".bfs." + std::to_string(i) + ".u32")));
    o.sssp.push_back(ReadVector<float>(g.Path(".sssp." + std::to_string(i) + ".f32")));
  }
  return o;
}

bool PageRankClose(double got, double want) { return std::fabs(got - want) <= 1e-4; }

}  // namespace perfbench
