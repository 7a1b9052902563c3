// Seeded inputs and oracles, cached per seed under the data directory.
//
// `perfbench prepare` generates them in a process of its own, so neither
// generation nor the reference computations fall inside a timed interval or
// the workload process's peak RSS. A workload process only loads them.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// One saved graph: `<dir>/<name>.bin` (packed edge records) plus oracles.
struct GraphInputs {
  std::string dir;
  std::string name;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;

  std::string edge_file() const { return name + ".bin"; }  // relative to dir
  std::string Path(const std::string& suffix) const { return dir + "/" + name + suffix; }
  uint64_t edge_bytes() const;
};

// PageRank graph: RMAT scale 20, edge factor 16 (scale 12 with --smoke).
// Oracle: ReferencePageRank ranks after 5 iterations.
GraphInputs PageRankGraph(const RunConfig& cfg);
// Serve graph: RMAT scale 16, edge factor 8 (scale 10 with --smoke).
// Oracles: ReferencePageRank (3 iterations), ReferenceWcc, and per root of
// the serve root set ReferenceBfsLevels plus SSSP distances.
GraphInputs ServeGraph(const RunConfig& cfg);

// Generates whatever is missing for the workload's graph; prints the input
// sizes. Returns false (with a message) if an oracle fails its cross-check.
bool PrepareInputs(const RunConfig& cfg);

// Loads a graph whose inputs PrepareInputs made; throws if they are missing.
GraphInputs LoadGraph(GraphInputs g);

// Oracle files.
struct ServeOracles {
  std::vector<double> pagerank3;
  std::vector<uint32_t> wcc;
  std::vector<uint32_t> roots;
  std::vector<std::vector<uint32_t>> bfs;  // per root
  std::vector<std::vector<float>> sssp;    // per root, +inf = unreachable
};
std::vector<double> LoadPageRank5(const GraphInputs& g);
ServeOracles LoadServeOracles(const GraphInputs& g);

// PageRank tolerance shared by every check: the engines compute in float and
// the reference in double (see README.md, "Verification").
bool PageRankClose(double got, double want);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
