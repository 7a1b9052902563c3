// perfbench: the repository benchmark's binary (run.py builds and invokes
// it).
//
//   perfbench prepare --workload=W --seed=N --data=DIR [--smoke]
//       generates the workload's inputs and oracles into DIR if missing.
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1 --data=DIR
//                 --scratch=DIR --out=DIR [--smoke] [--corrupt-oracle]
//       runs one workload and prints the result object as the last line.
//
// Workloads: pagerank-inmem, pagerank-ooc, serve-mixed (see README.md).
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "inputs.h"
#include "util/options.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload=pagerank-inmem|pagerank-ooc|"
               "serve-mixed --seed=N --data=DIR [--seconds=S --trace=0|1 --scratch=DIR "
               "--out=DIR] [--smoke] [--corrupt-oracle]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    return Usage();
  }
  std::string mode = argv[1];
  xstream::Options opts(argc - 1, argv + 1);
  RunConfig cfg;
  cfg.workload = opts.GetString("workload", "");
  cfg.seed = opts.GetUint("seed", 1);
  cfg.seconds = opts.GetDouble("seconds", 10.0);
  cfg.trace = opts.GetUint("trace", 0) != 0;
  cfg.smoke = opts.GetBool("smoke", false);
  cfg.corrupt_oracle = opts.GetBool("corrupt-oracle", false);
  cfg.data_dir = opts.GetString("data", "");
  cfg.scratch_dir = opts.GetString("scratch", "");
  cfg.out_dir = opts.GetString("out", "");
  if (cfg.data_dir.empty() || (cfg.workload != "pagerank-inmem" &&
                               cfg.workload != "pagerank-ooc" && cfg.workload != "serve-mixed")) {
    return Usage();
  }
  try {
    if (mode == "prepare") {
      return PrepareInputs(cfg) ? 0 : 1;
    }
    if (mode != "run" || cfg.scratch_dir.empty() || cfg.out_dir.empty()) {
      return Usage();
    }
    Info("run: workload %s, seed %llu, %.1f s, trace %d, %d engine threads", cfg.workload.c_str(),
         static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0, cfg.threads);
    if (cfg.workload == "pagerank-inmem") {
      return RunPageRankInMemory(cfg);
    }
    if (cfg.workload == "pagerank-ooc") {
      return RunPageRankOutOfCore(cfg);
    }
    return RunServeMixed(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
