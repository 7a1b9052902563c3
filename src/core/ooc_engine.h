// The out-of-core streaming engine (paper §3).
//
// The graph lives on storage devices as one edge file, one update file and
// one vertex file per streaming partition. Properties carried over from the
// paper:
//
//  * Input is a flat *unordered* edge-list file; the only pre-processing is
//    one streaming pass that shuffles edges into per-partition files using
//    the in-memory shuffle (§3.2). No sorting.
//  * The shuffle phase is folded into scatter: updates accumulate in an
//    in-memory stream buffer; when it fills, an in-memory shuffle splits it
//    into per-partition chunks which are appended to the partitions' update
//    files (§3, Fig 6).
//  * Prefetch distance 1 on input (StreamReader double-buffering); on
//    output the spill writes are double-buffered on the update device's I/O
//    thread, so the shuffle and scatter of batch k+1 overlap the write of
//    batch k (§3.3). `async_spill = false` restores a fully synchronous
//    spill for comparison (fig 28).
//  * Partition count from the §3.4 inequality N/K + 5·S·K ≤ M. The five
//    buffers of that inequality map to: 2 StreamReader input buffers, the
//    scatter fill buffer, and the two alternating shuffle/write buffers.
//  * Optimizations (§3.2): when the whole vertex set fits in the memory
//    budget, vertex files are skipped; when a full scatter phase's updates
//    fit in one stream buffer, they are gathered straight from memory and
//    never touch storage.
//  * Update files are truncated as soon as their stream is consumed,
//    modelling TRIM (§3.3).
//  * Beyond the paper: an optional streaming partitioner (src/partitioning/)
//    replaces the §2.2 range assignment, and local-update absorption
//    gathers updates destined to the partition currently being scattered
//    straight into a shadow of its loaded states — high-locality mappings
//    thereby shrink the update files (see fig27).
//  * Within a loaded chunk, work spreads over cores in the spirit of §4.3
//    (the in-memory engine layered above the disk engine): scatter
//    parallelizes over the chunk's edges; gather sub-partitions the chunk's
//    updates by destination and runs sub-partitions in parallel.
//
// This class is a thin facade: it sizes the layout and memory budget, builds
// a DeviceStreamStore (core/stream_store.h) over the given devices, and
// forwards the streaming loop to the shared StreamingPhaseDriver
// (core/phase_runtime.h) in its partition-sequential shape.
#ifndef XSTREAM_CORE_OOC_ENGINE_H_
#define XSTREAM_CORE_OOC_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/partition.h"
#include "core/phase_runtime.h"
#include "core/sizing.h"
#include "core/stats.h"
#include "core/stream_store.h"
#include "graph/types.h"
#include "partitioning/partitioner.h"
#include "storage/device.h"
#include "threads/thread_pool.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

// The device-store knobs (core/sizing.h) plus what the engine itself uses.
struct OutOfCoreConfig : DeviceStoreOptions {
  int threads = 0;              // 0 = all cores
  uint32_t num_partitions = 0;  // 0 = auto from §3.4
  // Optional streaming partitioner (src/partitioning/). Null keeps the
  // paper's equal contiguous ranges. When set, its passes stream the input
  // edge file during setup and vertex state is sliced in the mapping's
  // dense order (not owned; must outlive the engine).
  Partitioner* partitioner = nullptr;
  bool keep_iteration_log = true;
};

template <EdgeCentricAlgorithm Algo>
class OutOfCoreEngine {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using Store = DeviceStreamStore<Algo>;
  using Driver = StreamingPhaseDriver<Algo, Store>;

  // Devices may all be the same object (single disk), split between edges
  // and updates (the Fig 15 "independent disks" configuration), or RAID-0
  // wrappers. `input_edge_file` must exist on `edge_dev`; `info` comes from
  // ScanEdgeFile or the generator.
  OutOfCoreEngine(const OutOfCoreConfig& config, StorageDevice& edge_dev,
                  StorageDevice& update_dev, StorageDevice& vertex_dev,
                  const std::string& input_edge_file, GraphInfo info)
      : pool_(config.threads > 0 ? config.threads : NumCores()),
        num_vertices_(info.num_vertices),
        num_edges_(info.num_edges) {
    WallTimer setup_timer;

    uint64_t vertex_bytes = num_vertices_ * sizeof(VertexState);
    uint32_t k = config.num_partitions > 0
                     ? config.num_partitions
                     : ChooseOutOfCorePartitions(vertex_bytes, config.streaming_budget_bytes,
                                                 config.io_unit_bytes);
    PartitionLayout layout;
    if (config.partitioner != nullptr) {
      // The partitioner's passes stream the raw input file; like the store's
      // shuffle pass they are part of setup (X-Stream charges pre-processing
      // to the run).
      auto mapping = std::make_shared<VertexMapping>(config.partitioner->Partition(
          MakeEdgeStream(edge_dev, input_edge_file, config.io_unit_bytes), num_vertices_, k));
      layout = PartitionLayout(std::move(mapping));
    } else {
      layout = PartitionLayout(num_vertices_, k);
    }

    store_ = std::make_unique<Store>(pool_, std::move(layout), config, edge_dev, update_dev,
                                     vertex_dev, input_edge_file);
    PhaseDriverOptions dopts;
    dopts.keep_iteration_log = config.keep_iteration_log;
    driver_ = std::make_unique<Driver>(*store_, dopts);
    stats().setup_seconds = setup_timer.Seconds();
  }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_partitions() const { return store_->layout().num_partitions(); }
  bool vertices_in_memory() const { return store_->vertices_in_memory(); }
  const PartitionLayout& layout() const { return store_->layout(); }
  uint64_t buffer_bytes() const { return store_->buffer_bytes(); }

  // Names of the per-partition edge files, for partitioned semi-streaming
  // runs (RunSemiStreamingPartitioned) over this engine's store.
  std::vector<std::string> EdgeFileNames() const { return store_->EdgeFileNames(); }

  RunStats& stats() { return driver_->stats(); }
  const RunStats& stats() const { return driver_->stats(); }

  // The engine's store and driver, for advanced callers (the multi-job
  // scheduler drives stores/drivers directly; see src/scheduler/).
  Store& store() { return *store_; }
  Driver& driver() { return *driver_; }

  // Appends more raw edges to the partitioned store (the Fig 17 ingest
  // path): each batch goes through the same in-memory shuffle and is
  // appended to the per-partition edge files.
  void IngestEdges(const EdgeList& batch) {
    WallTimer timer;
    store_->IngestEdges(batch);
    num_edges_ += batch.size();
    stats().setup_seconds += timer.Seconds();
  }

  // Vertex iteration (§2.5). With file-resident vertices this loads, maps
  // and stores one partition at a time.
  template <typename F>
  void VertexMap(F&& f) {
    driver_->VertexMap(std::forward<F>(f));
  }

  // Sequential fold over all vertex states (dense/partition order).
  template <typename T, typename F>
  T VertexFold(T init, F&& f) {
    return driver_->VertexFoldDense(std::move(init), std::forward<F>(f));
  }

  void InitVertices(Algo& algo) { driver_->InitVertices(algo); }

  // One scatter(+folded shuffle) -> gather round over storage (Fig 6).
  IterationStats RunIteration(Algo& algo) { return driver_->RunIteration(algo); }

  RunStats Run(Algo& algo, uint64_t max_iterations = UINT64_MAX) {
    return driver_->Run(algo, max_iterations);
  }

  // Folds device counters into stats() (sim_io_seconds, bytes moved).
  // Run() calls this automatically; manual RunIteration drivers (SCC, MCST,
  // ALS, HyperANF) should call it before reading stats().
  void FinalizeStats() { driver_->FinalizeStats(); }

  // Clears run statistics and re-baselines the devices; lets one engine
  // time several consecutive computations (the Fig 17 ingest loop).
  void ResetStats() { driver_->ResetStats(); }

  // Checkpointing: persists all vertex state (one sequential write) so a
  // multi-hour out-of-core run can resume after a restart. States are
  // written in the layout's dense order, so a checkpoint is only portable to
  // an engine configured with the same partitioner and partition count.
  void SaveVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->SaveVertexStates(dev, file);
  }

  void LoadVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->LoadVertexStates(dev, file);
  }

 private:
  ThreadPool pool_;
  uint64_t num_vertices_;
  uint64_t num_edges_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<Driver> driver_;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_OOC_ENGINE_H_
