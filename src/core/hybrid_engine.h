// The hybrid (partially resident) streaming engine — the third engine mode.
//
// Sits between the in-memory engine (§4, everything resident) and the
// out-of-core engine (§3, everything streamed): a ResidencyPlanner
// (core/residency.h) pins the partitions with the best
// disk-traffic-avoided-per-resident-byte density under `--memory-budget`,
// and the HybridStreamStore (core/hybrid_store.h) serves pinned partitions
// from RAM — vertex states held resident, incoming updates buffered in
// memory — while unpinned partitions keep the full device path (vertex /
// update files, async spill, local-update absorption). The shared
// StreamingPhaseDriver runs unchanged.
//
// Budget semantics: `memory_budget_bytes` prices only the pin set (resident
// vertex states + worst-case update buffers); the out-of-core working
// memory — the §3.4 stream buffers and the partition-count inequality —
// stays under `streaming_budget_bytes`, exactly as in OutOfCoreConfig. At
// budget 0 the engine reproduces the out-of-core engine bit-for-bit when
// that engine runs with `allow_vertex_memory_opt = false`. Its default
// keeps vertex states in RAM when they fit in half the budget, which turns
// local-update absorption off: a default out-of-core run writes different
// update-file bytes and can be faster or slower than hybrid at budget 0.
// At a budget covering every partition, vertex and update traffic never
// touch the devices and only edges stream.
#ifndef XSTREAM_CORE_HYBRID_ENGINE_H_
#define XSTREAM_CORE_HYBRID_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/hybrid_store.h"
#include "core/partition.h"
#include "core/phase_runtime.h"
#include "core/residency.h"
#include "core/sizing.h"
#include "core/stats.h"
#include "graph/types.h"
#include "partitioning/partitioner.h"
#include "storage/device.h"
#include "threads/thread_pool.h"
#include "util/env.h"
#include "util/timer.h"

namespace xstream {

// The hybrid store's knobs (core/sizing.h) plus what the engine itself uses.
// memory_budget_bytes is the pin budget and streaming_budget_bytes the §3.4
// budget; kAutoMemoryBudget (the engine's default) pins up to half of
// physical memory.
struct HybridConfig : HybridStoreOptions {
  HybridConfig() { memory_budget_bytes = kAutoMemoryBudget; }

  int threads = 0;              // 0 = all cores
  uint32_t num_partitions = 0;  // 0 = auto from §3.4
  Partitioner* partitioner = nullptr;  // not owned; must outlive the engine
  bool keep_iteration_log = true;

 private:
  // Residency is the planner's call: the hybrid store keeps vertex states
  // in files and pins them per partition, so it never reads this knob.
  using DeviceStoreOptions::allow_vertex_memory_opt;
};

template <EdgeCentricAlgorithm Algo>
class HybridEngine {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using Store = HybridStreamStore<Algo>;
  using Driver = StreamingPhaseDriver<Algo, Store>;

  HybridEngine(const HybridConfig& config, StorageDevice& edge_dev,
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
  const PartitionLayout& layout() const { return store_->layout(); }
  uint64_t buffer_bytes() const { return store_->buffer_bytes(); }

  // Residency introspection.
  uint64_t pin_budget_bytes() const { return store_->planner().budget_bytes(); }
  const ResidencyPlan& residency_plan() const { return store_->residency_plan(); }
  uint32_t resident_partitions() const { return store_->residency_plan().resident_count(); }
  uint64_t replans() const { return store_->replans(); }
  // The budget at which every partition pins (benches sweep fractions).
  uint64_t FullPinBytes() const { return store_->FullPinBytes(); }
  // Manual re-plan against explicit inputs (automatic re-planning runs at
  // iteration boundaries when replan_between_iterations is set).
  void Replan(const std::vector<PartitionResidencyStats>& inputs) { store_->Replan(inputs); }

  std::vector<std::string> EdgeFileNames() const { return store_->EdgeFileNames(); }

  RunStats& stats() { return driver_->stats(); }
  const RunStats& stats() const { return driver_->stats(); }

  // The engine's store and driver, for advanced callers (the multi-job
  // scheduler drives stores/drivers directly; see src/scheduler/).
  Store& store() { return *store_; }
  Driver& driver() { return *driver_; }

  void IngestEdges(const EdgeList& batch) {
    WallTimer timer;
    store_->IngestEdges(batch);
    num_edges_ += batch.size();
    stats().setup_seconds += timer.Seconds();
  }

  template <typename F>
  void VertexMap(F&& f) {
    driver_->VertexMap(std::forward<F>(f));
  }

  template <typename T, typename F>
  T VertexFold(T init, F&& f) {
    return driver_->VertexFoldDense(std::move(init), std::forward<F>(f));
  }

  void InitVertices(Algo& algo) { driver_->InitVertices(algo); }

  IterationStats RunIteration(Algo& algo) { return driver_->RunIteration(algo); }

  RunStats Run(Algo& algo, uint64_t max_iterations = UINT64_MAX) {
    return driver_->Run(algo, max_iterations);
  }

  void FinalizeStats() { driver_->FinalizeStats(); }
  void ResetStats() { driver_->ResetStats(); }

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

#endif  // XSTREAM_CORE_HYBRID_ENGINE_H_
