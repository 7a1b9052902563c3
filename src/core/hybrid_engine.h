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

struct HybridConfig {
  // Sentinel: auto-detect the pin budget from the host (half of physical
  // memory) via ResolveMemoryBudget. An explicit 0 pins nothing.
  static constexpr uint64_t kAutoMemoryBudget = UINT64_MAX;

  int threads = 0;  // 0 = all cores
  // Residency pin budget (the --memory-budget flag). kAutoMemoryBudget =
  // auto-detect; any other value is clamped to physical memory with a
  // warning (sizing.h).
  uint64_t memory_budget_bytes = kAutoMemoryBudget;
  // The §3.4 out-of-core working budget: stream buffers + the partition
  // count inequality, independent of the pin budget.
  uint64_t streaming_budget_bytes = 64ull << 20;
  size_t io_unit_bytes = 1 << 20;
  uint32_t num_partitions = 0;  // 0 = auto from §3.4
  bool allow_update_memory_opt = true;
  bool eager_update_truncate = true;
  bool absorb_local_updates = true;
  bool async_spill = true;
  int spill_queue_depth = 2;  // rotating spill write buffers (>= 2)
  // Delta+varint compression of spilled update streams (--compress-updates);
  // pinned partitions' RAM-resident updates are unaffected.
  bool compress_updates = false;
  // Per-thread staging for the single-stage shuffles (--stage-bytes); 0 =
  // legacy fused counting shuffle.
  size_t stage_bytes = 0;
  bool replan_between_iterations = true;
  // Iterations a partition must win/lose its place in the target pin set
  // before the incremental re-plan migrates it (CLI --residency-hysteresis).
  // 0 = legacy stop-the-world full re-plan between iterations.
  uint32_t residency_hysteresis = 2;
  // EWMA decay for the observed-update-volume re-plan signal (CLI
  // --residency-decay); 0 = last iteration only (legacy).
  double residency_decay = 0.0;
  // Cache pinned partitions' edge streams in RAM after their first scan
  // (CLI --pin-edges): a fully resident partition stops touching the edge
  // device entirely. Edge bytes are priced into the pin budget.
  bool pin_edges = false;
  bool keep_iteration_log = true;
  Partitioner* partitioner = nullptr;  // not owned; must outlive the engine
  std::string file_prefix = "xs";
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

    typename Store::Options opts;
    opts.memory_budget_bytes = config.streaming_budget_bytes;
    opts.io_unit_bytes = config.io_unit_bytes;
    opts.allow_update_memory_opt = config.allow_update_memory_opt;
    opts.eager_update_truncate = config.eager_update_truncate;
    opts.absorb_local_updates = config.absorb_local_updates;
    opts.async_spill = config.async_spill;
    opts.spill_queue_depth = config.spill_queue_depth;
    opts.compress_updates = config.compress_updates;
    opts.stage_bytes = config.stage_bytes;
    opts.file_prefix = config.file_prefix;
    opts.replan_between_iterations = config.replan_between_iterations;
    opts.residency_hysteresis = config.residency_hysteresis;
    opts.residency_decay = config.residency_decay;
    opts.pin_edges = config.pin_edges;
    uint64_t budget = config.memory_budget_bytes;
    if (budget == HybridConfig::kAutoMemoryBudget) {
      budget = ResolveMemoryBudget(0);
    } else if (budget > 0) {
      budget = ResolveMemoryBudget(budget);
    }
    opts.pin_budget_bytes = budget;
    store_ = std::make_unique<Store>(pool_, std::move(layout), opts, edge_dev, update_dev,
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
