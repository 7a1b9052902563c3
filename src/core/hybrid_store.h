// HybridStreamStore: a partially resident StreamStore — the planner-chosen
// hot partitions live in RAM, the rest stream through the device path.
//
// X-Stream's two engines are the endpoints of a residency spectrum: the
// in-memory engine pins everything, the out-of-core engine pins nothing and
// pays device speed even when most of the working set would fit in RAM.
// This store interpolates: a ResidencyPlanner (core/residency.h) solves a
// byte-budgeted pin set from per-partition locality tallies, and for every
// pinned partition
//
//  * vertex states are held in RAM (vertex-file loads/stores become
//    memcpys in/out of the pin — the partition "file" is RAM),
//  * updates destined to it are appended to an in-RAM buffer during the
//    spill shuffle instead of being written to — and later read back
//    from — its update file, exactly the §3.2 memory-gather optimization
//    applied per partition instead of all-or-nothing, and
//  * with `pin_edges` on, its edge stream is captured into a
//    PinnedEdgeCache (core/stream_store.h) on the first device scan and
//    served from RAM afterwards — at a full budget the edge device is
//    never touched after the first iteration and the store runs at
//    memory speed end to end.
//
// Unpinned partitions keep the full DeviceStreamStore behavior, including
// local-update absorption and the async double-buffered spill. The
// StreamingPhaseDriver runs unchanged: this class derives from
// DeviceStreamStore and *shadows* (static dispatch through the driver's
// Store parameter) the load/store/gather methods whose behavior the
// resident set changes, while the spill path is customized through the
// base store's virtual routing hooks (KeepUpdatesResident /
// AppendResidentUpdates / ObserveRoutedUpdates) so the
// shuffle/absorb/append machinery exists exactly once. With an empty pin
// set every customization degenerates to the base behavior, so budget 0
// reproduces the DeviceStreamStore with file-resident vertex states
// (`allow_vertex_memory_opt = false`, which this store forces) exactly.
//
// Residency is *incremental*: between iterations the store asks the
// planner for a PlanDelta against the observed per-partition update volume
// — only the partitions whose win (or loss) survived the hysteresis filter
// migrate, and each migration is applied at that partition's own scatter
// boundary (the driver's AtPartitionBoundary hook) instead of in a
// stop-the-world phase. Mid-iteration flips are safe because the gather
// path always drains both possible homes of a partition's updates: its
// in-RAM buffer and its update file. `residency_hysteresis = 0` restores
// the legacy stop-the-world full re-plan (the fig31 baseline).
#ifndef XSTREAM_CORE_HYBRID_STORE_H_
#define XSTREAM_CORE_HYBRID_STORE_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/residency.h"
#include "core/stream_store.h"

namespace xstream {

/// Builds the planner inputs from the store's edge tallies: the destination
/// and same-partition counts are the per-partition decomposition of the
/// PartitionQuality edge cut — the locality signal the streaming
/// partitioners optimize. When absorption is on, updates local to their
/// source partition never hit the update file anyway, so only
/// cross-partition incoming edges count toward a pin's avoided traffic.
/// `pinned_edge_counts` (edges by source partition) is non-null when edge
/// pinning prices edge streams into the pin cost and savings.
/// Thread-safety: pure function of its inputs. Blocking: never.
std::vector<PartitionResidencyStats> BuildHybridPlanInputs(
    const PartitionLayout& layout, size_t vertex_state_bytes, size_t update_bytes,
    const std::vector<uint64_t>& dst_edge_counts,
    const std::vector<uint64_t>& local_edge_counts, bool absorb_local_updates,
    const std::vector<uint64_t>* pinned_edge_counts = nullptr);

/// The partially resident store. Same threading contract as the base
/// DeviceStreamStore: one compute loop drives the phase surface (scatter /
/// gather / iteration hooks) from a single thread at a time — the solo
/// driver's loop or the scheduler's single-driver protocol — while spill
/// writes run on the update device's I/O thread. SetPinBudget is the one
/// member safe to call from another thread between the driving thread's
/// calls (the scheduler invokes it at admit/retire boundaries it drives
/// itself, so in practice it is serialized too).
template <EdgeCentricAlgorithm Algo>
class HybridStreamStore : public DeviceStreamStore<Algo> {
 public:
  using Base = DeviceStreamStore<Algo>;
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using GatherPlan = typename Base::GatherPlan;
  using Options = HybridStoreOptions;
  static constexpr bool kPartitionParallel = false;

  /// Constructs the store, runs the setup pass (partitioning the input
  /// edge file — blocks on edge-device I/O) and applies the setup-time pin
  /// plan (blocks on vertex-device reads for the initial promotions).
  HybridStreamStore(ThreadPool& pool, PartitionLayout layout, const Options& opts,
                    StorageDevice& edge_dev, StorageDevice& update_dev,
                    StorageDevice& vertex_dev, const std::string& input_edge_file,
                    const StoreWiring& wiring = {})
      : Base(pool, std::move(layout), FileResidentBase(opts), edge_dev, update_dev,
             vertex_dev, input_edge_file, PlannerWiring(wiring)),
        hopts_(opts),
        planner_(ResolvePinBudget(opts.memory_budget_bytes)) {
    // Residency is planner-controlled: the base store must keep vertices in
    // files so pinning (and eviction) is a per-partition decision.
    XS_CHECK(!this->vertices_in_memory());
    planner_.set_hysteresis(hopts_.residency_hysteresis);
    uint32_t k = layout_.num_partitions();
    pinned_.resize(k);
    pinned_updates_.resize(k);
    observed_updates_.assign(k, 0);
    pending_promote_.assign(k, 0);
    pending_evict_.assign(k, 0);
    plan_.resident.assign(k, false);
    if (hopts_.pin_edges) {
      owns_edge_cache_ = wiring.shared_edge_cache == nullptr;
      edge_cache_ = owns_edge_cache_
                        ? std::make_shared<PinnedEdgeCache>(
                              k, std::max<uint64_t>(1, opts_.io_unit_bytes / sizeof(Edge)))
                        : wiring.shared_edge_cache;
    }
    ApplyPlan(planner_.Plan(InitialPlanInputs()));
    replans_ = 0;  // the construction-time plan is not a re-plan
  }

  /// Releases this store's shares of the (possibly scheduler-shared) edge
  /// cache, so a retired job's cached edge streams are freed instead of
  /// leaking for the scan source's lifetime.
  ~HybridStreamStore() override {
    if (edge_cache_ != nullptr) {
      for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
        if (plan_.resident[p]) {
          edge_cache_->Release(p);
        }
      }
    }
  }

  /// The currently applied pin set. During an iteration with staged
  /// migrations the bitmap transitions partition by partition as scatter
  /// boundaries pass; the byte/savings accounting already reflects the
  /// staged target.
  const ResidencyPlan& residency_plan() const { return plan_; }
  const ResidencyPlanner& planner() const { return planner_; }
  /// Re-plans that changed (or staged a change to) the pin set.
  uint64_t replans() const { return replans_; }

  /// Accounted cost of pinning every partition (the planner inputs' total,
  /// including edge streams when pin_edges is on): the budget at which the
  /// store is fully resident. Benches sweep fractions of this.
  uint64_t FullPinBytes() const {
    uint64_t total = 0;
    for (const PartitionResidencyStats& p : InitialPlanInputs()) {
      total += p.cost();
    }
    return total;
  }

  /// Stop-the-world re-plan against explicit inputs (tests; operators with
  /// external knowledge). Migrates immediately — blocks on vertex-device
  /// I/O for the state moves. Must be called between iterations, from the
  /// driving thread. Automatic re-planning uses the observed update volume
  /// and the incremental delta path instead — see BeginIteration.
  void Replan(const std::vector<PartitionResidencyStats>& inputs) {
    ApplyPlan(planner_.Plan(inputs));
    PushResidencyStats();
  }

  /// Budget handed down by the multi-job scheduler as jobs come and go.
  /// Takes effect at the next iteration boundary — including a first
  /// boundary with no observations yet (scheduler admission), which
  /// re-plans against the setup-time inputs — never mid-iteration (the
  /// pinned update buffers hold mid-iteration state, so re-planning
  /// immediately would drop updates). Bypasses the hysteresis (budget
  /// reassignments must land promptly) but the resulting migrations still
  /// apply one partition at a time, at scatter boundaries. Honored even
  /// when automatic re-planning is off. Never blocks.
  void SetPinBudget(uint64_t bytes) {
    planner_.set_budget_bytes(bytes);
    budget_dirty_ = true;
  }

  // ---- Shadowed store surface --------------------------------------------

  void BindStats(RunStats* stats) {
    Base::BindStats(stats);
    PushResidencyStats();
  }

  /// Iteration boundary: runs the incremental re-plan (PlanDelta with
  /// hysteresis) against the observed update volume and stages the
  /// resulting migrations; they apply as the scatter reaches each
  /// partition's boundary. With residency_hysteresis == 0, falls back to
  /// the legacy stop-the-world full re-plan (blocks on the vertex-device
  /// I/O of every migration at once).
  void BeginIteration() {
    Base::BeginIteration();
    bool first = iterations_seen_ == 0;
    if ((!first && hopts_.replan_between_iterations) || budget_dirty_) {
      // A budget assigned before the first iteration (scheduler admission)
      // has no observed volumes yet; re-plan from the setup tallies.
      std::vector<PartitionResidencyStats> inputs =
          first ? InitialPlanInputs() : ObservedPlanInputs();
      if (hopts_.residency_hysteresis == 0) {
        ApplyPlan(planner_.Plan(inputs));
      } else {
        StageDelta(planner_.PlanDelta(plan_, inputs, /*force=*/budget_dirty_));
      }
      budget_dirty_ = false;
    }
    ++iterations_seen_;
    std::fill(observed_updates_.begin(), observed_updates_.end(), 0);
    PushResidencyStats();
  }

  /// Partition boundary (driver hook): applies the staged migration for
  /// partition p, if any. Promotions read p's states from the vertex file
  /// into the pin; evictions write the pin back — one partition's worth of
  /// blocking vertex-device I/O, amortized across the iteration instead of
  /// bundled into a stop-the-world phase. An evicted partition's already
  /// collected in-RAM updates stay buffered; the gather drains both the
  /// buffer and the update file, so mid-iteration flips lose nothing.
  void AtPartitionBoundary(uint32_t p) {
    if (pending_evict_[p]) {
      pending_evict_[p] = 0;
      EvictPartition(p);
      PushResidencyStats();
    } else if (pending_promote_[p]) {
      pending_promote_[p] = 0;
      PromotePartition(p);
      PushResidencyStats();
    }
  }

  /// Pinned partitions' vertex "file" is RAM: loads and stores are memcpys
  /// between the pin and the one-partition scratch the driver works in.
  void LoadPartition(uint32_t p) {
    uint64_t bytes = layout_.Size(p) * sizeof(VertexState);
    if (plan_.resident[p]) {
      std::memcpy(part_states_.data(), pinned_[p].data(), bytes);
      CountAvoided(bytes);
      return;
    }
    Base::LoadPartition(p);
  }

  void StorePartition(uint32_t p) {
    uint64_t bytes = layout_.Size(p) * sizeof(VertexState);
    if (plan_.resident[p]) {
      std::memcpy(pinned_[p].data(), part_states_.data(), bytes);
      CountAvoided(bytes);
      return;
    }
    Base::StorePartition(p);
  }

  /// Absorption stays armed for unpinned scatter partitions only: a pinned
  /// partition's own updates go to its RAM buffer anyway, so the shadow
  /// pass would only duplicate work.
  void BeginPartitionScatter(uint32_t s) {
    LoadPartition(s);
    if (!plan_.resident[s] && opts_.absorb_local_updates) {
      std::memcpy(shadow_states_.data(), part_states_.data(),
                  layout_.Size(s) * sizeof(VertexState));
      shadow_dirty_ = false;
      absorb_partition_ = s;
    }
  }

  /// Streams partition s's edges: from the PinnedEdgeCache when a sealed
  /// capture exists (no device I/O at all), capturing into the cache while
  /// streaming when s is pinned with pin_edges on, from the edge device
  /// otherwise (blocks on reads the prefetch missed, like the base).
  template <typename F>
  void ForEachEdgeChunk(uint32_t s, F&& f) {
    if (edge_cache_ != nullptr) {
      uint64_t served = 0;
      auto stream = [&](const PinnedEdgeCache::ChunkConsumer& consumer) {
        Base::ForEachEdgeChunk(s, consumer);
      };
      switch (edge_cache_->ServeOrCapture(s, f, stream, &served)) {
        case PinnedEdgeCache::ServeResult::kServed:
          stats_->edge_reads_avoided_bytes += served;
          return;
        case PinnedEdgeCache::ServeResult::kCaptured:
          stats_->pinned_edge_bytes = edge_cache_->bytes();
          return;
        case PinnedEdgeCache::ServeResult::kMiss:
          break;
      }
    }
    Base::ForEachEdgeChunk(s, std::forward<F>(f));
  }

  void EndPartitionScatter(Algo& algo, ConcurrentAppender& appender) {
    uint32_t s = absorb_partition_;
    uint64_t drained_before = this->drained_updates_;
    Base::EndPartitionScatter(algo, appender);
    if (s != Base::kNoAbsorbPartition) {
      observed_updates_[s] += this->drained_updates_ - drained_before;
    }
  }

  // The spill path itself lives in the base store; the hybrid routing — a
  // third destination class where chunks for pinned partitions are appended
  // to their RAM buffers on the compute thread and excluded from the
  // update-file write — plugs into its virtual hooks, so the base
  // SpillUpdates / FinishScatter (including the tail spill) serve both
  // stores from one copy.
  bool KeepUpdatesResident(uint32_t p) const override { return plan_.resident[p]; }

  void AppendResidentUpdates(uint32_t p, const Update* rec, uint64_t count) override {
    pinned_updates_[p].insert(pinned_updates_[p].end(), rec, rec + count);
  }

  void ObserveRoutedUpdates(uint32_t p, uint64_t count) override {
    observed_updates_[p] += count;
  }

  /// Cancelled mid-scatter: drain the base spill state, then discard the
  /// pinned partitions' partially collected RAM buffers too. Blocks until
  /// in-flight spill writes land. The store is only safe to destroy
  /// afterwards, not to resume (see the base contract).
  void AbortScatter() {
    Base::AbortScatter();
    for (auto& buf : pinned_updates_) {
      buf.clear();
    }
  }

  void BeginPartitionGather(uint32_t p) { LoadPartition(p); }

  /// A partition's update stream this iteration may live in its RAM buffer,
  /// its update file, or — when its residency flipped at a mid-iteration
  /// boundary — both. Drain the buffer first (chunked at the I/O unit so
  /// the driver's gather sub-partitioning sees the same shape as a file
  /// stream), then any file bytes. Steady-state pinned partitions have an
  /// empty file, so the file probe costs one size query and no I/O.
  template <typename F>
  void ForEachUpdateChunk(uint32_t p, F&& f) {
    const std::vector<Update>& buf = pinned_updates_[p];
    if (!buf.empty()) {
      uint64_t chunk = std::max<uint64_t>(1, opts_.io_unit_bytes / sizeof(Update));
      for (uint64_t i = 0; i < buf.size(); i += chunk) {
        f(buf.data() + i, std::min<uint64_t>(chunk, buf.size() - i));
      }
    }
    if (update_dev_.FileSize(update_files_[p]) > 0) {
      Base::ForEachUpdateChunk(p, std::forward<F>(f));
    }
  }

  /// A pinned partition's gather stores the states back into the pin and
  /// recycles its RAM update buffer; unpinned partitions keep the full
  /// base path, releasing any post-eviction RAM leftovers. Updates spilled
  /// to p's file before a mid-iteration promotion get the exact base
  /// treatment once consumed — eager TRIM, or the FinishGather sweep when
  /// the ablation turns eager truncation off — and the peak-occupancy
  /// sample runs at every gather boundary either way (mid-iteration flips
  /// mean files can change even at a pinned partition's gather).
  void EndPartitionGather(uint32_t p, bool memory_gather) {
    if (!plan_.resident[p]) {
      pinned_updates_[p] = {};  // post-eviction leftovers were just gathered
      Base::EndPartitionGather(p, memory_gather);
      return;
    }
    StorePartition(p);
    pinned_updates_[p].clear();  // consumed; capacity kept for next iteration
    if (!memory_gather && opts_.eager_update_truncate &&
        update_dev_.FileSize(update_files_[p]) > 0) {
      update_dev_.Truncate(update_files_[p], 0);
    }
    this->SampleUpdateOccupancy();
  }

  /// Approximate RAM held for this store's lifetime (admission pricing for
  /// the multi-job scheduler): the base buffers plus the edge-cache bytes a
  /// privately owned cache currently holds. A scheduler-shared cache is not
  /// added here — its bytes are already covered by the pin budgets, since
  /// every pinning job prices edge bytes into its plan (see
  /// StoreWiring::shared_edge_cache).
  uint64_t ResidentFootprintBytes() const {
    uint64_t total = Base::ResidentFootprintBytes();
    if (edge_cache_ != nullptr && owns_edge_cache_) {
      total += edge_cache_->bytes();
    }
    return total;
  }

 private:
  static DeviceStoreOptions FileResidentBase(DeviceStoreOptions opts) {
    opts.allow_vertex_memory_opt = false;
    return opts;
  }

  static StoreWiring PlannerWiring(StoreWiring wiring) {
    wiring.collect_dst_tallies = true;  // the planner prices pins from these
    return wiring;
  }

  // Every pinning store prices edge bytes into its plan, shared cache or
  // not — the pin budget must see the full cost of what it requests, or a
  // budget/cache feedback loop forms (pin -> cache grows -> budget charged
  // elsewhere shrinks -> forced evict -> cache shrinks -> re-promote, ...).
  bool PriceEdgesInPlan() const { return hopts_.pin_edges; }

  std::vector<PartitionResidencyStats> InitialPlanInputs() const {
    return BuildHybridPlanInputs(layout_, sizeof(VertexState), sizeof(Update),
                                 this->dst_edge_counts(), this->local_edge_counts(),
                                 opts_.absorb_local_updates,
                                 PriceEdgesInPlan() ? &this->src_edge_counts() : nullptr);
  }

  // Re-plan inputs: the worst-case one-update-per-edge buffer estimate is
  // replaced by the previous iteration's observed per-partition volume.
  // Slightly optimistic on the avoided side for unpinned partitions
  // (absorbed updates are counted although they never hit the file), which
  // only makes the planner favor locality-heavy partitions it would pin
  // anyway.
  std::vector<PartitionResidencyStats> ObservedPlanInputs() const {
    std::vector<PartitionResidencyStats> inputs(layout_.num_partitions());
    for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
      uint64_t vbytes = layout_.Size(p) * sizeof(VertexState);
      uint64_t ubytes = observed_updates_[p] * sizeof(Update);
      uint64_t ebytes =
          PriceEdgesInPlan() ? this->src_edge_counts()[p] * sizeof(Edge) : 0;
      inputs[p].vertex_bytes = vbytes;
      inputs[p].update_buffer_bytes = ubytes;
      inputs[p].edge_bytes = ebytes;
      inputs[p].avoided_bytes_per_iteration = PricePinSavings(vbytes, ubytes, ebytes);
    }
    return inputs;
  }

  // One promotion: p's states move vertex file -> RAM pin; its edge stream
  // becomes capture-eligible. Counted as migration traffic.
  void PromotePartition(uint32_t p) {
    obs::TraceSpan span("migration", "residency", p);
    obs::MetricsRegistry::Global().counter("residency.promotions").Add();
    uint64_t n = layout_.Size(p);
    uint64_t bytes = n * sizeof(VertexState);
    pinned_[p].resize(n);
    if (n > 0) {
      vertex_dev_.Read(vertex_files_[p], 0,
                       std::span<std::byte>(reinterpret_cast<std::byte*>(pinned_[p].data()),
                                            bytes));
    }
    plan_.resident[p] = true;
    if (edge_cache_ != nullptr) {
      edge_cache_->Request(p);
    }
    ++stats_->promotions;
    stats_->migration_bytes += bytes;
  }

  // One eviction: p's states move RAM pin -> vertex file; its cached edges
  // are released. The in-RAM update buffer is NOT dropped — updates already
  // routed there this iteration are gathered from it (see
  // ForEachUpdateChunk) and released at gather end.
  void EvictPartition(uint32_t p) {
    obs::TraceSpan span("migration", "residency", p);
    obs::MetricsRegistry::Global().counter("residency.evictions").Add();
    uint64_t n = layout_.Size(p);
    uint64_t bytes = n * sizeof(VertexState);
    if (n > 0) {
      this->StorePartitionFrom(p, pinned_[p].data());
    }
    pinned_[p] = {};
    plan_.resident[p] = false;
    if (edge_cache_ != nullptr) {
      edge_cache_->Release(p);
      stats_->pinned_edge_bytes = edge_cache_->bytes();
    }
    ++stats_->evictions;
    stats_->migration_bytes += bytes;
  }

  // Stop-the-world plan application (construction, explicit Replan, and the
  // hysteresis-0 legacy mode): every differing partition migrates now.
  void ApplyPlan(ResidencyPlan next) {
    bool changed = false;
    for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
      if (next.resident[p] && !plan_.resident[p]) {
        PromotePartition(p);
        changed = true;
      } else if (!next.resident[p] && plan_.resident[p]) {
        EvictPartition(p);
        pinned_updates_[p] = {};  // between iterations: empty; free capacity
        changed = true;
      }
    }
    if (changed) {
      ++replans_;
    }
    plan_ = std::move(next);
  }

  // Incremental plan application: record which partitions migrate; each
  // lands at its own scatter boundary (AtPartitionBoundary). The byte and
  // savings accounting jumps to the delta's target immediately — it is a
  // planning gauge, while the resident bitmap tracks physical state.
  void StageDelta(ResidencyDelta delta) {
    plan_.resident_bytes = delta.plan.resident_bytes;
    plan_.avoided_bytes_per_iteration = delta.plan.avoided_bytes_per_iteration;
    if (delta.empty()) {
      return;
    }
    for (uint32_t p : delta.evict) {
      pending_evict_[p] = 1;
    }
    for (uint32_t p : delta.promote) {
      pending_promote_[p] = 1;
    }
    ++replans_;
  }

  void PushResidencyStats() {
    stats_->resident_partition_count = plan_.resident_count();
    stats_->resident_bytes = plan_.resident_bytes;
    stats_->pinned_edge_bytes = edge_cache_ != nullptr ? edge_cache_->bytes() : 0;
  }

  void CountAvoided(uint64_t bytes) { stats_->avoided_spill_bytes += bytes; }

  using Base::absorb_partition_;
  using Base::layout_;
  using Base::opts_;
  using Base::part_states_;
  using Base::shadow_dirty_;
  using Base::shadow_states_;
  using Base::stats_;
  using Base::update_dev_;
  using Base::update_files_;
  using Base::vertex_dev_;
  using Base::vertex_files_;

  HybridStoreOptions hopts_;
  ResidencyPlanner planner_;
  ResidencyPlan plan_;
  // Pinned vertex states (by partition, dense order within each) and the
  // in-RAM update buffers of the pinned partitions.
  std::vector<std::vector<VertexState>> pinned_;
  std::vector<std::vector<Update>> pinned_updates_;
  // Updates routed to each destination partition this iteration (spilled,
  // kept in RAM, absorbed and drained alike) — next iteration's buffer
  // estimate.
  std::vector<uint64_t> observed_updates_;
  // Migrations staged by the last PlanDelta, awaiting their partition's
  // scatter boundary.
  std::vector<uint8_t> pending_promote_;
  std::vector<uint8_t> pending_evict_;
  // Pinned partitions' edge streams (pin_edges): privately owned in solo
  // runs, the scan source's shared copy under the scheduler.
  std::shared_ptr<PinnedEdgeCache> edge_cache_;
  bool owns_edge_cache_ = false;
  uint64_t iterations_seen_ = 0;
  uint64_t replans_ = 0;
  bool budget_dirty_ = false;  // SetPinBudget awaiting the next boundary
};

}  // namespace xstream

#endif  // XSTREAM_CORE_HYBRID_STORE_H_
