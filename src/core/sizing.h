// Partition-count and fanout selection (paper §2.4, §3.4, §4, §5.6), and
// the one definition of the device path's knobs.
//
// X-Stream "automatically picks the number of streaming partitions for
// in-memory and out-of-core graphs, using the amount of main memory and the
// cache size as inputs. It also automatically picks the shuffler fanout for
// in-memory graphs, using the number of cache lines as input."
//
// The out-of-core engine is sized by a memory budget M and an I/O unit S
// (§3.4). Those and every other device-path knob are defined exactly once,
// in DeviceStoreOptions and HybridStoreOptions below; the engine configs,
// the scheduler's job factory and the serve daemon all take these structs,
// and DeviceOptionsFromFlags is the one place that parses them from flags.
#ifndef XSTREAM_CORE_SIZING_H_
#define XSTREAM_CORE_SIZING_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace xstream {

class Options;

/// Knobs of the device-backed stores (core/stream_store.h), shared by the
/// out-of-core engine, the hybrid engine and device-backed scheduler jobs.
/// Plain data; set up before constructing a store.
struct DeviceStoreOptions {
  /// The §3.4 streaming budget M (stream buffers plus one partition's
  /// vertex states): sizes the partition count when none is given.
  uint64_t streaming_budget_bytes = 64ull << 20;
  /// I/O unit S needed to reach streaming bandwidth (16 MB on the paper's
  /// testbed, Fig 9); benches and tests shrink it with their graphs.
  size_t io_unit_bytes = 1 << 20;
  /// §3.2 optimization 1: keep all vertex states in RAM when they fit in
  /// half the streaming budget. The hybrid store never reads it, and
  /// HybridConfig hides it.
  bool allow_vertex_memory_opt = true;
  /// §3.2 optimization 2: gather from memory when a whole scatter phase's
  /// updates fit in one stream buffer.
  bool allow_update_memory_opt = true;
  /// §3.3 TRIM: truncate each update file as soon as its stream is
  /// consumed; false defers truncation to the end of the gather phase.
  bool eager_update_truncate = true;
  /// Local-update absorption: updates a spill routes to the partition
  /// being scattered are gathered into a shadow of its loaded states
  /// instead of its update file (legal: updates are unordered within an
  /// iteration). Costs one partition-sized vertex array; file-resident
  /// vertex states only.
  bool absorb_local_updates = true;
  /// §3.3 compute/write overlap on the spill path (fig 28). False makes
  /// every spill wait for its own update-file write (--sync-spill).
  bool async_spill = true;
  /// Shuffle/write buffers the spill path rotates through (--spill-depth):
  /// 2 = the paper's double buffering, more for RAID update devices.
  /// Clamped to >= 2 (the gather scratch logic needs two non-fill buffers).
  int spill_queue_depth = 2;
  /// Delta+varint compression of spilled update streams (StreamCodec,
  /// --compress-updates): bit-identical results, fewer update-file bytes.
  bool compress_updates = false;
  /// Per-thread staging bytes for the single-stage shuffles
  /// (--stage-bytes; ~L2, see DefaultShuffleStageBytes); 0 keeps the fused
  /// counting shuffle. Output is identical either way.
  size_t stage_bytes = 0;
  /// Names the store's update and vertex files "<file_prefix>.<kind>.<p>".
  std::string file_prefix = "xs";
};

/// The device-store knobs plus the hybrid store's residency knobs
/// (core/hybrid_store.h).
struct HybridStoreOptions : DeviceStoreOptions {
  /// Sentinel for memory_budget_bytes: half of physical memory.
  static constexpr uint64_t kAutoMemoryBudget = UINT64_MAX;

  /// The pin budget (--memory-budget): vertex states, worst-case update
  /// buffers and cached edge streams the residency planner may keep in RAM.
  /// 0 pins nothing; see ResolvePinBudget for the rest. A planning target,
  /// not an enforced cap. For a scheduler job this is its initial budget,
  /// until the scheduler's budget re-split replaces it.
  uint64_t memory_budget_bytes = 0;
  /// Re-plan the pin set at each iteration boundary from the previous
  /// iteration's observed update volume (off: --no-replan).
  bool replan_between_iterations = true;
  /// Iterations a partition must win (or lose) its pin before the
  /// incremental re-plan migrates it (--residency-hysteresis); 0 = a
  /// stop-the-world full re-plan (the fig31 baseline).
  uint32_t residency_hysteresis = 2;
  /// Cache pinned partitions' edge streams in RAM after their first scan
  /// (--pin-edges); edge bytes are priced into the pin budget.
  bool pin_edges = false;
};

/// Parses the device-path flags (--budget-mb, --io-unit-kb, --sync-spill,
/// --spill-depth, --stage-bytes, --compress-updates, --memory-budget,
/// --no-replan, --residency-hysteresis, --pin-edges) on top of `defaults`,
/// so each binary keeps its own defaults. Aborts on malformed numbers.
HybridStoreOptions DeviceOptionsFromFlags(const Options& flags,
                                          const HybridStoreOptions& defaults);

/// The usage-text block for the flags DeviceOptionsFromFlags reads, with
/// `defaults` rendered in, for a binary's --help.
std::string DeviceFlagsUsage(const HybridStoreOptions& defaults);

/// Resolves a memory_budget_bytes value against the host: 0 stays 0,
/// kAutoMemoryBudget becomes half of physical memory, and anything else is
/// clamped to physical memory (ResolveMemoryBudget).
uint64_t ResolvePinBudget(uint64_t memory_budget_bytes);

// In-memory engine (§4): the number of partitions is a power of two chosen
// so that each partition's vertex *footprint* fits the per-core cache. The
// footprint counts vertex state plus one edge and one update per vertex-ish
// unit ("the sum of vertex data size, edge size and update size"), because
// streamed records must pass through the cache without evicting the states.
//
//   footprint = num_vertices * (state_bytes + edge_bytes + update_bytes)
//   partitions = round_pow2_up(footprint / cache_bytes), clamped to
//   [1, max_partitions].
uint32_t ChooseInMemoryPartitions(uint64_t num_vertices, size_t state_bytes, size_t edge_bytes,
                                  size_t update_bytes, size_t cache_bytes,
                                  uint32_t max_partitions = 1u << 20);

// Out-of-core engine (§3.4): with N = total vertex state bytes, M = memory
// budget and S = the I/O unit needed to reach streaming bandwidth, the
// partition count K must satisfy  N/K + 5*S*K <= M  (the vertex array of one
// partition plus 5 stream buffers of S*K bytes each). Returns the smallest
// viable K; aborts if none exists (memory budget too small — the minimum is
// 2*sqrt(5*N*S) at K = sqrt(N/(5S))).
uint32_t ChooseOutOfCorePartitions(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                                   size_t io_unit_bytes);

// True when some K in [1, 2^20] satisfies the §3.4 inequality.
bool OutOfCorePartitionsViable(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                               size_t io_unit_bytes);

// Hybrid engine residency budget (core/residency.h). Resolves the
// user-requested pin budget against the host: 0 means auto-detect (half of
// physical memory, falling back to 256 MB when the probe fails), and a
// request above the host's physical memory is clamped to it with a warning
// rather than aborting — an oversized budget is a plan that will thrash, not
// a programmer error.
uint64_t ResolveMemoryBudget(uint64_t requested_bytes);

// Multi-stage shuffler fanout (§4.2): the largest power of two not exceeding
// the number of cachelines in the cache (each output chunk needs a resident
// cacheline-sized cursor), capped at the partition count.
uint32_t ChooseShuffleFanout(uint32_t num_partitions, size_t cache_bytes,
                             size_t cacheline_bytes = 64);

// Per-thread staging size for the cache-aware single-stage shuffle (the
// --stage-bytes auto default): half the per-core cache, so the staging
// blocks and the partition-id side array coexist with the streamed records;
// clamped to [64 KB, 8 MB] against probe failures and giant L3-shared
// readings.
size_t DefaultShuffleStageBytes();

// Rounds up to a power of two (minimum 1).
uint32_t RoundUpPow2(uint64_t x);

}  // namespace xstream

#endif  // XSTREAM_CORE_SIZING_H_
