#include "core/sizing.h"

#include <algorithm>
#include <bit>

#include "util/env.h"
#include "util/logging.h"
#include "util/options.h"

namespace xstream {

size_t DefaultShuffleStageBytes() {
  return std::clamp<size_t>(PerCoreCacheBytes() / 2, size_t{64} << 10, size_t{8} << 20);
}

uint32_t RoundUpPow2(uint64_t x) {
  if (x <= 1) {
    return 1;
  }
  XS_CHECK_LE(x, uint64_t{1} << 31);
  return static_cast<uint32_t>(std::bit_ceil(x));
}

uint32_t ChooseInMemoryPartitions(uint64_t num_vertices, size_t state_bytes, size_t edge_bytes,
                                  size_t update_bytes, size_t cache_bytes,
                                  uint32_t max_partitions) {
  XS_CHECK_GT(cache_bytes, 0u);
  uint64_t footprint =
      num_vertices * static_cast<uint64_t>(state_bytes + edge_bytes + update_bytes);
  uint64_t needed = (footprint + cache_bytes - 1) / cache_bytes;
  uint32_t k = RoundUpPow2(std::max<uint64_t>(1, needed));
  return std::min(k, std::max(1u, max_partitions));
}

bool OutOfCorePartitionsViable(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                               size_t io_unit_bytes) {
  for (uint64_t k = 1; k <= (uint64_t{1} << 20); k *= 2) {
    uint64_t need = vertex_state_bytes / k + 5 * io_unit_bytes * k;
    if (need <= memory_budget_bytes) {
      return true;
    }
  }
  return false;
}

uint32_t ChooseOutOfCorePartitions(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                                   size_t io_unit_bytes) {
  XS_CHECK_GT(io_unit_bytes, 0u);
  // Smallest K wins: fewer partitions means more sequential access (§2.4).
  // Linear scan is fine — K never exceeds a few thousand in practice.
  for (uint64_t k = 1; k <= (uint64_t{1} << 20); ++k) {
    uint64_t per_partition_vertices = (vertex_state_bytes + k - 1) / k;
    uint64_t need = per_partition_vertices + 5 * io_unit_bytes * k;
    if (need <= memory_budget_bytes) {
      return static_cast<uint32_t>(k);
    }
  }
  XS_CHECK(false) << "no viable out-of-core partition count: vertex bytes=" << vertex_state_bytes
                  << " budget=" << memory_budget_bytes << " io unit=" << io_unit_bytes
                  << " (minimum budget is 2*sqrt(5*N*S))";
  return 0;
}

uint64_t ResolveMemoryBudget(uint64_t requested_bytes) {
  uint64_t physical = PhysicalMemoryBytes();
  if (requested_bytes == 0) {
    return physical > 0 ? physical / 2 : 256ull << 20;
  }
  if (physical > 0 && requested_bytes > physical) {
    XS_LOG(Warning) << "memory budget " << requested_bytes
                    << " exceeds physical memory " << physical << "; clamping";
    return physical;
  }
  return requested_bytes;
}

uint64_t ResolvePinBudget(uint64_t memory_budget_bytes) {
  if (memory_budget_bytes == 0) {
    return 0;
  }
  return ResolveMemoryBudget(
      memory_budget_bytes == HybridStoreOptions::kAutoMemoryBudget ? 0 : memory_budget_bytes);
}

HybridStoreOptions DeviceOptionsFromFlags(const Options& flags,
                                          const HybridStoreOptions& defaults) {
  HybridStoreOptions o = defaults;
  o.streaming_budget_bytes = flags.GetUint("budget-mb", defaults.streaming_budget_bytes >> 20)
                             << 20;
  o.io_unit_bytes = static_cast<size_t>(flags.GetUint("io-unit-kb", defaults.io_unit_bytes >> 10))
                    << 10;
  o.async_spill = !flags.GetBool("sync-spill", !defaults.async_spill);
  o.spill_queue_depth = static_cast<int>(flags.GetInt("spill-depth", defaults.spill_queue_depth));
  o.stage_bytes = static_cast<size_t>(flags.GetUint("stage-bytes", defaults.stage_bytes));
  o.compress_updates = flags.GetBool("compress-updates", defaults.compress_updates);
  o.memory_budget_bytes = flags.GetUint("memory-budget", defaults.memory_budget_bytes);
  o.replan_between_iterations = !flags.GetBool("no-replan", !defaults.replan_between_iterations);
  o.residency_hysteresis = static_cast<uint32_t>(
      flags.GetUint("residency-hysteresis", defaults.residency_hysteresis));
  o.pin_edges = flags.GetBool("pin-edges", defaults.pin_edges);
  return o;
}

std::string DeviceFlagsUsage(const HybridStoreOptions& d) {
  std::string stage = d.stage_bytes == DefaultShuffleStageBytes()
                          ? "auto, half the per-core cache"
                          : std::to_string(d.stage_bytes);
  std::string pin = d.memory_budget_bytes == HybridStoreOptions::kAutoMemoryBudget
                        ? "half of physical memory"
                        : std::to_string(d.memory_budget_bytes);
  return "    --budget-mb=N           streaming budget M (§3.4) of each out-of-core\n"
         "                            engine, hybrid engine or device job, MB\n"
         "                            (default " + std::to_string(d.streaming_budget_bytes >> 20) +
         ")\n"
         "    --io-unit-kb=N          I/O unit S (default " + std::to_string(d.io_unit_bytes >> 10) +
         ")\n"
         "    --sync-spill            serialize update-spill writes (default: async,\n"
         "                            double-buffered on the device I/O thread)\n"
         "    --spill-depth=N         spill write-pipeline slots (default " +
         std::to_string(d.spill_queue_depth) + "; raise for\n"
         "                            RAID update devices)\n"
         "    --stage-bytes=N         per-thread staging bytes for the cache-aware\n"
         "                            single-stage shuffle; 0 = fused counting\n"
         "                            shuffle (default: " + stage + ")\n"
         "    --compress-updates      delta+varint compress spilled update streams\n"
         "                            (bit-identical results, fewer update-file bytes;\n"
         "                            ratio in the store.codec.* metrics)\n"
         "  --memory-budget=BYTES     hybrid: byte budget for pinning hot partitions\n"
         "                            in RAM (default: " + pin + "); 0 pins nothing,\n"
         "                            and requests above physical memory are clamped\n"
         "                            with a warning. Under the job scheduler it also\n"
         "                            gates admission and is split across the active\n"
         "                            hybrid jobs\n"
         "    --no-replan             hybrid: freeze the pin set chosen at setup\n"
         "                            instead of re-planning between iterations\n"
         "    --residency-hysteresis=N  hybrid: iterations a partition must win/lose\n"
         "                            its pin before the incremental re-plan migrates\n"
         "                            it (default " + std::to_string(d.residency_hysteresis) +
         "; 0 = stop-the-world full re-plan\n"
         "                            between iterations)\n"
         "    --pin-edges             hybrid: cache pinned partitions' edge streams in\n"
         "                            RAM after their first scan, so fully resident\n"
         "                            partitions never touch the edge device (edge\n"
         "                            bytes are priced into --memory-budget)\n";
}

uint32_t ChooseShuffleFanout(uint32_t num_partitions, size_t cache_bytes,
                             size_t cacheline_bytes) {
  XS_CHECK_GT(cacheline_bytes, 0u);
  uint64_t lines = std::max<uint64_t>(2, cache_bytes / cacheline_bytes);
  uint32_t fanout = std::bit_floor(static_cast<uint32_t>(std::min<uint64_t>(lines, 1u << 30)));
  // Fanout above the partition count buys nothing.
  return std::min(fanout, std::max(2u, RoundUpPow2(num_partitions)));
}

}  // namespace xstream
