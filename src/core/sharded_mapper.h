/**
 * @file
 * ShardedBatchMapper: the one batch driver — a (read-chunk x shard)
 * grid over MappingEngine shards.
 *
 * A reference is mapped shard by shard: one SegramMapper per
 * chromosome, the software image of the paper's one graph per
 * chromosome spread over HBM channels. The driver schedules the full
 * (read-chunk x shard) grid, shard-major, through the thread pool's
 * work-stealing mode: workers start on different shards (locality:
 * one shard's tables stay hot in cache while its items drain), skew
 * is absorbed by stealing, and a memory budget can keep only the
 * shards in flight resident (ShardResidency). Any other engine (the
 * CPU baselines, a single SegramMapper) maps as one shard, so the
 * same grid degenerates to the chunked read-parallel driver.
 *
 * Every item goes through the engine's virtual mapMany, so the
 * lane-batched SegramMapper scheduler runs once per (chunk, shard).
 * Shards name their own results (SegramMapper writes its chromosome
 * into mapped results), and the merge — lowest edit distance wins,
 * ties to the earlier shard — moves the winner over a deterministic
 * shard order after the grid completes; a single shard's results pass
 * through untouched. Results and counters are bit-identical for every
 * thread count, and to a per-read MultiChromosomeEngine loop over
 * per-chromosome SegramMappers (the oracle the tests hold the grid
 * against).
 */

#ifndef SEGRAM_SRC_CORE_SHARDED_MAPPER_H
#define SEGRAM_SRC_CORE_SHARDED_MAPPER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/workspace.h"
#include "src/util/thread_pool.h"

namespace segram::core
{

/** ShardedBatchMapper knobs. */
struct ShardedBatchConfig
{
    /**
     * Worker threads; <= 0 picks the host's hardware concurrency.
     * One worker models one HBM channel's MinSeed+BitAlign pair.
     */
    int threads = 1;

    /**
     * Reads per work item (one item = one chunk against one shard).
     * Small enough to balance skewed per-read cost (a repeat-heavy
     * read can be 100x the median), large enough to amortize the
     * claim and fill the lane-batched kernels.
     */
    size_t chunkSize = 8;

    /**
     * Resident-shard budget in bytes; 0 maps without residency
     * control. Only effective for pack-backed references (in-memory
     * tables cannot be dropped); pair with PackLoadOptions::coldLoad
     * so the mapping starts cold.
     */
    uint64_t memBudgetBytes = 0;
};

/**
 * Work-stealing (read-chunk x shard) batch driver. One instance owns
 * one thread pool and per-worker workspaces; mapBatch calls must be
 * serialized by the caller, and the reference or engine must outlive
 * the mapper.
 */
class ShardedBatchMapper
{
  public:
    /** One SegramMapper shard per chromosome of @p reference. */
    ShardedBatchMapper(const PreprocessedReference &reference,
                       const SegramConfig &config = {},
                       const ShardedBatchConfig &batch = {});

    /**
     * Drives @p engine as a single shard. @p engine must honour the
     * MappingEngine thread-safety contract.
     * @throws InputError when @p batch sets a memory budget (there is
     *         no pack to evict from).
     */
    explicit ShardedBatchMapper(const MappingEngine &engine,
                                const ShardedBatchConfig &batch = {});

    /**
     * Maps reads[i] -> result[i] across the (chunk x shard) grid.
     * Results and @p stats totals are bit-identical for every thread
     * count.
     */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string_view> reads,
             PipelineStats *stats = nullptr) const;

    /** Convenience overload for owned-string batches. */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string> reads,
             PipelineStats *stats = nullptr) const;

    int threads() const { return pool_.size(); }
    size_t numShards() const { return shards_.size(); }
    /** "segram-sharded" over a reference, else the engine's name. */
    std::string_view engineName() const;

    /** All-zeros when no memory budget is active. */
    ShardResidency::Stats residencyStats() const;

  private:
    /** The reference constructor's per-chromosome mappers. */
    std::vector<SegramMapper> owned_;
    /** Grid shards, in merge (tie-break) order. */
    std::vector<const MappingEngine *> shards_;
    ShardedBatchConfig config_;
    /** Internally synchronized (ThreadPool's job state carries the
     *  clang thread-safety annotations); mapBatch is logically const
     *  but calls must be serialized by the caller — the pool runs one
     *  job at a time and the workspaces below are reused across calls. */
    mutable util::ThreadPool pool_;
    /** One private workspace per pool worker — the software image of
     *  each HBM channel module's scratchpad. Not guarded by a mutex:
     *  workspaces_[w] is touched only by pool worker w, and the pool's
     *  job handshake orders those accesses against the caller between
     *  batches. */
    mutable std::vector<MapWorkspace> workspaces_;
    /** LRU residency control; null when memBudgetBytes == 0. */
    mutable std::unique_ptr<ShardResidency> residency_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SHARDED_MAPPER_H
