#include "src/core/sharded_mapper.h"

#include <algorithm>

#include "src/util/check.h"

namespace segram::core
{

ShardedBatchMapper::ShardedBatchMapper(
    const PreprocessedReference &reference, const SegramConfig &config,
    const ShardedBatchConfig &batch)
    : config_(batch),
      pool_(batch.threads > 0 ? batch.threads
                              : util::ThreadPool::defaultThreads()),
      workspaces_(static_cast<size_t>(pool_.size()))
{
    SEGRAM_CHECK(batch.chunkSize >= 1, "chunkSize must be >= 1");
    SEGRAM_CHECK(reference.numChromosomes() >= 1,
                 "reference has no chromosomes");
    owned_.reserve(reference.numChromosomes());
    for (size_t c = 0; c < reference.numChromosomes(); ++c)
        owned_.emplace_back(reference, c, config);
    for (const SegramMapper &mapper : owned_)
        shards_.push_back(&mapper);
    if (batch.memBudgetBytes > 0) {
        residency_ = std::make_unique<ShardResidency>(
            reference, batch.memBudgetBytes);
    }
}

ShardedBatchMapper::ShardedBatchMapper(const MappingEngine &engine,
                                       const ShardedBatchConfig &batch)
    : shards_{&engine}, config_(batch),
      pool_(batch.threads > 0 ? batch.threads
                              : util::ThreadPool::defaultThreads()),
      workspaces_(static_cast<size_t>(pool_.size()))
{
    SEGRAM_CHECK(batch.chunkSize >= 1, "chunkSize must be >= 1");
    SEGRAM_CHECK(batch.memBudgetBytes == 0,
                 "a memory budget needs a reference to evict shards of");
}

std::string_view
ShardedBatchMapper::engineName() const
{
    return owned_.empty() ? shards_.front()->engineName()
                          : "segram-sharded";
}

std::vector<MultiMapResult>
ShardedBatchMapper::mapBatch(std::span<const std::string_view> reads,
                             PipelineStats *stats) const
{
    std::vector<MultiMapResult> results(reads.size());
    if (reads.empty())
        return results;

    const size_t num_shards = shards_.size();
    const size_t num_chunks =
        (reads.size() + config_.chunkSize - 1) / config_.chunkSize;

    // Per-(shard, read) partial results; filled by the grid, merged
    // below. Memory is shards x batch results — the reason the CLI
    // streams bounded batches rather than whole files. A single shard
    // needs no merge and maps straight into the output.
    std::vector<std::vector<MultiMapResult>> partial(
        num_shards == 1 ? 0 : num_shards);
    for (auto &row : partial)
        row.resize(reads.size());

    std::vector<PipelineStats> worker_stats(
        static_cast<size_t>(pool_.size()));

    // Shard-major item order: items of one shard are contiguous, so
    // the initial per-worker partition of parallelSteal starts the
    // workers on different shards and each walks "its" shard's tables
    // while they are hot. Stealing rebalances when shard sizes skew.
    pool_.parallelSteal(
        num_shards * num_chunks, [&](size_t item, int worker) {
            const size_t shard = item / num_chunks;
            const size_t chunk = item % num_chunks;
            const size_t begin = chunk * config_.chunkSize;
            const size_t end =
                std::min(reads.size(), begin + config_.chunkSize);
            PipelineStats *local =
                stats != nullptr
                    ? &worker_stats[static_cast<size_t>(worker)]
                    : nullptr;
            MapWorkspace &workspace =
                workspaces_[static_cast<size_t>(worker)];
            const ShardResidency::Lease lease =
                residency_ != nullptr ? residency_->acquire(shard)
                                      : ShardResidency::Lease();
            // One mapMany per (chunk, shard) item: SegramMapper
            // lane-batches across the chunk. The grid partition is
            // fixed by chunkSize, so batch groupings (and the
            // occupancy counters) are thread-count-invariant.
            std::span<MultiMapResult> row =
                partial.empty() ? results : partial[shard];
            shards_[shard]->mapMany(reads.subspan(begin, end - begin),
                                    row.subspan(begin, end - begin),
                                    local, workspace);
        });

    // MultiChromosomeEngine's rule, applied per read over ascending
    // shard order: lowest edit distance wins, ties go to the earlier
    // shard; the winner's result (named by its shard) moves over
    // whole. Order-independent inputs + fixed merge order =
    // deterministic output.
    uint64_t mapped = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        MultiMapResult &best = results[i];
        for (auto &row : partial) {
            MultiMapResult &result = row[i];
            if (result.mapped &&
                (!best.mapped ||
                 result.editDistance < best.editDistance))
                best = std::move(result);
        }
        if (best.mapped)
            ++mapped;
    }

    if (stats != nullptr) {
        // Work counters are commutative sums over the grid — identical
        // to what a per-read loop accumulates. The read-level
        // counters count logical reads, not (read x shard) passes.
        // Thread-safety: each worker_stats slot was written by exactly
        // one pool worker, and parallelSteal's completion handshake
        // (pool mutex) happens-before this merge — no atomics needed.
        PipelineStats total;
        for (const auto &partial_stats : worker_stats)
            total += partial_stats;
        total.readsTotal = reads.size();
        total.readsMapped = mapped;
        *stats += total;
    }
    return results;
}

std::vector<MultiMapResult>
ShardedBatchMapper::mapBatch(std::span<const std::string> reads,
                             PipelineStats *stats) const
{
    std::vector<std::string_view> views(reads.begin(), reads.end());
    return mapBatch(std::span<const std::string_view>(views), stats);
}

ShardResidency::Stats
ShardedBatchMapper::residencyStats() const
{
    return residency_ != nullptr ? residency_->stats()
                                 : ShardResidency::Stats{};
}

} // namespace segram::core
