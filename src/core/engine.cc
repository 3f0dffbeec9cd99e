#include "src/core/engine.h"

#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::core
{

std::vector<MultiMapResult>
MappingEngine::mapBatch(std::span<const std::string_view> reads,
                        PipelineStats *stats) const
{
    std::vector<MultiMapResult> results(reads.size());
    MapWorkspace workspace; // warm across the whole batch
    mapMany(reads, results, stats, workspace);
    return results;
}

MultiChromosomeEngine::MultiChromosomeEngine(std::vector<Entry> entries,
                                             std::string name)
    : entries_(std::move(entries)), name_(std::move(name))
{
    SEGRAM_CHECK(!entries_.empty(),
                 "MultiChromosomeEngine needs at least one chromosome");
    for (const auto &entry : entries_)
        SEGRAM_CHECK(entry.engine != nullptr,
                     "null engine for chromosome " + entry.chromosome);
}

MultiMapResult
MultiChromosomeEngine::mapOne(std::string_view read, PipelineStats *stats,
                              MapWorkspace &workspace) const
{
    MultiMapResult best;
    PipelineStats local;
    for (const auto &entry : entries_) {
        const MultiMapResult result =
            entry.engine->mapOne(read, &local, workspace);
        if (result.mapped &&
            (!best.mapped || result.editDistance < best.editDistance)) {
            best = result;
            best.chromosome = entry.chromosome;
        }
    }
    if (stats != nullptr) {
        // Per-chromosome passes were one logical read; fold the
        // read-level counters while keeping the work counters summed.
        local.readsTotal = 1;
        local.readsMapped = best.mapped ? 1 : 0;
        *stats += local;
    }
    return best;
}

RcRetryEngine::RcRetryEngine(std::unique_ptr<MappingEngine> inner)
    : inner_(std::move(inner))
{
    SEGRAM_CHECK(inner_ != nullptr, "RcRetryEngine needs an engine");
}

MultiMapResult
RcRetryEngine::mapOne(std::string_view read, PipelineStats *stats,
                      MapWorkspace &workspace) const
{
    PipelineStats local;
    MultiMapResult forward = inner_->mapOne(read, &local, workspace);
    MultiMapResult reverse;
    // A perfect forward alignment cannot be beaten (ties keep the
    // forward strand), so skip the RC pass for it.
    if (!forward.mapped || forward.editDistance > 0) {
        reverseComplement(read, workspace.rcRetryBuffer);
        reverse =
            inner_->mapOne(workspace.rcRetryBuffer, &local, workspace);
        reverse.reverseComplemented = true;
    }
    const bool take_reverse =
        reverse.mapped &&
        (!forward.mapped ||
         reverse.editDistance < forward.editDistance);
    MultiMapResult &best = take_reverse ? reverse : forward;
    if (stats != nullptr) {
        // Both strand passes were one logical read.
        local.readsTotal = 1;
        local.readsMapped = best.mapped ? 1 : 0;
        *stats += local;
    }
    return best;
}

} // namespace segram::core
