/**
 * @file
 * The mapping-engine abstraction.
 *
 * SeGraM's throughput story is read-level parallelism: the paper
 * provisions one MinSeed+BitAlign module pair per HBM2E channel, all
 * pairs sharing only the read-only graph and index, and scales
 * linearly across channels. `MappingEngine` is the software contract
 * that makes the same story expressible here: any end-to-end mapper
 * (SegramMapper, the sequence-to-sequence baselines and the wrappers
 * below) exposes a uniform per-read `mapOne` and grouped `mapMany`,
 * and `ShardedBatchMapper` (src/core/sharded_mapper.h) drives any
 * engine across a thread pool — each worker standing in for one
 * channel's module pair — with results that are bit-identical
 * regardless of thread count.
 *
 * This header owns the pipeline result/statistics types (`MapResult`,
 * `MultiMapResult`, `PipelineStats`); src/core/segram.h layers the
 * concrete SeGraM pipeline on top.
 */

#ifndef SEGRAM_SRC_CORE_ENGINE_H
#define SEGRAM_SRC_CORE_ENGINE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/map_result.h"
#include "src/core/workspace.h"
#include "src/seed/minseed.h"
#include "src/util/cigar.h"

namespace segram::core
{

// MapResult, MultiMapResult, StageTimings and PipelineStats live in
// src/core/map_result.h (re-exported via the include above).

/**
 * Uniform interface over every end-to-end mapper in the repo.
 *
 * Thread-safety contract (the software equivalent of the paper's
 * shared read-only graph+index across channel modules): `mapOne` must
 * be safe to call concurrently from multiple threads on one engine
 * instance, and per-call state must be confined to the stack and the
 * caller-supplied stats accumulator.
 */
class MappingEngine
{
  public:
    virtual ~MappingEngine() = default;

    /**
     * Maps one read end to end out of @p workspace. Engines whose hot
     * path supports buffer reuse (SegramMapper and its wrappers)
     * compute out of it and stay allocation-free in steady state;
     * the others ignore it. @p workspace must not be shared between
     * concurrent calls.
     *
     * @param read       Query read (ACGT, non-empty).
     * @param[out] stats Optional counter accumulator; when null, no
     *                   counters are kept.
     */
    virtual MultiMapResult mapOne(std::string_view read,
                                  PipelineStats *stats,
                                  MapWorkspace &workspace) const = 0;

    /**
     * Convenience form: maps out of a fresh workspace. Overrides of
     * the workspace form hide this overload, so call it through a
     * MappingEngine reference.
     */
    MultiMapResult
    mapOne(std::string_view read, PipelineStats *stats = nullptr) const
    {
        MapWorkspace workspace;
        return mapOne(read, stats, workspace);
    }

    /**
     * Maps a group of reads out of one workspace, results positional
     * (results[i] belongs to reads[i]; the spans must be equal-sized).
     * This is the granularity at which cross-read batching is possible:
     * engines whose hot path can fill SIMD lanes across reads
     * (SegramMapper's lane-batched BitAlign scheduler) override it; the
     * default maps each read individually via mapOne. Results are
     * bit-identical to the per-read path either way — batching is an
     * execution strategy, not a semantic.
     */
    virtual void
    mapMany(std::span<const std::string_view> reads,
            std::span<MultiMapResult> results, PipelineStats *stats,
            MapWorkspace &workspace) const
    {
        for (size_t i = 0; i < reads.size(); ++i)
            results[i] = mapOne(reads[i], stats, workspace);
    }

    /**
     * Maps a batch of reads sequentially, in order. Results are
     * positional: result[i] belongs to reads[i]. ShardedBatchMapper is
     * the multi-threaded driver over this same contract. Implemented as
     * one mapMany over the whole batch, so engines with a cross-read
     * batched path use it here too.
     */
    virtual std::vector<MultiMapResult>
    mapBatch(std::span<const std::string_view> reads,
             PipelineStats *stats = nullptr) const;

    /** Short stable identifier ("segram", "vg-like", ...). */
    virtual std::string_view engineName() const = 0;
};

/**
 * Lifts any single-graph MappingEngine to a multi-chromosome
 * reference: one engine per chromosome, each read mapped against all
 * of them, best alignment wins (lowest edit distance among mapped;
 * ties go to the earlier chromosome, so results are deterministic).
 *
 * It lets the CPU baselines (GraphAligner- and vg-like) ride the same
 * CLI and accuracy harness on the same multi-chromosome references,
 * and over per-chromosome SegramMappers it is the per-read oracle the
 * tests hold ShardedBatchMapper's (read-chunk x shard) grid against.
 */
class MultiChromosomeEngine : public MappingEngine
{
  public:
    /** One chromosome's engine (owned). */
    struct Entry
    {
        std::string chromosome;
        std::unique_ptr<MappingEngine> engine;
    };

    /**
     * @param entries Per-chromosome engines, in reference order.
     * @param name    Stable engineName() for reports.
     * @throws InputError when empty or any engine is null.
     */
    MultiChromosomeEngine(std::vector<Entry> entries, std::string name);

    /** Lends @p workspace to every per-chromosome engine in turn. */
    MultiMapResult mapOne(std::string_view read, PipelineStats *stats,
                          MapWorkspace &workspace) const override;
    std::string_view engineName() const override { return name_; }

    size_t numChromosomes() const { return entries_.size(); }

  private:
    std::vector<Entry> entries_;
    std::string name_;
};

/**
 * Adds a reverse-complement retry to any MappingEngine: each read is
 * mapped as-is and as its reverse complement, and the better
 * alignment wins (lower edit distance; ties keep the forward strand,
 * so results are deterministic). The winning RC result carries
 * `reverseComplemented = true` with coordinates already on the
 * forward strand, exactly like SegramConfig::tryReverseComplement —
 * this wrapper is how the CPU baselines get the same both-strands
 * behaviour real GraphAligner/vg have, keeping accuracy comparisons
 * honest on two-strand read sets.
 */
class RcRetryEngine : public MappingEngine
{
  public:
    /** @throws InputError when @p inner is null. */
    explicit RcRetryEngine(std::unique_ptr<MappingEngine> inner);

    /** Uses the workspace's RC buffer and lends the rest to @p inner. */
    MultiMapResult mapOne(std::string_view read, PipelineStats *stats,
                          MapWorkspace &workspace) const override;
    std::string_view engineName() const override
    {
        return inner_->engineName();
    }

  private:
    std::unique_ptr<MappingEngine> inner_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_ENGINE_H
