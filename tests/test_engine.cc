/**
 * @file
 * Tests for the batched mapping engine layer: the ThreadPool
 * primitive, the MappingEngine contract across every backend, and the
 * ShardedBatchMapper determinism guarantee (bit-identical results and
 * correctly merged PipelineStats for every thread count), both for a
 * single engine and across chromosome shards.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/baseline/mappers.h"
#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/mapper_test_util.h"

namespace segram::core
{
namespace
{

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    constexpr size_t kItems = 1'000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallelSteal(kItems, [&](size_t item, int) { ++hits[item]; });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobsAndSizes)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        const size_t items = 10 + static_cast<size_t>(round) * 13;
        pool.parallelSteal(items, [&](size_t item, int) { sum += item; });
        EXPECT_EQ(sum.load(), items * (items - 1) / 2);
    }
    // Empty job is a no-op.
    pool.parallelSteal(0, [](size_t, int) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerStillRuns)
{
    util::ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelSteal(5, [&](size_t item, int worker) {
        EXPECT_EQ(worker, 0);
        order.push_back(static_cast<int>(item));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WorkerIdsAreInRange)
{
    util::ThreadPool pool(4);
    std::mutex mutex;
    std::set<int> seen;
    pool.parallelSteal(200, [&](size_t, int worker) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
    });
    EXPECT_FALSE(seen.empty());
    EXPECT_GE(*seen.begin(), 0);
    EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPool, PropagatesExceptionsAndSurvives)
{
    util::ThreadPool pool(2);
    EXPECT_THROW(pool.parallelSteal(100,
                                    [&](size_t item, int) {
                                        if (item == 42)
                                            throw InputError("boom");
                                    }),
                 InputError);
    // The pool is still usable after a failed job.
    std::atomic<int> count{0};
    pool.parallelSteal(10, [&](size_t, int) { ++count; });
    EXPECT_EQ(count.load(), 10);
}

// --------------------------------------------------- engine test fixture

sim::DatasetConfig
smallConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 40'000;
    config.genome.repeatFraction = 0.0;
    config.index.sketch = {13, 8};
    config.index.bucketBits = 13;
    config.seed = seed;
    return config;
}

/** A mixed workload: mappable, reverse-complemented and junk reads. */
std::vector<std::string>
makeReads(const sim::Dataset &dataset, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> reads;
    for (int i = 0; i < count; ++i) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (i % 3 == 1)
            read = reverseComplement(read);
        if (i % 7 == 6) { // unmappable noise
            read.clear();
            for (int j = 0; j < 200; ++j)
                read.push_back(rng.nextBase());
        }
        reads.push_back(std::move(read));
    }
    return reads;
}

std::vector<std::string_view>
viewsOf(const std::vector<std::string> &reads)
{
    return {reads.begin(), reads.end()};
}

using test_util::expectSameCounters;
using test_util::expectSameResults;

// ---------------------------------------------------------- MapWorkspace

TEST(MapWorkspace, WarmWorkspaceMatchesFreshCalls)
{
    // One workspace reused across a mixed workload (forward, RC and
    // junk reads) must produce exactly what per-call workspaces
    // produce — counters included. This is the reuse contract every
    // ShardedBatchMapper worker relies on.
    const auto dataset = sim::makeDataset(smallConfig(301));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 40, 302);

    MapWorkspace workspace;
    PipelineStats fresh_stats;
    PipelineStats warm_stats;
    std::vector<MultiMapResult> fresh;
    std::vector<MultiMapResult> warm;
    for (const auto &read : reads) {
        MultiMapResult a;
        static_cast<MapResult &>(a) = mapper.mapRead(read, &fresh_stats);
        fresh.push_back(std::move(a));
        MultiMapResult b;
        static_cast<MapResult &>(b) =
            mapper.mapRead(read, &warm_stats, workspace);
        warm.push_back(std::move(b));
    }
    expectSameResults(fresh, warm);
    expectSameCounters(fresh_stats, warm_stats);
}

TEST(MapWorkspace, ChainFilterPathReusesBuffers)
{
    // The opt-in chain-filter path flows through workspace.filtered;
    // warm reuse must stay bit-identical there too.
    const auto dataset = sim::makeDataset(smallConfig(303));
    SegramConfig config;
    config.enableChainFilter = true;
    config.maxChains = 3;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 25, 304);

    MapWorkspace workspace;
    std::vector<MultiMapResult> fresh;
    std::vector<MultiMapResult> warm;
    for (const auto &read : reads) {
        MultiMapResult a;
        static_cast<MapResult &>(a) = mapper.mapRead(read, nullptr);
        fresh.push_back(std::move(a));
        MultiMapResult b;
        static_cast<MapResult &>(b) =
            mapper.mapRead(read, nullptr, workspace);
        warm.push_back(std::move(b));
    }
    expectSameResults(fresh, warm);
}

TEST(MapWorkspace, StageTimingsAccumulateWhenStatsRequested)
{
    const auto dataset = sim::makeDataset(smallConfig(305));
    const SegramMapper mapper(dataset.graph, dataset.index, {});
    const auto reads = makeReads(dataset, 10, 306);
    PipelineStats stats;
    MapWorkspace workspace;
    for (const auto &read : reads)
        mapper.mapRead(read, &stats, workspace);
    // Reads were seeded, so the seeding stage must have taken >= 0 time
    // and regions were aligned, so alignment time must be positive.
    EXPECT_GE(stats.timings.seedingSec, 0.0);
    EXPECT_GT(stats.timings.alignSec, 0.0);
    EXPECT_GT(stats.timings.linearizeSec, 0.0);
}

// ---------------------------------------------------- ShardedBatchMapper

TEST(ShardedBatchMapper, FourThreadsMatchOneThreadExactly)
{
    const auto dataset = sim::makeDataset(smallConfig(101));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 30, 102);
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(mapper, {.threads = 1, .chunkSize = 4});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);

    PipelineStats stats4;
    const ShardedBatchMapper four(mapper,
                                  {.threads = 4, .chunkSize = 3});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameCounters(stats1, stats4);
    EXPECT_EQ(stats4.readsTotal, reads.size());
    EXPECT_EQ(four.numShards(), 1u);
    EXPECT_EQ(four.engineName(), "segram");

    // Both match the engine's own sequential mapBatch and a bare
    // mapRead loop.
    PipelineStats stats_seq;
    const auto sequential = mapper.mapBatch(
        std::span<const std::string_view>(views), &stats_seq);
    expectSameResults(results4, sequential);
    expectSameCounters(stats4, stats_seq);

    PipelineStats stats_loop;
    for (size_t i = 0; i < reads.size(); ++i) {
        const auto result = mapper.mapRead(reads[i], &stats_loop);
        EXPECT_EQ(result.mapped, results4[i].mapped);
        EXPECT_EQ(result.linearStart, results4[i].linearStart);
    }
    expectSameCounters(stats4, stats_loop);
}

TEST(ShardedBatchMapper, OwnedStringOverloadAndEmptyBatch)
{
    const auto dataset = sim::makeDataset(smallConfig(103));
    const SegramMapper mapper(dataset.graph, dataset.index);
    const ShardedBatchMapper batch(mapper, {.threads = 2});
    EXPECT_EQ(batch.threads(), 2);

    const auto reads = makeReads(dataset, 8, 104);
    const auto via_strings =
        batch.mapBatch(std::span<const std::string>(reads));
    const auto views = viewsOf(reads);
    const auto via_views =
        batch.mapBatch(std::span<const std::string_view>(views));
    expectSameResults(via_strings, via_views);

    const auto empty =
        batch.mapBatch(std::span<const std::string>{});
    EXPECT_TRUE(empty.empty());
}

TEST(ShardedBatchMapper, PropagatesMapperErrors)
{
    const auto dataset = sim::makeDataset(smallConfig(105));
    const SegramMapper mapper(dataset.graph, dataset.index);
    const std::vector<std::string> reads = {"ACGTACGTACGT", ""};
    const ShardedBatchMapper batch(mapper, {.threads = 2});
    EXPECT_THROW(batch.mapBatch(std::span<const std::string>(reads)),
                 InputError);
}

TEST(ShardedBatchMapper, RejectsBadConfig)
{
    const auto dataset = sim::makeDataset(smallConfig(105));
    const SegramMapper mapper(dataset.graph, dataset.index);
    EXPECT_THROW(ShardedBatchMapper(mapper, {.chunkSize = 0}),
                 InputError);
    // A memory budget evicts pack shards; a bare engine has none.
    EXPECT_THROW(ShardedBatchMapper(mapper, {.memBudgetBytes = 1}),
                 InputError);

    std::vector<PreprocessedChromosome> chromosomes;
    chromosomes.push_back({"chr1", dataset.graph, dataset.index});
    const PreprocessedReference reference(std::move(chromosomes));
    EXPECT_THROW(ShardedBatchMapper(reference, {}, {.chunkSize = 0}),
                 InputError);
}

TEST(ShardedBatchMapper, StatsFoldReadExactAcrossShards)
{
    const auto chr1 = sim::makeDataset(smallConfig(106));
    const auto chr2 = sim::makeDataset(smallConfig(107));
    std::vector<PreprocessedChromosome> chromosomes;
    chromosomes.push_back({"chr1", chr1.graph, chr1.index});
    chromosomes.push_back({"chr2", chr2.graph, chr2.index});
    const PreprocessedReference reference(std::move(chromosomes));
    SegramConfig config;
    config.earlyExitFraction = 1.0;

    // Half the reads from each chromosome's donor.
    std::vector<std::string> reads;
    Rng rng(108);
    for (int i = 0; i < 10; ++i) {
        const auto &donor = (i % 2 == 0 ? chr1 : chr2).donor;
        const uint64_t start = rng.nextBelow(donor.seq().size() - 400);
        reads.push_back(donor.seq().substr(start, 300));
    }
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(reference, config, {.threads = 1});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);
    PipelineStats stats4;
    const ShardedBatchMapper four(reference, config,
                                  {.threads = 4, .chunkSize = 2});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameCounters(stats1, stats4);
    EXPECT_EQ(four.numShards(), 2u);
    EXPECT_EQ(four.engineName(), "segram-sharded");
    // The per-shard fold stays read-exact: one readsTotal per logical
    // read, even though each read ran on every chromosome.
    EXPECT_EQ(stats4.readsTotal, reads.size());
    EXPECT_EQ(stats4.readsMapped, reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_TRUE(results4[i].mapped) << "read " << i;
        EXPECT_EQ(results4[i].chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
    }
}

TEST(ShardedBatchMapper, EqualHitsGoToTheEarlierShardLikeTheOracle)
{
    // Two copies of one chromosome: every read ties across the shards,
    // and the merge must keep the first, exactly as the per-read
    // oracle does.
    const auto dataset = sim::makeDataset(smallConfig(113));
    std::vector<PreprocessedChromosome> chromosomes;
    chromosomes.push_back({"first", dataset.graph, dataset.index});
    chromosomes.push_back({"second", dataset.graph, dataset.index});
    const PreprocessedReference reference(std::move(chromosomes));
    SegramConfig config;
    config.tryReverseComplement = true;
    const auto reads = makeReads(dataset, 12, 114);
    const auto views = viewsOf(reads);

    PipelineStats expected_stats;
    const auto expected = test_util::mapEachRead(
        *test_util::perReadOracle(reference, config),
        std::span<const std::string_view>(views), &expected_stats);
    PipelineStats stats;
    const ShardedBatchMapper mapper(reference, config,
                                    {.threads = 2, .chunkSize = 5});
    const auto results = mapper.mapBatch(
        std::span<const std::string_view>(views), &stats);
    expectSameResults(results, expected);
    expectSameCounters(stats, expected_stats);
    for (const auto &result : results) {
        if (result.mapped) {
            EXPECT_EQ(result.chromosome, "first");
        }
    }
}

TEST(MultiChromosomeEngine, LiftsBaselinesToMultiChromosome)
{
    // The generic per-chromosome wrapper must route each read to the
    // chromosome it came from (best edit distance wins) and fold the
    // read-level stats to one read per logical read.
    const auto chr1 = sim::makeDataset(smallConfig(110));
    const auto chr2 = sim::makeDataset(smallConfig(111));
    std::vector<MultiChromosomeEngine::Entry> entries;
    entries.push_back(
        {"chr1", std::make_unique<baseline::GraphAlignerLike>(
                     chr1.graph, chr1.index)});
    entries.push_back(
        {"chr2", std::make_unique<baseline::GraphAlignerLike>(
                     chr2.graph, chr2.index)});
    const MultiChromosomeEngine multi(std::move(entries),
                                      "graphaligner-like");
    const MappingEngine &engine = multi;
    EXPECT_EQ(engine.engineName(), "graphaligner-like");
    EXPECT_EQ(multi.numChromosomes(), 2u);

    Rng rng(112);
    PipelineStats stats;
    int mapped = 0;
    for (int i = 0; i < 10; ++i) {
        const auto &donor = (i % 2 == 0 ? chr1 : chr2).donor;
        const uint64_t start = rng.nextBelow(donor.seq().size() - 400);
        const auto result =
            engine.mapOne(donor.seq().substr(start, 300), &stats);
        if (!result.mapped)
            continue;
        ++mapped;
        EXPECT_EQ(result.chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
    }
    EXPECT_GE(mapped, 8); // error-free reads, near-perfect mapping
    EXPECT_EQ(stats.readsTotal, 10u); // one per logical read
    EXPECT_EQ(stats.readsMapped, static_cast<uint64_t>(mapped));
}

TEST(MultiChromosomeEngine, RejectsEmptyAndNullEntries)
{
    EXPECT_THROW(MultiChromosomeEngine({}, "x"), InputError);
    std::vector<MultiChromosomeEngine::Entry> entries;
    entries.push_back({"chr1", nullptr});
    EXPECT_THROW(MultiChromosomeEngine(std::move(entries), "x"),
                 InputError);
}

// ------------------------------------------- MappingEngine polymorphism

TEST(MappingEngine, AllBackendsDriveThroughTheInterface)
{
    const auto dataset = sim::makeDataset(smallConfig(109));
    const SegramMapper segram_mapper(dataset.graph, dataset.index);
    const baseline::GraphAlignerLike ga_mapper(dataset.graph,
                                               dataset.index);
    const baseline::VgLike vg_mapper(dataset.graph, dataset.index);

    const std::string read = dataset.donor.seq().substr(2'000, 300);
    const std::vector<const MappingEngine *> engines = {
        &segram_mapper, &ga_mapper, &vg_mapper};
    for (const MappingEngine *engine : engines) {
        PipelineStats stats;
        const auto result = engine->mapOne(read, &stats);
        EXPECT_TRUE(result.mapped) << engine->engineName();
        EXPECT_EQ(stats.readsTotal, 1u) << engine->engineName();
        EXPECT_EQ(stats.readsMapped, 1u) << engine->engineName();
        EXPECT_FALSE(engine->engineName().empty());

        // Every backend also batches deterministically.
        const std::vector<std::string> reads = {read, read, read};
        const ShardedBatchMapper batch(*engine,
                                       {.threads = 3, .chunkSize = 1});
        EXPECT_EQ(batch.engineName(), engine->engineName());
        const auto results =
            batch.mapBatch(std::span<const std::string>(reads));
        ASSERT_EQ(results.size(), 3u);
        for (const auto &batched : results) {
            EXPECT_EQ(batched.mapped, result.mapped);
            EXPECT_EQ(batched.linearStart, result.linearStart);
            EXPECT_EQ(batched.editDistance, result.editDistance);
        }
    }
    EXPECT_EQ(segram_mapper.engineName(), "segram");
    EXPECT_EQ(ga_mapper.engineName(), "graphaligner-like");
    EXPECT_EQ(vg_mapper.engineName(), "vg-like");
}

// ------------------------------------------------- regionsTried repair

TEST(SegramMapper, RegionsTriedCountsBothStrands)
{
    const auto dataset = sim::makeDataset(smallConfig(110));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);

    Rng rng(111);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (trial % 2 == 1)
            read = reverseComplement(read);
        PipelineStats stats;
        const auto result = mapper.mapRead(read, &stats);
        ASSERT_TRUE(result.mapped);
        // Without early exit every candidate region of both strands is
        // aligned, so the per-read counter must equal the stats-side
        // work counter — not just the winning strand's share.
        EXPECT_EQ(result.regionsTried, stats.regionsAligned)
            << "trial " << trial;
        EXPECT_GT(result.regionsTried, 0u);
    }
}

TEST(SegramMapper, MapReadsSchedulerMatchesMapReadLoop)
{
    // The lane-batched region-stream scheduler — including its
    // speculative starts past undecided early-exit checks — must
    // deliver exactly what a sequential mapRead loop delivers: every
    // result field and every counter, for every config that changes
    // the per-strand control flow (early exit, RC retry, region cap)
    // and for batch sizes that leave lanes idle or ragged.
    const auto dataset = sim::makeDataset(smallConfig(120));
    const auto all_reads = makeReads(dataset, 40, 121);

    SegramConfig plain;
    SegramConfig early;
    early.earlyExitFraction = 1.0;
    SegramConfig early_rc;
    early_rc.earlyExitFraction = 1.0;
    early_rc.tryReverseComplement = true;
    SegramConfig capped;
    capped.maxRegions = 2;
    capped.tryReverseComplement = true;
    const SegramConfig configs[] = {plain, early, early_rc, capped};

    for (size_t c = 0; c < std::size(configs); ++c) {
        const SegramMapper mapper(dataset.graph, dataset.index,
                                  configs[c]);
        MapWorkspace workspace;
        for (const size_t count : {size_t{1}, size_t{2}, size_t{5},
                                   all_reads.size()}) {
            const std::vector<std::string> reads(
                all_reads.begin(),
                all_reads.begin() + static_cast<ptrdiff_t>(count));
            const auto views = viewsOf(reads);
            std::vector<MapResult> batched(count);
            PipelineStats batched_stats;
            mapper.mapReads(std::span<const std::string_view>(views),
                            batched, &batched_stats, workspace);

            PipelineStats loop_stats;
            for (size_t i = 0; i < count; ++i) {
                const MapResult solo =
                    mapper.mapRead(reads[i], &loop_stats);
                const MapResult &got = batched[i];
                ASSERT_EQ(solo.mapped, got.mapped)
                    << "config " << c << ", count " << count
                    << ", read " << i;
                EXPECT_EQ(solo.linearStart, got.linearStart)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.editDistance, got.editDistance)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.regionsTried, got.regionsTried)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.reverseComplemented,
                          got.reverseComplemented)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.cigar.toString(), got.cigar.toString())
                    << "config " << c << ", read " << i;
            }
            expectSameCounters(loop_stats, batched_stats);
            EXPECT_EQ(batched_stats.readsTotal, count)
                << "config " << c;
        }
    }
}

TEST(SegramMapper, MapReadsHandlesEmptyBatchAndReusedWorkspace)
{
    const auto dataset = sim::makeDataset(smallConfig(122));
    SegramConfig config;
    config.earlyExitFraction = 1.0;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    MapWorkspace workspace;

    PipelineStats stats;
    mapper.mapReads({}, {}, &stats, workspace);
    EXPECT_EQ(stats.readsTotal, 0u);

    // Back-to-back batches through one workspace: the second batch
    // must be unaffected by the first one's scheduler state.
    const auto reads = makeReads(dataset, 9, 123);
    const auto views = viewsOf(reads);
    std::vector<MapResult> first(reads.size());
    std::vector<MapResult> second(reads.size());
    mapper.mapReads(std::span<const std::string_view>(views), first,
                    nullptr, workspace);
    mapper.mapReads(std::span<const std::string_view>(views), second,
                    nullptr, workspace);
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(first[i].mapped, second[i].mapped) << "read " << i;
        EXPECT_EQ(first[i].linearStart, second[i].linearStart)
            << "read " << i;
        EXPECT_EQ(first[i].editDistance, second[i].editDistance)
            << "read " << i;
        EXPECT_EQ(first[i].cigar.toString(), second[i].cigar.toString())
            << "read " << i;
    }
}

} // namespace
} // namespace segram::core
