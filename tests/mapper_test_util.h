/**
 * @file
 * Test oracle for core::ShardedBatchMapper: a MultiChromosomeEngine
 * over one SegramMapper per chromosome, driven one read at a time.
 * Each read goes mapOne -> mapRead -> mapOneStrand, so the oracle
 * shares neither the (read-chunk x shard) grid nor the lane-batched
 * region scheduler with the code it checks.
 */

#ifndef SEGRAM_TESTS_MAPPER_TEST_UTIL_H
#define SEGRAM_TESTS_MAPPER_TEST_UTIL_H

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"

namespace segram::test_util
{

/** The per-read oracle over every chromosome of @p reference. */
inline std::unique_ptr<core::MappingEngine>
perReadOracle(const core::PreprocessedReference &reference,
              const core::SegramConfig &config)
{
    std::vector<core::MultiChromosomeEngine::Entry> entries;
    for (size_t c = 0; c < reference.numChromosomes(); ++c) {
        entries.push_back({reference.name(c),
                           std::make_unique<core::SegramMapper>(
                               reference, c, config)});
    }
    return std::make_unique<core::MultiChromosomeEngine>(
        std::move(entries), "segram-per-read");
}

/** Maps reads[i] -> result[i] with one mapOne call per read. */
inline std::vector<core::MultiMapResult>
mapEachRead(const core::MappingEngine &engine,
            std::span<const std::string_view> reads,
            core::PipelineStats *stats = nullptr)
{
    std::vector<core::MultiMapResult> results;
    results.reserve(reads.size());
    for (const std::string_view read : reads)
        results.push_back(engine.mapOne(read, stats));
    return results;
}

/** Expects equal results, field by field, read by read. */
inline void
expectSameResults(const std::vector<core::MultiMapResult> &lhs,
                  const std::vector<core::MultiMapResult> &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].mapped, rhs[i].mapped) << "read " << i;
        EXPECT_EQ(lhs[i].linearStart, rhs[i].linearStart) << "read " << i;
        EXPECT_EQ(lhs[i].editDistance, rhs[i].editDistance)
            << "read " << i;
        EXPECT_EQ(lhs[i].regionsTried, rhs[i].regionsTried)
            << "read " << i;
        EXPECT_EQ(lhs[i].reverseComplemented, rhs[i].reverseComplemented)
            << "read " << i;
        EXPECT_EQ(lhs[i].chromosome, rhs[i].chromosome) << "read " << i;
        EXPECT_EQ(lhs[i].cigar.toString(), rhs[i].cigar.toString())
            << "read " << i;
    }
}

/**
 * Expects equal deterministic counters. The lane-occupancy telemetry
 * and the stage timings describe how the work was scheduled, not what
 * was computed, and are left out.
 */
inline void
expectSameCounters(const core::PipelineStats &lhs,
                   const core::PipelineStats &rhs)
{
    EXPECT_EQ(lhs.readsTotal, rhs.readsTotal);
    EXPECT_EQ(lhs.readsMapped, rhs.readsMapped);
    EXPECT_EQ(lhs.regionsAligned, rhs.regionsAligned);
    EXPECT_EQ(lhs.alignmentsFound, rhs.alignmentsFound);
    EXPECT_EQ(lhs.seeding.minimizersComputed,
              rhs.seeding.minimizersComputed);
    EXPECT_EQ(lhs.seeding.minimizersKept, rhs.seeding.minimizersKept);
    EXPECT_EQ(lhs.seeding.minimizersCapped,
              rhs.seeding.minimizersCapped);
    EXPECT_EQ(lhs.seeding.seedsAvailable, rhs.seeding.seedsAvailable);
    EXPECT_EQ(lhs.seeding.seedsFetched, rhs.seeding.seedsFetched);
    EXPECT_EQ(lhs.seeding.seedsSkippedByCap,
              rhs.seeding.seedsSkippedByCap);
    EXPECT_EQ(lhs.seeding.regionsEmitted, rhs.seeding.regionsEmitted);
}

} // namespace segram::test_util

#endif // SEGRAM_TESTS_MAPPER_TEST_UTIL_H
