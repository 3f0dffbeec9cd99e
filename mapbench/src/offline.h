/**
 * @file
 * The offline mapping path, driven the way `segram map` drives it:
 * FASTQ batches -> ShardedBatchMapper::mapBatch -> PAF.
 */

#ifndef MAPBENCH_SRC_OFFLINE_H
#define MAPBENCH_SRC_OFFLINE_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapbench/src/bench.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"

namespace mapbench
{

/** One pass over a read file. */
struct Trial
{
    double wallSec = 0.0;
    double cpuSec = 0.0;
    uint64_t reads = 0;
    uint64_t failedReads = 0; ///< reads of batches whose mapBatch threw
    uint64_t fastxBytes = 0;  ///< sequence + quality bytes parsed
    std::string paf;
    core::PipelineStats stats;
    double mapBatchSec = 0.0;
    double mapBatchCpuSec = 0.0;
    int span = -1; ///< the trial span (-1 untraced)
};

/**
 * Maps every read of @p reads_path in batches of @p batch reads and
 * writes PAF to memory. Records fastx / map_batch / paf spans under a
 * "trial" span when @p tracer is enabled.
 */
Trial runTrial(const core::PreprocessedReference &reference,
               const core::ShardedBatchMapper &mapper,
               const std::string &reads_path, size_t batch,
               Tracer &tracer);

/** Splits PAF text into query name -> line (with its newline). */
std::unordered_map<std::string, std::string>
pafLinesByQuery(const std::string &paf);

/**
 * 1-thread parity: maps @p check_path (the leading reads) with a
 * 1-thread mapper and checks that its PAF is what the multi-thread trial
 * wrote for those reads. @return the 1-thread PAF.
 */
std::string checkSingleThread(const core::PreprocessedReference &reference,
                              const core::SegramConfig &config,
                              const std::string &check_path, size_t batch,
                              const std::string &trial_paf, Checks &checks);

/** Sensitivity / precision of @p paf at `segram eval`'s defaults. */
eval::AccuracyReport evaluate(const std::vector<eval::TruthRecord> &truth,
                              const std::string &paf, Checks &checks);

} // namespace mapbench

#endif // MAPBENCH_SRC_OFFLINE_H
