/**
 * @file
 * Per-layer replay: the mapper's per-read flow re-run on one thread
 * through the layers' public functions, with the arguments the mapper
 * passes — MinSeed::seedRead, then for every candidate region
 * graph::linearizeRange and align::alignWindowed — timed by spans.
 * The regions are then aligned again through align::alignWindowBatch
 * with four WindowedAlignStreams in lockstep.
 */

#ifndef MAPBENCH_SRC_REPLAY_H
#define MAPBENCH_SRC_REPLAY_H

#include <string>
#include <unordered_map>
#include <vector>

#include "mapbench/src/bench.h"
#include "src/io/fastx.h"

namespace mapbench
{

/**
 * Replays @p reads (their ids are their indexes in the workload's read
 * file) and sets the seed.*, graph.* and align.* metrics. Every
 * replayed read must reproduce the PAF line the mapper wrote for it
 * (@p paf_lines), and every batched alignment its alignWindowed twin.
 */
void replay(const core::PreprocessedReference &reference,
            const core::SegramConfig &config,
            const std::vector<io::FastxRecord> &reads,
            const std::unordered_map<std::string, std::string> &paf_lines,
            Tracer &tracer, Metrics &metrics, Checks &checks);

} // namespace mapbench

#endif // MAPBENCH_SRC_REPLAY_H
