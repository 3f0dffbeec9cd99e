#include "mapbench/src/replay.h"

#include <array>
#include <cmath>

#include "src/align/window_batch.h"
#include "src/seed/minseed.h"
#include "src/util/dna.h"

namespace mapbench
{

namespace
{

/** Regions kept for the lane-batched re-alignment. */
constexpr size_t kBatchReplayRegions = 4096;

/** One alignWindowed call of the replay, kept for the batch pass. */
struct RegionCall
{
    size_t shard = 0;
    const std::string *seq = nullptr;
    seed::CandidateRegion region;
    align::BitAlignConfig bitalign;
    align::GraphAlignment result;
};

/**
 * Re-aligns @p calls four at a time through alignWindowBatch, the
 * streams driven in lockstep, and checks each result against the
 * alignWindowed one. @return windows aligned.
 */
uint64_t
replayBatched(const core::PreprocessedReference &reference,
              const core::SegramConfig &config,
              const std::vector<RegionCall> &calls, Tracer &tracer,
              Checks &checks)
{
    constexpr int kLanes = bitops::kBatchLanes;
    align::WindowBatchScratch scratch;
    std::array<graph::LinearizedGraph, kLanes> texts;
    std::array<align::WindowedAlignStream, kLanes> streams;
    std::array<align::GraphAlignment, kLanes> outs;
    std::array<align::WindowResult, kLanes> windows;
    uint64_t total = 0;
    const SpanScope batch_span(tracer, "replay_batch");
    for (size_t group = 0; group < calls.size(); group += kLanes) {
        const int lanes =
            static_cast<int>(std::min<size_t>(kLanes, calls.size() - group));
        for (int l = 0; l < lanes; ++l) {
            const RegionCall &call = calls[group + static_cast<size_t>(l)];
            graph::linearizeRange(reference.graph(call.shard),
                                  call.region.start, call.region.end,
                                  config.hopLimit, texts[l]);
            streams[l].begin(texts[l], *call.seq, call.bitalign, &outs[l]);
        }
        while (true) {
            const align::WindowedAlignStream::Request *requests[kLanes];
            align::WindowResult *results[kLanes];
            int lane_of[kLanes];
            int count = 0;
            for (int l = 0; l < lanes; ++l) {
                if (streams[l].done())
                    continue;
                requests[count] = &streams[l].request();
                results[count] = &windows[l];
                lane_of[count++] = l;
            }
            if (count == 0)
                break;
            {
                const SpanScope span(tracer, "align_batch", batch_span.id());
                align::alignWindowBatch(requests, results, count, scratch);
            }
            total += static_cast<uint64_t>(count);
            for (int c = 0; c < count; ++c)
                streams[lane_of[c]].consume(windows[lane_of[c]]);
        }
        for (int l = 0; l < lanes; ++l) {
            const align::GraphAlignment &want =
                calls[group + static_cast<size_t>(l)].result;
            checks.expect(outs[l].found == want.found &&
                              (!want.found ||
                               (outs[l].editDistance == want.editDistance &&
                                outs[l].linearStart == want.linearStart &&
                                outs[l].cigar == want.cigar)),
                          "alignWindowBatch differs from alignWindowed");
        }
    }
    return total;
}

} // namespace

void
replay(const core::PreprocessedReference &reference,
       const core::SegramConfig &config,
       const std::vector<io::FastxRecord> &reads,
       const std::unordered_map<std::string, std::string> &paf_lines,
       Tracer &tracer, Metrics &metrics, Checks &checks)
{
    const size_t shards = reference.numChromosomes();
    std::vector<seed::MinSeed> minseeds;
    for (size_t s = 0; s < shards; ++s)
        minseeds.emplace_back(reference.graph(s), reference.index(s),
                              config.minseed);
    seed::SeedScratch seed_scratch;
    seed::MinSeedStats seed_stats;
    std::vector<seed::CandidateRegion> regions;
    graph::LinearizedGraph text;
    align::AlignScratch align_scratch;
    align::GraphAlignment alignment;
    std::vector<std::string> strands;
    strands.reserve(2 * reads.size()); // RegionCall points into it
    std::vector<RegionCall> calls;
    uint64_t num_regions = 0;
    uint64_t chars = 0;
    double chromosome_nodes = 0.0;

    const int replay_span = tracer.open("replay");
    for (size_t i = 0; i < reads.size(); ++i) {
        const auto read_id = static_cast<int64_t>(i);
        strands.push_back(reads[i].seq);
        strands.push_back(reverseComplement(reads[i].seq));
        const SpanScope read_span(tracer, "replay_read", replay_span,
                                  read_id);
        core::MultiMapResult best;
        for (size_t s = 0; s < shards; ++s) {
            const graph::GenomeGraph &graph = reference.graph(s);
            std::array<core::MapResult, 2> strand_best;
            for (size_t strand = 0; strand < 2; ++strand) {
                const std::string &seq = strands[2 * i + strand];
                {
                    const SpanScope span(tracer, "seed", read_span.id(),
                                         read_id);
                    minseeds[s].seedRead(seq, regions, seed_scratch,
                                         &seed_stats);
                }
                // SegramMapper::mapOneStrand's region loop.
                const int early_exit_edits =
                    config.earlyExitFraction > 0.0
                        ? static_cast<int>(std::ceil(
                              config.earlyExitFraction *
                              config.minseed.errorRate *
                              static_cast<double>(seq.size())))
                        : -1;
                size_t count = regions.size();
                if (config.maxRegions != 0 && count > config.maxRegions)
                    count = config.maxRegions;
                core::MapResult &sb = strand_best[strand];
                for (size_t r = 0; r < count; ++r) {
                    const seed::CandidateRegion &region = regions[r];
                    align::BitAlignConfig bitalign = config.bitalign;
                    bitalign.firstWindowExtraText +=
                        static_cast<int>(std::ceil(
                            2.0 * config.minseed.errorRate *
                            region.minimizerPos)) +
                        32;
                    {
                        const SpanScope region_span(
                            tracer, "region", read_span.id(), read_id);
                        {
                            const SpanScope span(tracer, "linearize",
                                                 region_span.id(), read_id);
                            graph::linearizeRange(graph, region.start,
                                                  region.end,
                                                  config.hopLimit, text);
                        }
                        const SpanScope span(tracer, "align",
                                             region_span.id(), read_id);
                        align::alignWindowed(text, seq, bitalign,
                                             align_scratch, alignment);
                    }
                    ++num_regions;
                    chars += static_cast<uint64_t>(text.size());
                    chromosome_nodes += static_cast<double>(graph.numNodes());
                    if (calls.size() < kBatchReplayRegions)
                        calls.push_back({s, &seq, region, bitalign, alignment});
                    if (!alignment.found)
                        continue;
                    if (!sb.mapped || alignment.editDistance < sb.editDistance) {
                        sb.mapped = true;
                        sb.editDistance = alignment.editDistance;
                        sb.linearStart = alignment.linearStart;
                        sb.cigar = alignment.cigar;
                    }
                    if (early_exit_edits >= 0 &&
                        sb.editDistance <= early_exit_edits)
                        break;
                }
            }
            // SegramMapper::mapRead's strand merge, then
            // ShardedBatchMapper's: lowest edit distance wins, ties go
            // to the forward strand and to the earlier chromosome.
            strand_best[1].reverseComplemented = true;
            const core::MapResult &merged =
                strand_best[1].mapped &&
                        (!strand_best[0].mapped ||
                         strand_best[1].editDistance <
                             strand_best[0].editDistance)
                    ? strand_best[1]
                    : strand_best[0];
            if (merged.mapped &&
                (!best.mapped || merged.editDistance < best.editDistance)) {
                static_cast<core::MapResult &>(best) = merged;
                best.chromosome = reference.name(s);
            }
        }
        std::string line;
        if (best.mapped)
            io::formatPaf(line, pafRecord(reference, reads[i].name,
                                          reads[i].seq, best));
        const auto it = paf_lines.find(reads[i].name);
        checks.expect(line == (it == paf_lines.end() ? "" : it->second),
                      "replay of " + reads[i].name +
                          " differs from the mapper's PAF");
    }
    tracer.close(replay_span);

    const uint64_t windows =
        replayBatched(reference, config, calls, tracer, checks);

    const double n_reads = static_cast<double>(std::max<size_t>(reads.size(), 1));
    const double n_regions = static_cast<double>(std::max<uint64_t>(num_regions, 1));
    const double linearize_sec = tracer.childSeconds(-1, "linearize");
    metrics.set("seed.us_per_read",
                tracer.childSeconds(-1, "seed") * 1e6 / n_reads, "us");
    metrics.set("seed.seeds_per_read",
                static_cast<double>(seed_stats.seedsFetched) / n_reads,
                "count");
    metrics.set("seed.capped_frac",
                seed_stats.minimizersKept == 0
                    ? 0.0
                    : static_cast<double>(seed_stats.minimizersCapped) /
                          static_cast<double>(seed_stats.minimizersKept),
                "ratio");
    metrics.set("graph.linearize_us_per_region",
                linearize_sec * 1e6 / n_regions, "us");
    metrics.set("graph.linearize_ns_per_char",
                linearize_sec * 1e9 /
                    static_cast<double>(std::max<uint64_t>(chars, 1)),
                "ns");
    metrics.set("graph.chars_per_region",
                static_cast<double>(chars) / n_regions, "count");
    metrics.set("graph.chromosome_nodes", chromosome_nodes / n_regions,
                "count");
    metrics.set("align.us_per_region",
                tracer.childSeconds(-1, "align") * 1e6 / n_regions, "us");
    metrics.set("align.batch_us_per_window",
                tracer.childSeconds(-1, "align_batch") * 1e6 /
                    static_cast<double>(std::max<uint64_t>(windows, 1)),
                "us");
    metrics.set("align.windows_per_region",
                static_cast<double>(windows) /
                    static_cast<double>(std::max<size_t>(calls.size(), 1)),
                "count");
}

} // namespace mapbench
