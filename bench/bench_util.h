/**
 * @file
 * Shared helpers for the benchmark harnesses: canonical datasets
 * (long-read and short-read workloads mirroring the paper's Section 10
 * setup, scaled to synthetic genomes), wall-clock timing and a
 * median/min/max trial runner, workload extraction for the hardware
 * model, and table printing.
 *
 * All benches are deterministic: datasets come from fixed seeds.
 */

#ifndef SEGRAM_BENCH_BENCH_UTIL_H
#define SEGRAM_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "src/core/segram.h"
#include "src/hw/cycle_model.h"
#include "src/seed/minseed.h"
#include "src/sim/dataset.h"

namespace segram::bench
{

/** Wall-clock seconds of @p fn. */
inline double
timeSec(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/** Median, min and max of repeated measurements of one figure. */
struct TrialStats
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Summarizes @p samples (non-empty); an even count averages the two
 *  middle samples. */
inline TrialStats
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const size_t mid = samples.size() / 2;
    const double median = samples.size() % 2 == 1
                              ? samples[mid]
                              : 0.5 * (samples[mid - 1] + samples[mid]);
    return {median, samples.front(), samples.back()};
}

/**
 * The trial runner: times @p fn @p trials times (wall clock) and
 * summarizes the seconds. Gates read the median, so one descheduled
 * or cache-cold sample cannot flip a verdict; min/max show the spread.
 */
inline TrialStats
timeTrials(int trials, const std::function<void()> &fn)
{
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(trials));
    for (int t = 0; t < trials; ++t)
        samples.push_back(timeSec(fn));
    return summarize(std::move(samples));
}

/**
 * Lifetime peak resident set size of this process in bytes (getrusage
 * ru_maxrss); 0 when the platform does not report it. A high-water
 * mark: it never decreases, so it reflects the largest phase of the
 * whole run, not the current working set.
 */
inline uint64_t
peakRssBytes()
{
#if defined(__linux__) || defined(__APPLE__)
    struct rusage usage
    {
    };
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss); // bytes on macOS
#else
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
    return 0;
#endif
}

/**
 * Current resident set size in bytes (sampled from /proc/self/statm);
 * 0 when unavailable. Unlike peakRssBytes this *does* go down when
 * pages are dropped, so sampling it across a mapping run observes what
 * a memory budget actually holds resident.
 */
inline uint64_t
currentRssBytes()
{
#if defined(__linux__)
    FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr)
        return 0;
    unsigned long long pages_total = 0;
    unsigned long long pages_resident = 0;
    const int fields =
        std::fscanf(statm, "%llu %llu", &pages_total, &pages_resident);
    std::fclose(statm);
    if (fields != 2)
        return 0;
    return static_cast<uint64_t>(pages_resident) *
           static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
#else
    return 0;
#endif
}

/** The canonical graph dataset used by the end-to-end benches. */
inline sim::DatasetConfig
datasetConfig(uint64_t genome_len, uint64_t seed = 20220618)
{
    sim::DatasetConfig config;
    config.genome.length = genome_len;
    config.genome.repeatFraction = 0.03;
    config.index.sketch = {15, 10};
    config.index.bucketBits = 16;
    config.seed = seed;
    return config;
}

/** One named read set (e.g. "PacBio-5%" or "Illumina-150bp"). */
struct ReadSet
{
    std::string name;
    sim::ReadSimConfig config;
};

/** The paper's four long-read datasets (Section 10), scaled in count. */
inline std::vector<ReadSet>
longReadSets(uint32_t read_len, uint32_t num_reads)
{
    return {
        {"PacBio-5%", {read_len, num_reads, sim::ErrorProfile::pacbio(0.05)}},
        {"PacBio-10%", {read_len, num_reads, sim::ErrorProfile::pacbio(0.10)}},
        {"ONT-5%", {read_len, num_reads, sim::ErrorProfile::ont(0.05)}},
        {"ONT-10%", {read_len, num_reads, sim::ErrorProfile::ont(0.10)}},
    };
}

/** The paper's three short-read datasets (Section 10). */
inline std::vector<ReadSet>
shortReadSets(uint32_t num_reads)
{
    return {
        {"Illumina-100bp", {100, num_reads, sim::ErrorProfile::illumina()}},
        {"Illumina-150bp", {150, num_reads, sim::ErrorProfile::illumina()}},
        {"Illumina-250bp", {250, num_reads, sim::ErrorProfile::illumina()}},
    };
}

/**
 * Extracts the hardware-model workload for a read set by running the
 * software MinSeed stage over the reads (measured, not guessed).
 */
inline hw::ReadWorkload
extractWorkload(const sim::Dataset &dataset,
                const std::vector<sim::SimRead> &reads, double error_rate)
{
    seed::MinSeedConfig config;
    config.errorRate = error_rate;
    config.mergeDuplicateRegions = false; // hardware aligns every seed
    const seed::MinSeed minseed(dataset.graph, dataset.index, config);
    seed::MinSeedStats stats;
    double region_chars = 0.0;
    for (const auto &read : reads) {
        const auto regions = minseed.seedRead(read.seq, &stats);
        for (const auto &region : regions)
            region_chars += static_cast<double>(region.end - region.start + 1);
    }
    hw::ReadWorkload workload;
    workload.readLen = static_cast<int>(reads.front().seq.size());
    const double n = static_cast<double>(reads.size());
    workload.seedsPerRead =
        std::max(1.0, static_cast<double>(stats.seedsFetched) / n);
    workload.minimizersPerRead =
        std::max(1.0, static_cast<double>(stats.minimizersComputed) / n);
    workload.seedHitsPerMinimizer =
        stats.minimizersKept == 0
            ? 1.0
            : static_cast<double>(stats.seedsFetched) /
                  static_cast<double>(stats.minimizersKept);
    // Subgraph bytes per seed: node records + 2-bit chars + edges,
    // approximated from the average region length (Fig. 5 layout).
    const double avg_region =
        stats.seedsFetched == 0
            ? 0.0
            : region_chars / static_cast<double>(stats.seedsFetched);
    workload.regionBytes = avg_region * (2.0 / 8.0) + 64.0;
    return workload;
}

/** Prints a horizontal rule + title. */
inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace segram::bench

#endif // SEGRAM_BENCH_BENCH_UTIL_H
