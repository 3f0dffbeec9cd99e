/**
 * @file
 * End-to-end batched mapping throughput: the ShardedBatchMapper driver
 * over the full SeGraM pipeline (one SegramMapper as a single shard)
 * at 1/2/4/8 worker threads, against the plain single-thread mapRead
 * loop as the reference.
 *
 * This is the software analogue of the paper's channel scaling claim
 * (one MinSeed+BitAlign pair per HBM2E channel, linear scaling across
 * channels): workers share only the read-only graph+index, so reads/s
 * should scale with cores. The bench also re-verifies the determinism
 * contract — every thread count must produce bit-identical results —
 * so the measured speedup is a speedup of the *same* computation.
 *
 * Two gates ride along:
 *  - Allocation gate: a counting global operator new measures
 *    steady-state heap allocations per read on the workspace-driven
 *    hot path. Pre-workspace (PR 3) the pipeline performed ~11,080
 *    allocations per read; the gate requires at least the 10x drop
 *    the zero-allocation refactor promised (measured: ~1 per read,
 *    the returned result's owned CIGAR).
 *  - Throughput gate: the workspace loop must not be slower than 80%
 *    of the per-call-allocating loop (in practice it is >1.3x faster;
 *    the slack absorbs CI noise).
 *
 * Every configuration is timed kTrials (5) times; the tables report
 * the median with the min..max spread. The two ratio gates pair their
 * sides within each trial (the runs alternate) and read the median of
 * the per-trial ratios, so neither a single descheduled sample nor a
 * drift in machine load can flip a verdict.
 *
 * Flags: --quick shrinks the dataset for CI smoke runs; --json PATH
 * writes the measurements as a JSON object so CI can archive the perf
 * trajectory (BENCH_*.json artifacts).
 *
 * Like every bench, fully deterministic inputs (fixed seeds).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/sim/read_sim.h"
#include "src/util/bitops_simd.h"

namespace
{

/**
 * Counting allocator: every successful global operator new bumps the
 * counter. Linked into this bench only — the library never overrides
 * the global allocator.
 */
std::atomic<unsigned long long> g_allocations{0};

} // namespace

void *
operator new(size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace segram;

/** Timed repetitions of every configuration; gates read the median. */
constexpr int kTrials = 5;

/** Steady-state allocations/read of the pre-workspace pipeline (PR 3),
 *  measured with this same counting allocator before the refactor. */
constexpr double kPreWorkspaceAllocsPerRead = 11080.0;

/** Compact equality over everything a mapping run produces. */
bool
sameResults(const std::vector<core::MultiMapResult> &lhs,
            const std::vector<core::MultiMapResult> &rhs)
{
    if (lhs.size() != rhs.size())
        return false;
    for (size_t i = 0; i < lhs.size(); ++i) {
        if (lhs[i].mapped != rhs[i].mapped ||
            lhs[i].linearStart != rhs[i].linearStart ||
            lhs[i].editDistance != rhs[i].editDistance ||
            lhs[i].regionsTried != rhs[i].regionsTried ||
            lhs[i].reverseComplemented != rhs[i].reverseComplemented ||
            lhs[i].chromosome != rhs[i].chromosome ||
            lhs[i].cigar.toString() != rhs[i].cigar.toString())
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_throughput [--quick] "
                         "[--json out.json]\n");
            return 2;
        }
    }

    bench::printHeader("Batched mapping throughput (ShardedBatchMapper)");

    const uint64_t genome_len = quick ? 150'000 : 400'000;
    const uint32_t num_reads = quick ? 60 : 200;
    const auto dataset = sim::makeDataset(bench::datasetConfig(genome_len));
    core::SegramConfig config;
    config.minseed.errorRate = 0.05;
    config.earlyExitFraction = 1.5;
    const core::SegramMapper mapper(dataset.graph, dataset.index, config);

    Rng rng(47);
    sim::ReadSimConfig read_config{1'000, num_reads,
                                   sim::ErrorProfile::pacbio(0.05)};
    const auto sim_reads =
        sim::simulateReads(dataset.donor, read_config, rng);
    std::vector<std::string_view> reads;
    reads.reserve(sim_reads.size());
    uint64_t total_bases = 0;
    for (const auto &read : sim_reads) {
        reads.push_back(read.seq);
        total_bases += read.seq.size();
    }
    std::printf("%zu reads x %u bp, genome %llu bp\n\n", reads.size(),
                read_config.readLen,
                static_cast<unsigned long long>(
                    dataset.graph.totalSeqLen()));

    const double reads_total = static_cast<double>(reads.size());
    const auto reads_per_sec = [&](const bench::TrialStats &sec) {
        return bench::TrialStats{reads_total / sec.median,
                                 reads_total / sec.max,
                                 reads_total / sec.min};
    };

    // Reference: the per-call-allocating mapRead loop (fresh workspace
    // every read) — what the pipeline did before the workspace
    // refactor. Also the determinism baseline for the batch runs.
    //
    // Workspace loop: same computation out of one warm workspace. A
    // warm-up pass runs first so buffer growth does not count — the
    // allocation gate measures the steady state, averaged over every
    // trial. Fresh and warm trials alternate, so drift in machine load
    // hits both sides of their ratio alike.
    std::vector<core::MultiMapResult> reference;
    core::MapWorkspace workspace;
    for (const auto read : reads)
        mapper.mapRead(read, nullptr, workspace);
    std::vector<core::MultiMapResult> ws_results;
    ws_results.reserve(reads.size());
    std::vector<double> fresh_s, warm_s, warm_over_fresh;
    unsigned long long warm_allocs = 0;
    for (int t = 0; t < kTrials; ++t) {
        fresh_s.push_back(bench::timeSec([&] {
            reference.clear();
            reference.reserve(reads.size());
            for (const auto read : reads) {
                core::MultiMapResult result;
                static_cast<core::MapResult &>(result) =
                    mapper.mapRead(read);
                reference.push_back(std::move(result));
            }
        }));
        const unsigned long long allocs_before = g_allocations.load();
        warm_s.push_back(bench::timeSec([&] {
            ws_results.clear();
            for (const auto read : reads) {
                core::MultiMapResult result;
                static_cast<core::MapResult &>(result) =
                    mapper.mapRead(read, nullptr, workspace);
                ws_results.push_back(std::move(result));
            }
        }));
        warm_allocs += g_allocations.load() - allocs_before;
        warm_over_fresh.push_back(fresh_s.back() / warm_s.back());
    }
    const bench::TrialStats fresh =
        reads_per_sec(bench::summarize(fresh_s));
    const bench::TrialStats warm = reads_per_sec(bench::summarize(warm_s));
    const bench::TrialStats warm_ratio = bench::summarize(warm_over_fresh);
    const double allocs_per_read =
        static_cast<double>(warm_allocs) / (kTrials * reads_total);

    std::printf("%d trials per config: median reads/s, min..max\n\n",
                kTrials);
    std::printf("%-14s %12s %21s %14s %10s %10s\n", "config", "reads/s",
                "min..max", "bases/s", "speedup", "identical");
    const auto print_row = [&](const char *label,
                               const bench::TrialStats &rps,
                               const char *identical) {
        char range[32];
        std::snprintf(range, sizeof range, "%.1f..%.1f", rps.min,
                      rps.max);
        std::printf("%-14s %12.1f %21s %14.0f %9.2fx %10s\n", label,
                    rps.median, range,
                    rps.median * static_cast<double>(total_bases) /
                        reads_total,
                    rps.median / fresh.median, identical);
    };
    print_row("fresh-ws(1T)", fresh, "ref");
    print_row("warm-ws(1T)", warm,
              sameResults(reference, ws_results) ? "yes" : "NO");
    std::printf("warm/fresh per paired trial: %.2fx (%.2f..%.2f)\n",
                warm_ratio.median, warm_ratio.min, warm_ratio.max);
    // Determinism failures are recorded but deferred past the JSON
    // write, so even a diverging run archives its measurements.
    bool diverged = false;
    if (!sameResults(reference, ws_results)) {
        std::fprintf(stderr,
                     "FAIL: workspace loop results diverge from the "
                     "fresh-workspace reference\n");
        diverged = true;
    }

    std::vector<int> thread_counts{1, 2, 4, 8};
    if (quick)
        thread_counts = {1, 2};
    std::vector<bench::TrialStats> batch_rps;
    for (const int threads : thread_counts) {
        const core::ShardedBatchMapper batch_mapper(
            mapper, {.threads = threads});
        std::vector<core::MultiMapResult> results;
        batch_rps.push_back(reads_per_sec(bench::timeTrials(kTrials, [&] {
            results = batch_mapper.mapBatch(
                std::span<const std::string_view>(reads));
        })));
        char label[32];
        std::snprintf(label, sizeof label, "batch(%dT)", threads);
        print_row(label, batch_rps.back(),
                  sameResults(reference, results) ? "yes" : "NO");
        if (!sameResults(reference, results)) {
            std::fprintf(stderr,
                         "FAIL: %d-thread batch results diverge from "
                         "the single-thread reference\n",
                         threads);
            diverged = true;
        }
    }

    std::printf("\nsteady-state heap allocations per read: %.2f "
                "(pre-workspace: %.0f)\n",
                allocs_per_read, kPreWorkspaceAllocsPerRead);

    const uint64_t peak_rss = bench::peakRssBytes();
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(peak_rss) / (1024.0 * 1024.0));

    // Stage breakdown of the warm-workspace loop (where the per-read
    // time goes, attributed to the kernel backend that produced it)
    // and of the same reads through the single-thread lane-batched
    // scheduler (ShardedBatchMapper -> mapMany ->
    // SegramMapper::mapReads). Timed separately from the loops above
    // because collecting PipelineStats adds clock reads to the hot
    // path. The per-trial ratio of the two alignment stages is the
    // kernel-level speedup the cross-window batching claims, measured
    // in-run on the same data; the two runs of a trial alternate like
    // the fresh/warm pair. The occupancy counters are deterministic,
    // so the last trial's are every trial's.
    std::vector<double> seeding_s, linearize_s, align_s;
    std::vector<double> b_seeding_s, b_linearize_s, b_align_s;
    std::vector<double> align_speedups;
    core::PipelineStats batched_stats;
    // One mapper for every trial, warmed like the per-read workspace
    // (its per-worker workspaces persist across mapBatch calls).
    const core::ShardedBatchMapper stage_mapper(mapper);
    std::vector<core::MultiMapResult> batched_results =
        stage_mapper.mapBatch(std::span<const std::string_view>(reads));
    for (int t = 0; t < kTrials; ++t) {
        core::PipelineStats stage_stats;
        for (const auto read : reads)
            mapper.mapRead(read, &stage_stats, workspace);
        seeding_s.push_back(stage_stats.timings.seedingSec);
        linearize_s.push_back(stage_stats.timings.linearizeSec);
        align_s.push_back(stage_stats.timings.alignSec);

        batched_stats = {};
        batched_results = stage_mapper.mapBatch(
            std::span<const std::string_view>(reads), &batched_stats);
        b_seeding_s.push_back(batched_stats.timings.seedingSec);
        b_linearize_s.push_back(batched_stats.timings.linearizeSec);
        b_align_s.push_back(batched_stats.timings.alignSec);
        align_speedups.push_back(
            b_align_s.back() > 0.0 ? align_s.back() / b_align_s.back()
                                   : 0.0);
    }
    const bench::TrialStats seeding = bench::summarize(seeding_s);
    const bench::TrialStats linearize = bench::summarize(linearize_s);
    const bench::TrialStats align = bench::summarize(align_s);
    const bench::TrialStats b_seeding = bench::summarize(b_seeding_s);
    const bench::TrialStats b_linearize = bench::summarize(b_linearize_s);
    const bench::TrialStats b_align = bench::summarize(b_align_s);
    const bench::TrialStats speedup = bench::summarize(align_speedups);
    const double align_speedup = speedup.median;
    const double stage_total =
        seeding.median + linearize.median + align.median;
    std::printf("\nstage breakdown (1T, backend %s): seeding %.3f s, "
                "linearization %.3f s, alignment %.3f s "
                "(%.3f..%.3f; %.1f%% of stage time)\n",
                bitops::activeBackendName(), seeding.median,
                linearize.median, align.median, align.min, align.max,
                stage_total > 0.0 ? 100.0 * align.median / stage_total
                                  : 0.0);
    std::printf("batched stages (1T): seeding %.3f s, linearization "
                "%.3f s, alignment %.3f s (%.3f..%.3f)\n",
                b_seeding.median, b_linearize.median, b_align.median,
                b_align.min, b_align.max);
    const double lane_occupancy =
        batched_stats.batchLaunches > 0
            ? static_cast<double>(batched_stats.batchedWindows) /
                  static_cast<double>(batched_stats.batchLaunches)
            : 0.0;
    const double batched_fraction =
        batched_stats.batchedWindows + batched_stats.scalarWindows > 0
            ? static_cast<double>(batched_stats.batchedWindows) /
                  static_cast<double>(batched_stats.batchedWindows +
                                      batched_stats.scalarWindows)
            : 0.0;
    std::printf("lane occupancy: %.2f windows/launch (%.0f%% of windows "
                "batched), alignment-stage speedup %.2fx (%.2f..%.2f)\n",
                lane_occupancy, 100.0 * batched_fraction, align_speedup,
                speedup.min, speedup.max);
    if (!sameResults(reference, batched_results)) {
        std::fprintf(stderr, "FAIL: batched-scheduler results diverge "
                             "from the fresh-workspace reference\n");
        diverged = true;
    }

    // Write the measurements before any gate verdict, so a failing
    // run still archives the numbers that explain the failure. Timed
    // figures are medians; "min_max" carries their spread.
    if (!json_path.empty()) {
        FILE *json = std::fopen(json_path.c_str(), "w");
        if (json == nullptr) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(json,
                     "{\n"
                     "  \"bench\": \"throughput\",\n"
                     "  \"quick\": %s,\n"
                     "  \"trials\": %d,\n"
                     "  \"reads\": %zu,\n"
                     "  \"read_len\": %u,\n"
                     "  \"genome_len\": %llu,\n"
                     "  \"kernel_backend\": \"%s\",\n"
                     "  \"fresh_workspace_reads_per_sec\": %.2f,\n"
                     "  \"warm_workspace_reads_per_sec\": %.2f,\n"
                     "  \"allocs_per_read\": %.3f,\n"
                     "  \"pre_workspace_allocs_per_read\": %.0f,\n"
                     "  \"peak_rss_bytes\": %llu,\n"
                     "  \"stage_seconds\": {\"seeding\": %.4f, "
                     "\"linearization\": %.4f, \"alignment\": %.4f},\n",
                     quick ? "true" : "false", kTrials, reads.size(),
                     read_config.readLen,
                     static_cast<unsigned long long>(
                         dataset.graph.totalSeqLen()),
                     bitops::activeBackendName(), fresh.median,
                     warm.median, allocs_per_read,
                     kPreWorkspaceAllocsPerRead,
                     static_cast<unsigned long long>(peak_rss),
                     seeding.median, linearize.median, align.median);
        std::fprintf(json,
                     "  \"batched_stage_seconds\": {\"seeding\": %.4f, "
                     "\"linearization\": %.4f, \"alignment\": %.4f},\n"
                     "  \"lane_occupancy\": %.3f,\n"
                     "  \"batched_window_fraction\": %.4f,\n"
                     "  \"align_stage_speedup\": %.3f,\n"
                     "  \"warm_over_fresh\": %.3f,\n",
                     b_seeding.median, b_linearize.median,
                     b_align.median, lane_occupancy, batched_fraction,
                     align_speedup, warm_ratio.median);
        std::fprintf(json, "  \"batch_reads_per_sec\": {");
        for (size_t i = 0; i < thread_counts.size(); ++i)
            std::fprintf(json, "%s\"%d\": %.2f", i == 0 ? "" : ", ",
                         thread_counts[i], batch_rps[i].median);
        std::fprintf(json,
                     "},\n"
                     "  \"min_max\": {\n"
                     "    \"fresh_workspace_reads_per_sec\": "
                     "[%.2f, %.2f],\n"
                     "    \"warm_workspace_reads_per_sec\": "
                     "[%.2f, %.2f],\n"
                     "    \"stage_seconds_alignment\": [%.4f, %.4f],\n"
                     "    \"batched_stage_seconds_alignment\": "
                     "[%.4f, %.4f],\n"
                     "    \"align_stage_speedup\": [%.3f, %.3f],\n"
                     "    \"warm_over_fresh\": [%.3f, %.3f],\n"
                     "    \"batch_reads_per_sec\": {",
                     fresh.min, fresh.max, warm.min, warm.max, align.min,
                     align.max, b_align.min, b_align.max, speedup.min,
                     speedup.max, warm_ratio.min, warm_ratio.max);
        for (size_t i = 0; i < thread_counts.size(); ++i)
            std::fprintf(json, "%s\"%d\": [%.2f, %.2f]",
                         i == 0 ? "" : ", ", thread_counts[i],
                         batch_rps[i].min, batch_rps[i].max);
        std::fprintf(json, "}\n  }\n}\n");
        std::fclose(json);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (diverged)
        return 1;

    // --- allocation gate: the refactor's >= 10x drop must hold ---
    const double alloc_cap = kPreWorkspaceAllocsPerRead / 10.0;
    if (allocs_per_read > alloc_cap) {
        std::fprintf(stderr,
                     "FAIL: %.2f allocations/read exceeds the gate of "
                     "%.0f (pre-workspace baseline %.0f / 10)\n",
                     allocs_per_read, alloc_cap,
                     kPreWorkspaceAllocsPerRead);
        return 1;
    }
    // --- throughput gate: buffer reuse must not cost throughput ---
    if (warm_ratio.median < 0.8) {
        std::fprintf(stderr,
                     "FAIL: warm-workspace loop runs at %.2fx the "
                     "fresh-workspace loop (median of paired trials; "
                     "gate: 0.8x)\n",
                     warm_ratio.median);
        return 1;
    }
    // --- lane-batching gate: the cross-window path must deliver its
    // claimed alignment-stage speedup where the wide backend runs.
    // Quick (CI smoke) runs are too short and too jittery to gate on.
    if (!quick &&
        std::strcmp(bitops::activeBackendName(), "avx2") == 0 &&
        align_speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL: lane-batched alignment stage is only "
                     "%.2fx the per-read stage (median of paired "
                     "trials; gate: 1.5x on avx2)\n",
                     align_speedup);
        return 1;
    }

    std::printf(
        "\nWorkers share only the read-only graph+index (the paper's\n"
        "per-channel module isolation); speedup tracks physical cores.\n");
    return 0;
}
