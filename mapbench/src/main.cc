/**
 * @file
 * The benchmark binary. `mapbench/run.py` builds it and calls
 *
 *   mapbench gen --workload W --seed N --data DIR [--tiny]
 *   mapbench run --workload W --seed N --seconds S --trace 0|1
 *                --data DIR [--tiny]
 *   mapbench self-test --data DIR
 *
 * `run` prints one JSON object as its last stdout line: the metrics,
 * the check failures and the environment. See mapbench/README.md.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "mapbench/src/bench.h"
#include "mapbench/src/offline.h"
#include "mapbench/src/replay.h"
#include "mapbench/src/serve_load.h"
#include "src/io/fastx.h"
#include "src/util/bitops_simd.h"
#include "src/util/check.h"

namespace mapbench
{

namespace
{

/** Pack loads per run; setup_s is their median. */
constexpr int kSetups = 31;
constexpr size_t kMaxTrials = 30;

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string data;
};

struct Run
{
    Workload workload;
    core::SegramConfig config;
    Options options;
    std::string pack;
    std::vector<eval::TruthRecord> truth;
    Metrics metrics;
    Checks checks;
    Tracer tracer;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    explicit Run(const Options &opts)
        : workload(findWorkload(opts.workload, opts.tiny)),
          config(cliConfig(workload)), options(opts),
          pack(opts.data + "/ref.segram"),
          truth(eval::readTruthFile(opts.data + "/truth.tsv")),
          tracer(opts.trace)
    {
    }

    std::string path(const char *file) const
    {
        return options.data + "/" + file;
    }
};

std::vector<io::FastxRecord>
readRecords(const std::string &path, size_t limit)
{
    io::FastxReader reader(path);
    std::vector<io::FastxRecord> records;
    reader.nextBatch(records, limit);
    return records;
}

std::vector<io::FastxRecord>
leading(const std::vector<io::FastxRecord> &records, size_t count)
{
    return {records.begin(),
            records.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(records.size(), count))};
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    SEGRAM_CHECK(file != nullptr, "cannot write " + path);
    const size_t written = std::fwrite(text.data(), 1, text.size(), file);
    SEGRAM_CHECK(std::fclose(file) == 0 && written == text.size(),
                 "short write to " + path);
}

/** Per-layer counters of the mapper's own PipelineStats. */
void
setCoreCounters(const core::PipelineStats &stats, Metrics &metrics)
{
    const auto ratio = [](uint64_t a, uint64_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    metrics.set("core.regions_per_read",
                ratio(stats.regionsAligned, stats.readsTotal), "count");
    metrics.set("core.mapped_per_region",
                ratio(stats.alignmentsFound, stats.regionsAligned), "ratio");
    metrics.set("core.windows_per_region",
                ratio(stats.batchedWindows + stats.scalarWindows,
                      stats.regionsAligned),
                "count");
    metrics.set("core.lane_occupancy",
                ratio(stats.batchedWindows, stats.batchLaunches), "count");
}

/**
 * Per-layer metrics of the mapping path from @p trials, which
 * alternate untraced (even) and traced (odd) passes.
 */
void
setPathLayerMetrics(const Run &run, const std::vector<Trial> &trials,
                    Metrics &metrics)
{
    std::vector<double> fastx, fastx_rate, paf, map_batch, unattributed;
    std::vector<double> busy, seeding, linearize, align, traced, untraced;
    for (size_t t = 0; t < trials.size(); ++t) {
        const Trial &trial = trials[t];
        const auto &timings = trial.stats.timings;
        seeding.push_back(timings.seedingSec);
        linearize.push_back(timings.linearizeSec);
        align.push_back(timings.alignSec);
        busy.push_back(trial.mapBatchCpuSec /
                       (kThreads * std::max(trial.mapBatchSec, 1e-9)));
        if (trial.span < 0) {
            untraced.push_back(trial.wallSec);
            continue;
        }
        traced.push_back(trial.wallSec);
        const double fastx_sec = run.tracer.childSeconds(trial.span, "fastx");
        fastx.push_back(fastx_sec);
        fastx_rate.push_back(static_cast<double>(trial.fastxBytes) /
                             (1024.0 * 1024.0) / std::max(fastx_sec, 1e-9));
        paf.push_back(run.tracer.childSeconds(trial.span, "paf"));
        map_batch.push_back(run.tracer.childSeconds(trial.span, "map_batch"));
        unattributed.push_back(run.tracer.selfSeconds(trial.span));
    }
    metrics.set("io.fastx_s", median(fastx), "s");
    metrics.set("io.fastx_mib_per_s", median(fastx_rate), "MiB/s");
    metrics.set("io.paf_s", median(paf), "s");
    metrics.set("core.map_batch_s", median(map_batch), "s");
    metrics.set("core.unattributed_s", median(unattributed), "s");
    metrics.set("core.worker_busy_frac", median(busy), "ratio");
    metrics.set("core.stage.seeding_s", median(seeding), "s");
    metrics.set("core.stage.linearize_s", median(linearize), "s");
    metrics.set("core.stage.align_s", median(align), "s");
    metrics.set("trace.overhead_frac",
                median(traced) / std::max(median(untraced), 1e-9) - 1.0,
                "ratio");
    setCoreCounters(trials.front().stats, metrics);
}

/**
 * Runs trials over @p reads_path until @p budget seconds are used (at
 * least two). In a traced run every second trial records spans. Every
 * trial's PAF must equal the first one's; only the first keeps it.
 */
std::vector<Trial>
runTrials(Run &run, const core::PreprocessedReference &reference,
          const core::ShardedBatchMapper &mapper,
          const std::string &reads_path, size_t batch, double budget)
{
    Tracer off(false);
    std::vector<Trial> trials;
    const auto start = Clock::now();
    while (trials.size() < 2 ||
           (trials.size() < kMaxTrials &&
            secondsBetween(start, Clock::now()) + trials.back().wallSec <=
                budget)) {
        const bool traced = run.options.trace && trials.size() % 2 == 1;
        Trial trial = runTrial(reference, mapper, reads_path, batch,
                               traced ? run.tracer : off);
        run.attempted += trial.reads;
        run.failed += trial.failedReads;
        if (!trials.empty()) {
            run.checks.expect(trial.paf == trials.front().paf,
                              "trial " + std::to_string(trials.size()) +
                                  " PAF differs from trial 0");
            // Freed, not cleared: peak RSS must not grow with trials.
            std::string().swap(trial.paf);
        }
        trials.push_back(std::move(trial));
    }
    return trials;
}

/** The leading reads in kRequestReads groups, with the PAF each must
 *  come back with. */
void
requestPool(const std::vector<io::FastxRecord> &records,
            const std::unordered_map<std::string, std::string> &lines,
            std::vector<std::vector<serve::ReadRecord>> &pool,
            std::vector<std::string> &expected)
{
    for (size_t i = 0; i + kRequestReads <= records.size();
         i += kRequestReads) {
        auto &request = pool.emplace_back();
        std::string &payload = expected.emplace_back();
        for (size_t j = i; j < i + kRequestReads; ++j) {
            request.push_back({records[j].name, records[j].seq});
            const auto it = lines.find(records[j].name);
            if (it != lines.end())
                payload += it->second;
        }
    }
}

void
runOffline(Run &run)
{
    std::vector<double> setup, loads;
    std::unique_ptr<core::PreprocessedReference> reference;
    std::unique_ptr<core::ShardedBatchMapper> mapper;
    core::ShardedBatchConfig batch_config;
    batch_config.threads = kThreads;
    for (int k = 0; k < kSetups; ++k) {
        mapper.reset();
        reference.reset();
        const auto start = Clock::now();
        {
            const SpanScope span(run.tracer, "setup");
            reference = std::make_unique<core::PreprocessedReference>(
                core::PreprocessedReference::load(run.pack));
            loads.push_back(secondsBetween(start, Clock::now()));
            mapper = std::make_unique<core::ShardedBatchMapper>(
                *reference, run.config, batch_config);
        }
        setup.push_back(secondsBetween(start, Clock::now()));
    }

    const double budget = run.options.seconds *
                          (run.options.trace ? 0.6 : 1.0);
    const std::vector<Trial> trials = runTrials(
        run, *reference, *mapper, run.path("reads.fq"), kCliBatch, budget);
    const std::string &paf = trials.front().paf;
    const eval::AccuracyReport accuracy =
        evaluate(run.truth, paf, run.checks);
    writeFile(run.path("check.bench.paf"),
              checkSingleThread(*reference, run.config,
                                run.path("check.fq"), kCliBatch, paf,
                                run.checks));

    Metrics &metrics = run.metrics;
    if (!run.options.trace) {
        std::vector<double> rate, cpu;
        for (const Trial &trial : trials) {
            rate.push_back(static_cast<double>(trial.reads) / trial.wallSec);
            cpu.push_back(trial.cpuSec * 1e3 /
                          static_cast<double>(trial.reads));
        }
        metrics.set("setup_s", median(setup), "s");
        metrics.set("map_reads_per_s", median(rate), "reads/s");
        metrics.set("map_cpu_ms_per_read", median(cpu), "ms");
        metrics.set("sensitivity", accuracy.overall.sensitivity(), "ratio");
        metrics.set("precision", accuracy.overall.precision(), "ratio");
        for (const Trial &trial : trials)
            std::fprintf(stderr, "mapbench: trial %.3f s wall, %.3f s CPU\n",
                         trial.wallSec, trial.cpuSec);
        return;
    }

    metrics.set("io.pack_load_s", median(loads), "s");
    setPathLayerMetrics(run, trials, metrics);
    const auto lines = pafLinesByQuery(paf);
    const auto records = readRecords(run.path("reads.fq"),
                                     std::max(run.workload.replayReads,
                                              4 * kRequestReads));
    replay(*reference, run.config,
           leading(records, run.workload.replayReads), lines, run.tracer,
           metrics, run.checks);

    // Serve probe: the workload's leading reads as closed-loop MAP
    // requests on one connection, so the serve layer is measured with
    // this workload's reads too.
    mapper.reset();
    std::vector<std::vector<serve::ReadRecord>> pool;
    std::vector<std::string> expected;
    requestPool(records, lines, pool, expected);
    const ServeRig rig(run.pack, run.path("s.sock"), run.config);
    const Phase probe = runPhase(rig, pool, expected,
                                 std::min(1.5, 0.15 * run.options.seconds),
                                 run.tracer, run.tracer.open("probe"));
    for (const auto &outcome : probe.outcomes)
        run.checks.expect(outcome.ok, "serve probe request " +
                                          std::to_string(outcome.request) +
                                          ": " + outcome.error);
    setServeLayerMetrics(probe, metrics);
}

/** Prints the run's JSON result line. */
void
printResult(const Run &run)
{
    std::string out = "{\"correct\": ";
    out += run.checks.ok() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(run.attempted);
    out += ", \"failed\": " + std::to_string(run.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : run.metrics.values) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(value.first) +
               ", \"unit\": " + jsonString(value.second) + "}";
    }
    out += "}, \"failures\": [";
    for (size_t i = 0; i < run.checks.failures.size(); ++i)
        out += (i == 0 ? "" : ", ") + jsonString(run.checks.failures[i]);
    out += "], \"env\": {\"kernel_backend\": ";
    out += jsonString(bitops::activeBackendName());
    out += ", \"pack_bytes\": " +
           std::to_string(std::filesystem::file_size(run.pack));
    out += ", \"threads\": " + std::to_string(kThreads);
    out += ", \"cli_flags\": [";
    const auto flags = cliFlags(run.workload);
    for (size_t i = 0; i < flags.size(); ++i)
        out += (i == 0 ? "" : ", ") + jsonString(flags[i]);
    out += "]}}";
    std::cout << out << std::endl;
}

/**
 * Proves the output checks fire: a corrupted PAF line must fail to
 * parse, a PAF that differs from the multi-thread one must fail the
 * 1-thread check, and a serve payload that differs from the offline
 * PAF must fail its request. @return 0 when every check fired.
 */
int
selfTest(const std::string &data)
{
    int failures = 0;
    const auto expect = [&](bool ok, const char *what) {
        std::fprintf(stderr, "mapbench self-test: %s: %s\n", what,
                     ok ? "ok" : "FAILED");
        failures += ok ? 0 : 1;
    };
    const Workload workload = findWorkload("short-2mbp", true);
    const core::SegramConfig config = cliConfig(workload);
    const auto reference = core::PreprocessedReference::load(
        data + "/ref.segram");
    core::ShardedBatchConfig batch_config;
    batch_config.threads = kThreads;
    const core::ShardedBatchMapper mapper(reference, config, batch_config);
    Tracer off(false);
    const Trial trial = runTrial(reference, mapper, data + "/reads.fq",
                                 kRequestReads, off);
    const std::string &paf = trial.paf;
    const size_t first_end = paf.find('\n');
    expect(!paf.empty() && first_end != std::string::npos,
           "tiny workload maps reads");
    if (failures != 0)
        return 1;

    Checks clean;
    parsePaf(paf, "PAF", clean);
    expect(clean.ok(), "valid PAF parses");
    std::string corrupt = paf;
    corrupt.replace(corrupt.find('\t'), 1, " ");
    Checks parse;
    parsePaf(corrupt, "PAF", parse);
    expect(!parse.ok(), "corrupted PAF line is rejected");

    Checks single;
    writeFile(data + "/check.bench.paf",
              checkSingleThread(reference, config, data + "/check.fq",
                                kRequestReads, paf, single));
    expect(single.ok(), "1-thread PAF matches the multi-thread PAF");
    std::string altered = paf;
    altered[first_end - 1] = altered[first_end - 1] == 'M' ? 'X' : 'M';
    Checks mismatch;
    checkSingleThread(reference, config, data + "/check.fq",
                      kRequestReads, altered, mismatch);
    expect(!mismatch.ok(), "differing multi-thread PAF is rejected");

    std::vector<std::vector<serve::ReadRecord>> pool;
    std::vector<std::string> expected;
    requestPool(readRecords(data + "/reads.fq", SIZE_MAX),
                pafLinesByQuery(paf), pool, expected);
    expected[1] += "extra\tline\n";
    const ServeRig rig(data + "/ref.segram", data + "/s.sock", config);
    const Phase phase = runPhase(rig, pool, expected, 0.0, off, -1);
    bool others_ok = true;
    bool flagged = false;
    for (const auto &outcome : phase.outcomes) {
        if (outcome.request == 1)
            flagged = !outcome.ok && outcome.payloadDiffers;
        else
            others_ok = others_ok && outcome.ok;
    }
    expect(phase.outcomes.size() >= 3 && others_ok,
           "serve payloads match the offline PAF");
    expect(flagged, "mismatched serve payload is rejected");
    return failures == 0 ? 0 : 1;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    SEGRAM_CHECK(argc >= 2, "usage: mapbench gen|run|self-test [flags]");
    options.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            options.tiny = true;
            continue;
        }
        SEGRAM_CHECK(i + 1 < argc, flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--data")
            options.data = value;
        else
            throw InputError("unknown flag " + flag);
    }
    SEGRAM_CHECK(!options.data.empty(), "--data is required");
    return options;
}

} // namespace
} // namespace mapbench

int
main(int argc, char **argv)
{
    using namespace mapbench;
    try {
        const Options options = parseOptions(argc, argv);
        if (options.mode == "gen") {
            generate(findWorkload(options.workload, options.tiny),
                     options.seed, options.data);
            return 0;
        }
        if (options.mode == "self-test")
            return selfTest(options.data);
        SEGRAM_CHECK(options.mode == "run", "unknown mode " + options.mode);
        Run run(options);
        runOffline(run);
        if (run.options.trace) {
            run.tracer.write(run.path("trace.jsonl"));
        } else {
            run.metrics.set("peak_rss_mib", peakRssMib(), "MiB");
            run.metrics.set("ok_frac",
                            1.0 - static_cast<double>(run.failed) /
                                      static_cast<double>(std::max<uint64_t>(
                                          run.attempted, 1)),
                            "ratio");
        }
        printResult(run);
        return run.checks.ok() ? 0 : 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "mapbench: %s\n", error.what());
        return 1;
    }
}
