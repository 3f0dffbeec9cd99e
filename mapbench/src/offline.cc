#include "mapbench/src/offline.h"

#include <sstream>

#include "src/io/fastx.h"

namespace mapbench
{

Trial
runTrial(const core::PreprocessedReference &reference,
         const core::ShardedBatchMapper &mapper,
         const std::string &reads_path, size_t batch, Tracer &tracer)
{
    Trial trial;
    std::ostringstream sink;
    io::PafWriter paf(sink);
    std::vector<io::FastxRecord> records;
    std::vector<std::string_view> seqs;
    const double cpu_start = processCpuSeconds();
    const auto start = Clock::now();
    const SpanScope trial_span(tracer, "trial");
    trial.span = trial_span.id();
    io::FastxReader reader(reads_path);
    while (true) {
        {
            const SpanScope span(tracer, "fastx", trial.span);
            records.clear();
            if (reader.nextBatch(records, batch) == 0)
                break;
        }
        seqs.clear();
        for (const auto &record : records) {
            seqs.push_back(record.seq);
            trial.fastxBytes += record.seq.size() + record.qual.size();
        }
        std::vector<core::MultiMapResult> results;
        {
            const SpanScope span(tracer, "map_batch", trial.span);
            const double cpu = processCpuSeconds();
            const auto map_start = Clock::now();
            try {
                results = mapper.mapBatch(
                    std::span<const std::string_view>(seqs), &trial.stats);
            } catch (const std::exception &error) {
                std::fprintf(stderr, "mapbench: batch failed: %s\n",
                             error.what());
                trial.failedReads += records.size();
            }
            trial.mapBatchSec += secondsBetween(map_start, Clock::now());
            trial.mapBatchCpuSec += processCpuSeconds() - cpu;
        }
        {
            const SpanScope span(tracer, "paf", trial.span);
            for (size_t i = 0; i < results.size(); ++i)
                if (results[i].mapped)
                    paf.write(pafRecord(reference, records[i].name,
                                        records[i].seq, results[i]));
        }
        trial.reads += records.size();
    }
    paf.flush();
    trial.wallSec = secondsBetween(start, Clock::now());
    trial.cpuSec = processCpuSeconds() - cpu_start;
    trial.paf = std::move(sink).str();
    return trial;
}

std::unordered_map<std::string, std::string>
pafLinesByQuery(const std::string &paf)
{
    std::unordered_map<std::string, std::string> lines;
    for (size_t pos = 0; pos < paf.size();) {
        size_t end = paf.find('\n', pos);
        end = end == std::string::npos ? paf.size() : end + 1;
        const std::string line = paf.substr(pos, end - pos);
        lines[line.substr(0, line.find('\t'))] += line;
        pos = end;
    }
    return lines;
}

std::string
checkSingleThread(const core::PreprocessedReference &reference,
                  const core::SegramConfig &config,
                  const std::string &check_path, size_t batch,
                  const std::string &trial_paf, Checks &checks)
{
    core::ShardedBatchConfig one_thread;
    one_thread.threads = 1;
    const core::ShardedBatchMapper mapper(reference, config, one_thread);
    Tracer off(false);
    const Trial trial = runTrial(reference, mapper, check_path, batch, off);
    checks.expect(trial.failedReads == 0, "1-thread check trial failed");
    // The leading reads come first in the multi-thread PAF, and the line
    // after them must belong to a later read.
    const bool prefix = isPrefix(trial.paf, trial_paf);
    bool next_is_later = true;
    if (prefix && trial_paf.size() > trial.paf.size()) {
        io::FastxReader reader(check_path);
        io::FastxRecord record;
        const std::string next = trial_paf.substr(
            trial.paf.size(),
            trial_paf.find('\t', trial.paf.size()) - trial.paf.size());
        while (reader.next(record))
            next_is_later = next_is_later && record.name != next;
    }
    checks.expect(prefix && next_is_later,
                  "1-thread PAF differs from the multi-thread PAF");
    return trial.paf;
}

eval::AccuracyReport
evaluate(const std::vector<eval::TruthRecord> &truth, const std::string &paf,
         Checks &checks)
{
    const auto records = parsePaf(paf, "PAF", checks);
    const eval::AccuracyEvaluator evaluator(truth);
    return evaluator.evaluate("segram", records);
}

} // namespace mapbench
