#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "mapbench/src/bench.h"
#include "src/util/check.h"

namespace mapbench
{

Workload
findWorkload(const std::string &name, bool tiny)
{
    // Why each workload exists is recorded in BENCHMARK.json and
    // mapbench/README.md. Read counts are whole CLI batches, sized so
    // one trial lasts ~3-8 s at 2 threads.
    std::vector<Workload> table(3);
    table[0].name = "long-2mbp";
    table[0].genomeLen = 2'000'000;
    table[0].longReads = 4 * kCliBatch;
    table[0].checkReads = 48;
    table[0].replayReads = 64;

    table[1].name = "short-2mbp";
    table[1].genomeLen = 2'000'000;
    table[1].shortReads = 80 * kCliBatch;
    table[1].checkReads = 1024;
    table[1].replayReads = 2048;

    table[2].name = "repeats-8chr";
    table[2].chromosomes = 8;
    table[2].genomeLen = 16'000'000;
    table[2].repeatFraction = 0.10;
    table[2].tandemFraction = 0.02;
    table[2].maxOcc = 16;
    table[2].longReads = kCliBatch;
    table[2].checkReads = 12;
    table[2].replayReads = 8;

    for (Workload workload : table) {
        if (workload.name != name)
            continue;
        if (tiny) {
            workload.genomeLen /= 40;
            workload.longReads = (workload.longReads + 19) / 20;
            workload.shortReads = (workload.shortReads + 19) / 20;
            workload.checkReads = std::min<size_t>(workload.checkReads, 16);
            workload.replayReads = std::min<size_t>(workload.replayReads, 4);
        }
        return workload;
    }
    throw InputError("unknown workload '" + name +
                     "' (long-2mbp, short-2mbp, repeats-8chr)");
}

core::SegramConfig
cliConfig(const Workload &workload)
{
    // Mirrors makeSegramConfig in tools/segram_cli.cc at its default
    // flags (E 0.10, early exit 1.5, both strands, no region cap). The
    // CLI-parity check in run.py fails if the two drift apart.
    const double error_rate = 0.10;
    core::SegramConfig config;
    config.minseed.errorRate = error_rate;
    config.minseed.maxOccurrences = workload.maxOcc;
    config.bitalign.windowEditCap =
        std::max(32, static_cast<int>(config.bitalign.windowLen *
                                      error_rate * 3));
    config.earlyExitFraction = 1.5;
    config.tryReverseComplement = true;
    config.maxRegions = 0;
    config.enableChainFilter = false;
    config.maxChains = 4;
    config.hopLimit = graph::kDefaultHopLimit;
    return config;
}

std::vector<std::string>
cliFlags(const Workload &workload)
{
    std::vector<std::string> flags = {"--threads",
                                      std::to_string(kThreads)};
    if (workload.maxOcc != 0) {
        flags.push_back("--max-occ");
        flags.push_back(std::to_string(workload.maxOcc));
    }
    return flags;
}

double
processCpuSeconds()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMib()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::open(const char *name, int parent, int64_t read)
{
    if (!enabled_)
        return -1;
    const int64_t now = nowNs();
    spans_.push_back({name, now, now, parent, read});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int id)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].endNs = nowNs();
}

int
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, int parent, int64_t read)
{
    if (!enabled_)
        return -1;
    const auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    };
    spans_.push_back({name, ns(start), ns(end), parent, read});
    return static_cast<int>(spans_.size() - 1);
}

double
Tracer::childSeconds(int parent, std::string_view name) const
{
    int64_t total = 0;
    for (const Span &span : spans_)
        if ((parent < 0 || span.parent == parent) && name == span.name)
            total += span.endNs - span.startNs;
    return static_cast<double>(total) * 1e-9;
}

double
Tracer::selfSeconds(int id) const
{
    if (id < 0)
        return 0.0;
    int64_t children = 0;
    for (const Span &span : spans_)
        if (span.parent == id)
            children += span.endNs - span.startNs;
    const Span &self = spans_[static_cast<size_t>(id)];
    return static_cast<double>(self.endNs - self.startNs - children) *
           1e-9;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    SEGRAM_CHECK(out.good(), "cannot write trace " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs
            << ",\"parent\":" << span.parent << ",\"read\":" << span.read
            << "}\n";
    }
    SEGRAM_CHECK(out.good(), "short write to trace " + path);
}

io::PafRecord
pafRecord(const core::PreprocessedReference &reference,
          const std::string &name, const std::string &seq,
          const core::MultiMapResult &result)
{
    uint64_t target_len = 0;
    for (const auto &chromosome : reference.chromosomes())
        if (chromosome.name == result.chromosome)
            target_len = chromosome.graph.totalSeqLen();
    return io::makePafRecord(name, seq.size(),
                             result.reverseComplemented ? '-' : '+',
                             result.chromosome, target_len,
                             result.linearStart, result.cigar);
}

std::vector<io::PafRecord>
parsePaf(const std::string &paf, const std::string &what, Checks &checks)
{
    std::vector<io::PafRecord> records;
    size_t line_no = 0;
    for (size_t pos = 0; pos < paf.size();) {
        size_t end = paf.find('\n', pos);
        if (end == std::string::npos)
            end = paf.size();
        ++line_no;
        try {
            records.push_back(io::parsePafLine(
                std::string_view(paf).substr(pos, end - pos)));
        } catch (const std::exception &error) {
            checks.expect(false, what + " line " +
                                     std::to_string(line_no) +
                                     " does not parse: " + error.what());
            return records;
        }
        pos = end + 1;
    }
    return records;
}

bool
isPrefix(const std::string &prefix, const std::string &full)
{
    return full.size() >= prefix.size() &&
           full.compare(0, prefix.size(), prefix) == 0;
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace mapbench
