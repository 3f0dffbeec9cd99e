/**
 * @file
 * Shared declarations of the mapping benchmark: the workload table,
 * the span tracer, the mapper configuration `segram map` uses, and the
 * small helpers (clocks, CPU time, quantiles) every part measures with.
 *
 * The benchmark links the library and measures each layer from
 * outside, by timing calls into its public functions; it changes
 * nothing in the library.
 */

#ifndef MAPBENCH_SRC_BENCH_H
#define MAPBENCH_SRC_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/io/paf.h"

namespace mapbench
{

using namespace segram;

/** Reads per FASTQ batch: `segram map`'s default `--batch`. */
inline constexpr size_t kCliBatch = 256;
/**
 * Mapping threads of every workload. Half of a 4-vCPU host: with a
 * thread per vCPU, wall time follows whichever vCPU the host is
 * slowing down at each batch barrier, not the program.
 */
inline constexpr int kThreads = 2;
/** Reads per serve MAP request. */
inline constexpr size_t kRequestReads = 16;

/**
 * One workload: the inputs `gen` builds from a seed and the way `run`
 * drives them. Read counts are sized so one mapping trial lasts a few
 * seconds at 2 threads on an AVX2 host.
 */
struct Workload
{
    std::string name;
    uint32_t chromosomes = 1;
    uint64_t genomeLen = 0;
    /** Negative: the simulator's default. */
    double repeatFraction = -1.0;
    double tandemFraction = -1.0;
    uint32_t longReads = 0;  ///< PacBio-5% 1 kbp reads
    uint32_t shortReads = 0; ///< Illumina-1% 150 bp reads
    uint32_t maxOcc = 0;     ///< `segram map --max-occ`; 0 = uncapped
    /** Leading reads mapped again at 1 thread and by the CLI. */
    size_t checkReads = 0;
    /** Leading reads of the 1-thread per-layer replay. */
    size_t replayReads = 0;
};

/** Looks a workload up by name, scaled down under @p tiny. */
Workload findWorkload(const std::string &name, bool tiny);

/** Writes @p workload's inputs for @p seed into @p dir (gen.cc). */
void generate(const Workload &workload, uint64_t seed,
              const std::string &dir);

/** The SegramConfig `segram map` builds for its default flags. */
core::SegramConfig cliConfig(const Workload &workload);

/** Flags that make `segram map` run @p workload (besides files). */
std::vector<std::string> cliFlags(const Workload &workload);

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Lifetime peak resident set size, MiB. */
double peakRssMib();

/** Quantile by linear interpolation; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * In-memory span recorder. A span has a name, start, end, its parent
 * span and the workload read it belongs to (-1: none). Spans are kept
 * until the run ends and written out then; a disabled tracer records
 * nothing and costs one branch per call.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int parent;
        int64_t read;
    };

    explicit Tracer(bool enabled);

    /** @return The new span's id, or -1 when disabled. */
    int open(const char *name, int parent = -1, int64_t read = -1);
    void close(int id);
    /** Records an already-finished span. */
    int add(const char *name, Clock::time_point start,
            Clock::time_point end, int parent = -1, int64_t read = -1);

    /** Summed duration of the direct children of @p parent named
     *  @p name (every span of that name when @p parent is -1). */
    double childSeconds(int parent, std::string_view name) const;
    /** Span duration minus the time its direct children cover. */
    double selfSeconds(int id) const;

    /** Writes one JSON object per span. */
    void write(const std::string &path) const;

  private:
    int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, int parent = -1,
              int64_t read = -1)
        : tracer_(tracer), id_(tracer.open(name, parent, read))
    {
    }
    ~SpanScope() { tracer_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/** Metric name -> (value, unit), printed in insertion-independent
 *  (sorted) order. */
struct Metrics
{
    std::map<std::string, std::pair<double, std::string>> values;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values[name] = {value, unit};
    }
};

/** Outcome of the output checks; any failure makes the run fail. */
struct Checks
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
    bool ok() const { return failures.empty(); }
};

/** Formats one mapped result the way `segram map` does. */
io::PafRecord pafRecord(const core::PreprocessedReference &reference,
                        const std::string &name, const std::string &seq,
                        const core::MultiMapResult &result);

/**
 * Checks that every line of @p paf parses through io::parsePafLine;
 * @return the parsed records. A failure names the first bad line.
 */
std::vector<io::PafRecord> parsePaf(const std::string &paf,
                                    const std::string &what,
                                    Checks &checks);

/** True when @p prefix is @p full's first bytes. */
bool isPrefix(const std::string &prefix, const std::string &full);

/** JSON string literal of @p text. */
std::string jsonString(std::string_view text);
/** @p value with 17 significant digits (round-trips exactly). */
std::string jsonNumber(double value);

} // namespace mapbench

#endif // MAPBENCH_SRC_BENCH_H
