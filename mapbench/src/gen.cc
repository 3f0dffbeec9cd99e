/**
 * @file
 * `mapbench gen`: builds a workload's inputs — reference FASTA + VCF,
 * the `.segram` pack `segram index` would write, the reads as FASTQ
 * (their sequencing errors drawn from --seed), the truth sidecar
 * `segram eval` reads, and the leading reads the parity checks map
 * again. It runs in its own
 * process so that the measured process sees only the generated files
 * (and its peak RSS is the mapper's, not the simulator's).
 */

#include <fstream>
#include <string>
#include <vector>

#include "mapbench/src/bench.h"
#include "src/eval/accuracy.h"
#include "src/graph/graph_builder.h"
#include "src/graph/variants.h"
#include "src/io/vcf.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/rng.h"

namespace mapbench
{

namespace
{

struct Read
{
    std::string name;
    std::string seq;
};

void
writeFasta(const std::string &path,
           const std::vector<sim::ChromosomeDataset> &dataset)
{
    std::ofstream out(path);
    for (const auto &entry : dataset) {
        out << '>' << entry.name << '\n';
        for (size_t i = 0; i < entry.reference.size(); i += 80)
            out << std::string_view(entry.reference).substr(i, 80) << '\n';
    }
    SEGRAM_CHECK(out.good(), "cannot write " + path);
}

void
writeFastq(const std::string &path, const std::vector<Read> &reads,
           size_t count)
{
    std::ofstream out(path);
    for (size_t i = 0; i < count && i < reads.size(); ++i)
        out << '@' << reads[i].name << '\n'
            << reads[i].seq << "\n+\n"
            << std::string(reads[i].seq.size(), 'I') << '\n';
    SEGRAM_CHECK(out.good(), "cannot write " + path);
}

/**
 * The reference and donor: `segram simulate`'s generator. It is seeded
 * by a constant, not by --seed: like a real reference genome it stays
 * fixed while --seed draws the reads. Genome to genome, the repeat
 * copy numbers move minimizers across the frequency filter and change
 * the seeds per read by up to ~2x, which would drown every change a
 * run is meant to show.
 */
std::vector<sim::ChromosomeDataset>
simulateGenome(const Workload &workload)
{
    constexpr uint64_t seed = 1234; // `segram simulate`'s seed
    sim::GenomeConfig genome;
    if (workload.repeatFraction >= 0.0)
        genome.repeatFraction = workload.repeatFraction;
    if (workload.tandemFraction >= 0.0)
        genome.tandemFraction = workload.tandemFraction;
    if (workload.chromosomes > 1) {
        sim::MultiDatasetConfig config;
        config.genome.numChromosomes = workload.chromosomes;
        config.genome.totalLength = workload.genomeLen;
        config.genome.repeats = genome;
        config.seed = seed;
        return sim::makeMultiDataset(config);
    }
    Rng rng(seed);
    genome.length = workload.genomeLen;
    sim::ChromosomeDataset entry;
    entry.name = "chr1";
    entry.reference = sim::simulateGenome(genome, rng);
    entry.variants =
        sim::simulateVariants(entry.reference, sim::VariantConfig{}, rng);
    entry.graph = graph::buildGraph(entry.reference, entry.variants);
    entry.donor = sim::DonorGenome(entry.reference, entry.variants,
                                   entry.graph, 0.5, rng);
    std::vector<sim::ChromosomeDataset> dataset;
    dataset.push_back(std::move(entry));
    return dataset;
}

/**
 * One read of `segram simulate`'s model (src/sim/read_sim.cc): @p len
 * donor bases from @p start with the errors of @p profile drawn from
 * @p rng, reverse-complemented when @p minus.
 */
sim::SimRead
sampleRead(const sim::DonorGenome &donor, uint64_t start, bool minus,
           uint32_t len, const sim::ErrorProfile &profile, Rng &rng)
{
    const std::string &donor_seq = donor.seq();
    sim::SimRead read;
    read.donorStart = start;
    read.truthLinearStart = donor.toLinear(start);
    uint64_t pos = start;
    while (read.seq.size() < len && pos < donor_seq.size()) {
        if (!rng.nextBool(profile.errorRate)) {
            read.seq.push_back(donor_seq[pos++]);
            continue;
        }
        ++read.plantedErrors;
        const double which = rng.nextDouble();
        if (which < profile.subFraction) {
            char base = rng.nextBase();
            while (base == donor_seq[pos])
                base = rng.nextBase();
            read.seq.push_back(base);
            ++pos;
        } else if (which < profile.subFraction + profile.insFraction) {
            read.seq.push_back(rng.nextBase());
        } else {
            ++pos; // deletion: skip a donor base
        }
    }
    SEGRAM_CHECK(read.seq.size() == len, "read ran past the donor end");
    if (minus) {
        read.seq = reverseComplement(read.seq);
        read.reverseComplemented = true;
    }
    return read;
}

/**
 * Samples @p count reads of one profile, per chromosome in proportion
 * to its length (chr1 takes the remainder), a quarter from the minus
 * strand — the `segram simulate` recipe. Where the reads start and
 * which strand they come from is fixed per workload; @p rng (seeded by
 * --seed) draws their sequencing errors. A read's mapping cost is set
 * mostly by where it lands: the ~10% of reads that overlap a repeat
 * cost 100-1000x a unique one, so a fresh random layout per seed
 * would swing the workload's cost by tens of percent.
 */
void
simulateReads(const std::vector<sim::ChromosomeDataset> &dataset,
              bool long_reads, uint32_t count, Rng &rng,
              std::vector<Read> &reads,
              std::vector<eval::TruthRecord> &truth)
{
    const uint32_t len = long_reads ? 1000 : 150;
    const sim::ErrorProfile profile =
        long_reads ? sim::ErrorProfile::pacbio(0.05)
                   : sim::ErrorProfile::illumina(0.01);
    const std::string label = sim::profileLabel(profile);
    Rng layout(long_reads ? 0x10a6ULL : 0x5407ULL);
    uint64_t total = 0;
    for (const auto &entry : dataset)
        total += entry.reference.size();
    std::vector<uint32_t> counts(dataset.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < dataset.size(); ++c) {
        counts[c] = static_cast<uint32_t>(
            uint64_t{count} * dataset[c].reference.size() / total);
        assigned += counts[c];
    }
    counts[0] = count - assigned;
    for (size_t c = 0; c < dataset.size(); ++c) {
        const sim::DonorGenome &donor = dataset[c].donor;
        // simulateReads' margin: deletions cannot run past the end.
        const auto margin =
            static_cast<uint64_t>(len * (1.0 + profile.errorRate)) + 16;
        SEGRAM_CHECK(donor.seq().size() >= margin, "chromosome too short");
        for (uint32_t r = 0; r < counts[c]; ++r) {
            const uint64_t start =
                layout.nextBelow(donor.seq().size() - margin + 1);
            const bool minus = layout.nextBool(0.25);
            sim::SimRead read =
                sampleRead(donor, start, minus, len, profile, rng);
            const std::string name = "read" + std::to_string(reads.size()) +
                                     "_truth" +
                                     std::to_string(read.truthLinearStart);
            truth.push_back({name, dataset[c].name, read.donorStart,
                             read.truthLinearStart, minus ? '-' : '+', len,
                             read.plantedErrors, label});
            reads.push_back({name, std::move(read.seq)});
        }
    }
}

} // namespace

void
generate(const Workload &workload, uint64_t seed, const std::string &dir)
{
    const auto dataset = simulateGenome(workload);
    writeFasta(dir + "/ref.fa", dataset);
    std::vector<io::VcfRecord> vcf;
    for (const auto &entry : dataset)
        for (const auto &variant : entry.variants)
            if (variant.pos != 0) // position-0 indels cannot be padded
                vcf.push_back(graph::toVcfRecord(variant, entry.name,
                                                 entry.reference));
    io::writeVcfFile(dir + "/ref.vcf", vcf);

    // `segram index` defaults: 2^16 first-level buckets.
    index::IndexConfig index_config;
    index_config.bucketBits = 16;
    core::PreprocessedReference::buildFromFiles(
        dir + "/ref.fa", dir + "/ref.vcf", index_config)
        .save(dir + "/ref.segram");

    Rng rng(seed ^ 0x5eedbe7c4a11ULL);
    std::vector<Read> reads;
    std::vector<eval::TruthRecord> truth;
    simulateReads(dataset, false, workload.shortReads, rng, reads, truth);
    simulateReads(dataset, true, workload.longReads, rng, reads, truth);
    writeFastq(dir + "/reads.fq", reads, reads.size());
    writeFastq(dir + "/check.fq", reads, workload.checkReads);
    eval::writeTruthFile(dir + "/truth.tsv", truth);
}

} // namespace mapbench
