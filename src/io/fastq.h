/**
 * @file
 * FASTQ writing: sequencing reads ship as FASTQ (sequence + per-base
 * quality), and `segram simulate` emits its reads in it. Reading goes
 * through the streaming io::FastxReader (fastx.h), which parses both
 * FASTA and FASTQ.
 */

#ifndef SEGRAM_SRC_IO_FASTQ_H
#define SEGRAM_SRC_IO_FASTQ_H

#include <iosfwd>
#include <string>
#include <vector>

namespace segram::io
{

/** One FASTQ record. */
struct FastqRecord
{
    std::string name;
    std::string seq;  ///< sequence, written as given
    std::string qual; ///< Phred+33 string, same length as seq

    bool operator==(const FastqRecord &) const = default;
};

/** Writes records as FASTQ. */
void writeFastq(std::ostream &out, const std::vector<FastqRecord> &records);

/** Writes records to a file. @throws InputError if not writable. */
void writeFastqFile(const std::string &path,
                    const std::vector<FastqRecord> &records);

} // namespace segram::io

#endif // SEGRAM_SRC_IO_FASTQ_H
