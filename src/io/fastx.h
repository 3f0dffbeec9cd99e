/**
 * @file
 * Streaming FASTA/FASTQ ingestion behind one iterator.
 *
 * The batch pipeline (tools/segram_cli.cc, core::ShardedBatchMapper)
 * must not hold a whole read set in memory — a real sequencing run is
 * tens of gigabytes. FastxReader yields records incrementally from
 * either format (sniffed from the first non-blank character, or forced
 * by the caller), so the mapper can stream fixed-size batches end to
 * end. It is the only read parser: reads are only ever streamed, and
 * the eager readFasta/readFastaFile of fasta.cc (reference loading)
 * are thin collectors over a forced-FASTA reader.
 */

#ifndef SEGRAM_SRC_IO_FASTX_H
#define SEGRAM_SRC_IO_FASTX_H

#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace segram::io
{

/** Input format of a FastxReader. */
enum class FastxFormat
{
    Fasta,
    Fastq,
};

/** One record of either format. */
struct FastxRecord
{
    std::string name; ///< header text up to the first whitespace
    std::string seq;  ///< sequence, normalized to upper-case ACGT
    std::string qual; ///< Phred+33 string; empty for FASTA input

    bool operator==(const FastxRecord &) const = default;
};

/**
 * Incremental FASTA/FASTQ record reader.
 *
 * FASTA records may span multiple sequence lines; FASTQ records are
 * strict 4-line records. Malformed input throws InputError at the
 * offending record, with everything before it already delivered.
 */
class FastxReader
{
  public:
    /**
     * Opens @p path and sniffs the format from the first non-blank
     * character ('>' FASTA, '@' FASTQ).
     *
     * @throws InputError when the file is unreadable or neither
     *         format (an empty file is also rejected: there is no
     *         format to sniff).
     */
    explicit FastxReader(const std::string &path);

    /**
     * Reads from a caller-owned stream (which must outlive the
     * reader). @p force skips sniffing and parses strictly as the
     * given format — the eager readFasta wrapper uses this so a FASTQ
     * file fed to it still fails loudly. A sniffed empty stream
     * throws; a forced empty stream yields zero records.
     */
    explicit FastxReader(std::istream &in,
                         std::optional<FastxFormat> force = std::nullopt);

    FastxFormat format() const { return format_; }

    /**
     * Fetches the next record into @p record.
     *
     * @return False at clean end of input (record is untouched).
     * @throws InputError on malformed input.
     */
    bool next(FastxRecord &record);

    /**
     * Appends up to @p max_records records to @p batch (which is NOT
     * cleared, so a caller can accumulate).
     *
     * @return Number of records appended; less than @p max_records
     *         only at end of input.
     */
    size_t nextBatch(std::vector<FastxRecord> &batch, size_t max_records);

  private:
    void sniffFormat(const std::string &what);
    bool getlineTrim(std::string &line);
    bool nextFasta(FastxRecord &record);
    bool nextFastq(FastxRecord &record);

    std::ifstream file_;  ///< backing storage for the path ctor
    std::istream *in_;    ///< the stream actually read
    FastxFormat format_ = FastxFormat::Fasta;
    std::string pending_; ///< lookahead line (a FASTA '>' header)
    bool havePending_ = false;
    size_t lineNo_ = 0;   ///< 1-based, for error messages
};

} // namespace segram::io

#endif // SEGRAM_SRC_IO_FASTX_H
