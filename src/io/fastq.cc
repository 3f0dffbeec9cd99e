#include "src/io/fastq.h"

#include <fstream>
#include <ostream>

#include "src/util/check.h"

namespace segram::io
{

void
writeFastq(std::ostream &out, const std::vector<FastqRecord> &records)
{
    for (const auto &record : records) {
        out << '@' << record.name << '\n'
            << record.seq << '\n'
            << "+\n"
            << record.qual << '\n';
    }
}

void
writeFastqFile(const std::string &path,
               const std::vector<FastqRecord> &records)
{
    std::ofstream out(path);
    SEGRAM_CHECK(out.good(), "cannot open FASTQ file for write: " + path);
    writeFastq(out, records);
}

} // namespace segram::io
