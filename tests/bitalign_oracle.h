/**
 * @file
 * Per-window BitAlign oracle for the tests: Algorithm 1 exactly as the
 * file comment of src/align/bitalign_core.h writes it — one node at a
 * time, one term at a time (I, then D, S and M per successor), on the
 * scalar bitvector.h free functions, over contiguous per-window R
 * storage.
 *
 * It shares nothing with the production kernel (align::alignWindowBatch
 * and the single-window entry points built on it) except the best-hit
 * scan and the traceback walk of bitalign_walk.h, so batched R bits
 * are checked against an independent computation of the recurrence:
 * no lane-major layout, no fused ops, no single-successor fast sweep,
 * no per-lane fixup.
 */

#ifndef SEGRAM_TESTS_BITALIGN_ORACLE_H
#define SEGRAM_TESTS_BITALIGN_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/align/bitalign_core.h"
#include "src/align/bitalign_walk.h"
#include "src/graph/linearize.h"
#include "src/util/bitvector.h"

namespace segram::align
{

/** Contiguous per-window R store plus the probes bitalign_walk.h uses. */
class OracleWindow
{
  public:
    OracleWindow(const graph::LinearizedGraphView &text,
                 std::string_view pattern, int k)
        : pm_(PatternBitmasks::build(pattern)), n_(text.size()), k_(k),
          nw_(pm_.nwords),
          r_(static_cast<size_t>(n_) * (k + 1) * pm_.nwords),
          virtual_(static_cast<size_t>(k + 1) * pm_.nwords)
    {
        using namespace bitops;
        // Virtual sink successor: bits [0, min(d, m)) clear at level d.
        for (int d = 0; d <= k_; ++d) {
            fillOnes(virtualR(d), nw_);
            for (int b = 0; b < std::min(d, pm_.m); ++b)
                clearBit(virtualR(d), b);
        }
        std::vector<uint64_t> term(static_cast<size_t>(nw_));
        for (int i = n_ - 1; i >= 0; --i) {
            const uint64_t *pm = pm_.masks[text.code(i)].data();
            const auto succs = text.successorDeltas(i);
            const size_t nsucc = std::max<size_t>(succs.size(), 1);
            const auto succ = [&](size_t s, int d) -> const uint64_t * {
                return succs.empty() ? virtualR(d) : r(i + succs[s], d);
            };
            // R[i][0] = AND over j of ((R[j][0] << 1) | PM).
            fillOnes(r(i, 0), nw_);
            for (size_t s = 0; s < nsucc; ++s) {
                shiftLeftOneOr(term.data(), succ(s, 0), pm, nw_);
                andInPlace(r(i, 0), term.data(), nw_);
            }
            // R[i][d] = I & AND over j of (D & S & M).
            for (int d = 1; d <= k_; ++d) {
                uint64_t *rd = r(i, d);
                shiftLeftOne(rd, r(i, d - 1), nw_); // I
                for (size_t s = 0; s < nsucc; ++s) {
                    andInPlace(rd, succ(s, d - 1), nw_); // D
                    shiftLeftOne(term.data(), succ(s, d - 1), nw_);
                    andInPlace(rd, term.data(), nw_); // S
                    shiftLeftOneOr(term.data(), succ(s, d), pm, nw_);
                    andInPlace(rd, term.data(), nw_); // M
                }
            }
        }
    }

    const PatternBitmasks &pattern() const { return pm_; }

    bool
    msbClear(int i, int d) const
    {
        return !bitops::testBit(r(i, d), pm_.m - 1);
    }
    bool
    rBitClear(int i, int d, int b) const
    {
        return !bitops::testBit(r(i, d), b);
    }
    bool
    virtualBitClear(int d, int b) const
    {
        return !bitops::testBit(virtualR(d), b);
    }

  private:
    uint64_t *
    r(int i, int d)
    {
        return r_.data() + (static_cast<size_t>(i) * (k_ + 1) + d) * nw_;
    }
    const uint64_t *
    r(int i, int d) const
    {
        return r_.data() + (static_cast<size_t>(i) * (k_ + 1) + d) * nw_;
    }
    uint64_t *
    virtualR(int d)
    {
        return virtual_.data() + static_cast<size_t>(d) * nw_;
    }
    const uint64_t *
    virtualR(int d) const
    {
        return virtual_.data() + static_cast<size_t>(d) * nw_;
    }

    PatternBitmasks pm_;
    int n_;
    int k_;
    int nw_;
    std::vector<uint64_t> r_;
    std::vector<uint64_t> virtual_;
};

/**
 * The oracle's alignWindow: the same result contract (found, minimal
 * distance, leftmost start, traceback CIGAR and text positions).
 * @p with_traceback false stops after the best-hit scan, like
 * alignWindowDistanceOnly.
 */
inline WindowResult
oracleAlignWindow(const graph::LinearizedGraphView &text,
                  std::string_view pattern, int k,
                  AlignMode mode = AlignMode::SemiGlobal,
                  bool with_traceback = true)
{
    const OracleWindow window(text, pattern, k);
    WindowResult result;
    int start = 0;
    const int dist =
        detail::findBestStart(window, text.size(), k, mode, &start);
    if (dist < 0)
        return result;
    result.found = true;
    result.startPos = start;
    result.editDistance = dist;
    if (with_traceback) {
        detail::tracebackWalk(window, text, window.pattern(), start, dist,
                              &result);
        result.editDistance = static_cast<int>(result.cigar.editDistance());
    }
    return result;
}

} // namespace segram::align

#endif // SEGRAM_TESTS_BITALIGN_ORACLE_H
