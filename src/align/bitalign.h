/**
 * @file
 * BitAlign: the full sequence-to-graph aligner, combining the
 * single-window core (Algorithm 1) with the overlapping-window
 * divide-and-conquer scheme inherited from GenASM (paper Section 7):
 * "we divide the linearized subgraph and the query read into
 * overlapping windows and execute BitAlign for each window. After all
 * windows' traceback outputs are found, we merge them."
 *
 * The first window aligns with a free start (the candidate region
 * includes MinSeed's left extension); every later window is anchored at
 * the graph position where the previously *committed* alignment ended.
 * Only the first windowLen-overlap read characters of each window are
 * committed; the overlap tail is re-aligned by the next window, which
 * absorbs cut-point artifacts. The windowed result is a heuristic upper
 * bound on the exact distance (equal in the vast majority of cases;
 * quantified by bench_ablation_window).
 */

#ifndef SEGRAM_SRC_ALIGN_BITALIGN_H
#define SEGRAM_SRC_ALIGN_BITALIGN_H

#include <cstdint>
#include <string_view>

#include "src/align/bitalign_core.h"
#include "src/graph/linearize.h"
#include "src/util/cigar.h"

namespace segram::align
{

/**
 * Divide-and-conquer parameters (hardware: W = bits per PE). The
 * defaults mirror the paper's BitAlign configuration: W = 128 with a
 * stride of 80 (overlap 48), which is what makes a 10 kbp read take 125
 * windows (vs. GenASM's 250 windows at W = 64, stride 40).
 */
struct BitAlignConfig
{
    int windowLen = 128;  ///< read chars per window (BitAlign PE width)
    int overlap = 48;     ///< uncommitted tail re-aligned next window
    int windowEditCap = 32; ///< per-window edit threshold k
    /**
     * Extra graph characters given to each window beyond the read chunk
     * length, so deletions in the read do not starve the window of
     * reference sequence.
     */
    int textSlack = 32;

    /**
     * Additional graph characters for the *first* window only. The
     * alignment start within a MinSeed region is uncertain by up to
     * 2*E*a characters (a = the seed's minimizer offset in the read,
     * Fig. 9), so the free-start window must cover that span. The
     * mapper sets this per region; standalone callers whose text
     * begins at the alignment start can leave it 0.
     */
    int firstWindowExtraText = 0;
};

/** A complete alignment of a read against a linearized subgraph. */
struct GraphAlignment
{
    bool found = false;
    int editDistance = 0;
    /** Window position (within the linearized input) of the first
     *  consumed graph character. */
    int textStart = 0;
    /** Concatenated-genome coordinate of the first consumed char. */
    uint64_t linearStart = 0;
    Cigar cigar;

    /** Resets to the not-found state, keeping buffer capacity. */
    void
    clear()
    {
        found = false;
        editDistance = 0;
        textStart = 0;
        linearStart = 0;
        cigar.clear();
    }
};

/**
 * Aligns @p read against @p text with the divide-and-conquer windowing
 * scheme. Falls back to a single exact window when the read fits in
 * one window. Per-window slicing is zero-copy (views over the parent
 * linearization); this convenience overload still allocates a private
 * scratch per call.
 */
GraphAlignment alignWindowed(const graph::LinearizedGraphView &text,
                             std::string_view read,
                             const BitAlignConfig &config = {});

/**
 * Allocation-free variant: every window computes out of @p scratch and
 * the result lands in @p out (cleared first, storage reused). This is
 * the hot-path entry the mapper drives with its per-thread workspace.
 */
void alignWindowed(const graph::LinearizedGraphView &text,
                   std::string_view read, const BitAlignConfig &config,
                   AlignScratch &scratch, GraphAlignment &out);

/**
 * @return Number of windows the divide-and-conquer scheme uses for a
 *         read of @p read_len under @p config (the quantity the
 *         hardware cycle model multiplies by cycles-per-window).
 */
int numWindows(int read_len, const BitAlignConfig &config);

/**
 * The divide-and-conquer windowing loop of alignWindowed, inverted
 * into a resumable state machine: instead of computing each window
 * itself, the stream *requests* one window alignment at a time and is
 * fed the result back. Windows within one stream are sequential by
 * construction (each is anchored at the previous committed end), so
 * this inversion is what lets a scheduler interleave *independent*
 * streams — other candidate regions, the other strand, other reads —
 * and batch their current windows across SIMD lanes. alignWindowed is
 * itself implemented as "drive one stream to completion", so streamed
 * and plain results are identical by construction.
 *
 * Usage:
 *     stream.begin(text, read, config, &out);
 *     while (!stream.done()) {
 *         <align stream.request() by any means>
 *         stream.consume(window_result);
 *     }
 */
class WindowedAlignStream
{
  public:
    /** One window alignment the stream needs computed next. */
    struct Request
    {
        graph::LinearizedGraphView window; ///< reference-side slice
        std::string_view pattern;          ///< read chunk
        int k = 0;                         ///< per-window edit cap
        AlignMode mode = AlignMode::SemiGlobal;
    };

    /**
     * Starts a new alignment of @p read against @p text. @p out is
     * cleared and owned by the caller; it is complete once done()
     * turns true. @p text and @p read must stay valid for the
     * stream's lifetime (the requests view into them).
     */
    void begin(const graph::LinearizedGraphView &text,
               std::string_view read, const BitAlignConfig &config,
               GraphAlignment *out);

    /** @return True once the alignment finished (found or failed). */
    bool done() const { return done_; }

    /** @return The pending window request. Only valid while !done(). */
    const Request &request() const { return request_; }

    /**
     * Feeds back the WindowResult of the pending request (computed by
     * alignWindow or the lane-batched path — both are bit-identical),
     * committing its prefix and either issuing the next request or
     * finishing the alignment.
     */
    void consume(const WindowResult &result);

  private:
    /** Issues the request for the window at (pat_pos_, text_pos_). */
    void issue();

    graph::LinearizedGraphView text_;
    std::string_view read_;
    BitAlignConfig config_;
    GraphAlignment *out_ = nullptr;
    Request request_;
    int m_ = 0;          ///< read length
    int n_ = 0;          ///< text length
    int pat_pos_ = 0;    ///< first read char not yet committed
    int text_pos_ = 0;   ///< window start within the linearized input
    bool first_ = true;  ///< next window is the free-start window
    bool single_ = false; ///< whole read fits one window
    bool done_ = true;
};

} // namespace segram::align

#endif // SEGRAM_SRC_ALIGN_BITALIGN_H
