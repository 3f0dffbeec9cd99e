#include "src/align/bitalign.h"

#include <algorithm>

#include "src/util/check.h"

namespace segram::align
{

namespace
{

void
validateConfig(const BitAlignConfig &config)
{
    SEGRAM_CHECK(config.windowLen >= 2, "windowLen must be >= 2");
    SEGRAM_CHECK(config.overlap >= 0 && config.overlap < config.windowLen,
                 "overlap must be in [0, windowLen)");
    SEGRAM_CHECK(config.windowEditCap >= 0, "windowEditCap must be >= 0");
    SEGRAM_CHECK(config.textSlack >= 0, "textSlack must be >= 0");
    SEGRAM_CHECK(config.firstWindowExtraText >= 0,
                 "firstWindowExtraText must be >= 0");
}

} // namespace

int
numWindows(int read_len, const BitAlignConfig &config)
{
    validateConfig(config);
    if (read_len <= config.windowLen)
        return 1;
    const int stride = config.windowLen - config.overlap;
    return 1 + (read_len - config.windowLen + stride - 1) / stride;
}

GraphAlignment
alignWindowed(const graph::LinearizedGraphView &text, std::string_view read,
              const BitAlignConfig &config)
{
    AlignScratch scratch;
    GraphAlignment out;
    alignWindowed(text, read, config, scratch, out);
    return out;
}

void
alignWindowed(const graph::LinearizedGraphView &text, std::string_view read,
              const BitAlignConfig &config, AlignScratch &scratch,
              GraphAlignment &out)
{
    // The plain entry point is "drive one stream to completion": the
    // same state machine the batched scheduler interleaves, so both
    // paths commit and anchor identically by construction.
    WindowedAlignStream stream;
    stream.begin(text, read, config, &out);
    while (!stream.done()) {
        const WindowedAlignStream::Request &next = stream.request();
        alignWindow(next.window, next.pattern, next.k, next.mode,
                    scratch, scratch.window);
        stream.consume(scratch.window);
    }
}

void
WindowedAlignStream::begin(const graph::LinearizedGraphView &text,
                           std::string_view read,
                           const BitAlignConfig &config,
                           GraphAlignment *out)
{
    validateConfig(config);
    text_ = text;
    read_ = read;
    config_ = config;
    out_ = out;
    m_ = static_cast<int>(read.size());
    n_ = text.size();
    SEGRAM_CHECK(m_ > 0, "read must be non-empty");

    out_->clear(); // in-place reset, capacity retained across calls

    pat_pos_ = 0;
    text_pos_ = 0;
    first_ = true;
    done_ = false;
    single_ = m_ <= config_.windowLen;
    if (single_) {
        // One free-start window over the whole text.
        request_ = {text_, read_, config_.windowEditCap,
                    AlignMode::SemiGlobal};
        return;
    }
    issue();
}

void
WindowedAlignStream::issue()
{
    const int chunk = std::min(config_.windowLen, m_ - pat_pos_);
    const int slack = config_.textSlack +
                      (first_ ? config_.firstWindowExtraText : 0);
    const int text_len = std::min(n_ - text_pos_, chunk + slack);
    if (text_len <= 0) {
        out_->clear(); // reference exhausted before the read
        done_ = true;
        return;
    }
    request_ = {text_.window(text_pos_, text_len),
                read_.substr(pat_pos_, chunk), config_.windowEditCap,
                first_ ? AlignMode::SemiGlobal : AlignMode::Anchored};
}

void
WindowedAlignStream::consume(const WindowResult &result)
{
    SEGRAM_DCHECK(!done_, "stream already consumed its last window");
    if (single_) {
        done_ = true;
        if (!result.found)
            return;
        out_->found = true;
        out_->editDistance = result.editDistance;
        out_->textStart = result.startPos;
        out_->linearStart = text_.linearStart() + result.startPos;
        out_->cigar = result.cigar;
        return;
    }

    if (!result.found) {
        out_->clear(); // window exceeded the per-window edit cap
        done_ = true;
        return;
    }

    const int chunk = std::min(config_.windowLen, m_ - pat_pos_);
    const bool last = pat_pos_ + chunk >= m_;

    if (first_) {
        out_->textStart = text_pos_ + result.startPos;
        out_->linearStart = text_.linearStart() + out_->textStart;
        first_ = false;
    }

    // Commit the whole final window; otherwise the first
    // chunk-overlap read chars. Trailing deletions at the cut stay
    // uncommitted (re-decided by the next window).
    const int commit_len = last ? chunk : chunk - config_.overlap;
    SEGRAM_DCHECK(commit_len > 0, "window must commit at least one base");
    int read_consumed = 0;
    size_t text_idx = 0; // consumed entries of result.textPositions
    for (const auto &run : result.cigar.runs()) {
        if (read_consumed >= commit_len)
            break;
        for (uint32_t rep = 0; rep < run.len; ++rep) {
            if (read_consumed >= commit_len)
                break;
            out_->cigar.push(run.op);
            if (run.op != EditOp::Insertion)
                ++text_idx;
            if (run.op != EditOp::Deletion)
                ++read_consumed;
        }
    }
    SEGRAM_DCHECK(read_consumed == commit_len,
                  "committed CIGAR must spend the committed bases");

    if (last) {
        out_->found = true;
        out_->editDistance =
            static_cast<int>(out_->cigar.editDistance());
        done_ = true;
        return;
    }
    pat_pos_ += commit_len;
    // Anchor the next window at the graph position where the
    // uncommitted alignment continues. This honors hops across the
    // cut: the continuation may sit several positions ahead of the
    // last committed character.
    int anchor_rel;
    if (text_idx < result.textPositions.size()) {
        anchor_rel = result.textPositions[text_idx];
    } else if (text_idx > 0) {
        // Uncommitted suffix was all insertions: continue right
        // after the last consumed character.
        anchor_rel = result.textPositions[text_idx - 1] + 1;
    } else {
        anchor_rel = result.startPos; // nothing consumed at all
    }
    text_pos_ += anchor_rel;
    if (text_pos_ >= n_) {
        out_->clear();
        done_ = true;
        return;
    }
    issue();
}

} // namespace segram::align
