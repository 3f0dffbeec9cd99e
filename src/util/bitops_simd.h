/**
 * @file
 * Vectorized kernel layer for the BitAlign word primitives.
 *
 * The BitAlign recurrence (Algorithm 1) is a stream of word-wise
 * shift/AND/OR sweeps over multi-word bitvectors. In hardware every
 * R[d] word updates in parallel in the PE array; in software the same
 * parallelism maps onto SIMD lanes. This layer provides:
 *
 *  - KernelOps: a function table of two kinds of ops. The lane-batched
 *    ops (batchShiftLeftOneOr, batchFusedCell, batchColumn) advance
 *    kBatchLanes independent windows per sweep — the fast path of
 *    align::alignWindowBatch, the one BitAlign kernel. The
 *    single-vector ops (shiftLeftOneOr and the fused combo ops
 *    shiftLeftOneOrAnd, andShiftAnd, fusedCell, which collapse the
 *    M/S/D term sequence of one recurrence cell into a single pass
 *    over the words) serve GenASM and the batch kernel's per-lane
 *    fixup of hop fan-outs.
 *  - scalarKernels(): the portable reference implementation, always
 *    available, bit-identical to every other backend by construction
 *    (all ops are pure integer bit manipulation).
 *  - simdKernels(): the best vectorized table this build + CPU supports
 *    (AVX2 on x86-64 via runtime CPUID, NEON on aarch64), or nullptr.
 *  - kernels(): the active table, selected once at startup. The
 *    SEGRAM_DISABLE_SIMD compile definition or a non-zero
 *    SEGRAM_DISABLE_SIMD environment variable forces the scalar table
 *    (the CI fallback leg and local bit-identity checks use this).
 *
 * The plain building blocks the fused ops are defined by (shiftLeftOne,
 * andInPlace, fillOnes) are scalar free functions in bitvector.h.
 *
 * Aliasing contract: dst == src (full overlap) is allowed for the
 * in-place ops (andShiftAnd, shiftLeftOneOrAnd) and for the shifting
 * copies (shiftLeftOneOr, batchShiftLeftOneOr); partial overlap is
 * not. fusedCell and batchFusedCell write a fresh destination: dst
 * must not overlap any source. All backends honor the same contract
 * (the vector loops iterate high-to-low so a fully aliased shift never
 * reads a word it already wrote).
 */

#ifndef SEGRAM_SRC_UTIL_BITOPS_SIMD_H
#define SEGRAM_SRC_UTIL_BITOPS_SIMD_H

#include <cstdint>

namespace segram::bitops
{

/** Which kernel implementation backs the dispatched table. */
enum class KernelBackend : uint8_t
{
    Scalar,
    Avx2,
    Neon,
};

/**
 * Function table of the BitAlign word primitives. All ops operate on
 * arrays of @p nwords 64-bit words, least-significant word first,
 * matching the bitops free functions.
 */
struct KernelOps
{
    /** dst = (src << 1) | mask. */
    void (*shiftLeftOneOr)(uint64_t *dst, const uint64_t *src,
                           const uint64_t *mask, int nwords);

    /**
     * Fused M term: dst &= ((src << 1) | mask). Replaces a
     * shiftLeftOneOr into scratch plus an AND (two sweeps, one
     * temporary) with a single sweep and no temporary.
     */
    void (*shiftLeftOneOrAnd)(uint64_t *dst, const uint64_t *src,
                              const uint64_t *mask, int nwords);

    /**
     * Fused D & S terms: dst &= src & (src << 1). One sweep for the
     * deletion (unshifted) and substitution (shifted) vectors of a
     * successor, which always arrive as the same source.
     */
    void (*andShiftAnd)(uint64_t *dst, const uint64_t *src, int nwords);

    /**
     * One whole single-successor recurrence cell in one sweep:
     *
     *   dst = (ins << 1) & ds & (ds << 1) & ((match << 1) | pm)
     *
     * i.e. I & D & S & M with ins = R[i][d-1], ds = R[j][d-1],
     * match = R[j][d]. This is the op the BitAlign PE array computes
     * per cycle; fusing it turns ~6 read-modify-write sweeps per
     * (i, d) cell into 4 loads and 1 store per word.
     */
    void (*fusedCell)(uint64_t *dst, const uint64_t *ins,
                      const uint64_t *ds, const uint64_t *match,
                      const uint64_t *pm, int nwords);

    /**
     * Lane-batched dst = (src << 1) | mask over kBatchLanes independent
     * windows in the lane-major layout (see kBatchLanes). The shift
     * carry propagates within each lane only (word group j-1 of lane w
     * feeds word group j of lane w); lanes never mix, so one batched
     * sweep is bit-identical to kBatchLanes scalar shiftLeftOneOr calls
     * on the de-interleaved vectors.
     */
    void (*batchShiftLeftOneOr)(uint64_t *dst, const uint64_t *src,
                                const uint64_t *mask, int nwords);

    /**
     * Lane-batched fusedCell: one whole single-successor recurrence
     * cell for kBatchLanes independent windows per sweep. Same
     * lane-major layout and per-lane carry rule as batchShiftLeftOneOr;
     * dst must not overlap any source.
     */
    void (*batchFusedCell)(uint64_t *dst, const uint64_t *ins,
                           const uint64_t *ds, const uint64_t *match,
                           const uint64_t *pm, int nwords);

    /**
     * One whole lane-batched recurrence column in a single call:
     * equivalent to batchShiftLeftOneOr(col, prev, pm, nwords) followed
     * by batchFusedCell(col + d*L, col + (d-1)*L, prev + (d-1)*L,
     * prev + d*L, pm, nwords) for d = 1 .. levels-1, with
     * L = nwords * kBatchLanes. @p col and @p prev are level-major
     * stacks of @p levels lane-major rows and must not overlap.
     *
     * The recurrence chains across levels — level d's insertion input
     * is level d-1's output, and its deletion source is level d-1's
     * match source — so fusing the column keeps pm, the previous
     * level's output and the shifted previous source in registers: one
     * fresh load of prev per word group per level instead of four, and
     * one call per step instead of one per level.
     */
    void (*batchColumn)(uint64_t *col, const uint64_t *prev,
                        const uint64_t *pm, int nwords, int levels);
};

/**
 * Windows per lane-batched kernel sweep. The batched ops run this many
 * *independent* window recurrences at once in a lane-major
 * (struct-of-arrays) layout: word group j of lane w lives at index
 * j * kBatchLanes + w, so group j of all lanes is one contiguous
 * 256-bit block — exactly one AVX2 register (4 x 64-bit lanes). The
 * constant is the same for every backend (scalar and NEON included):
 * the layout, and therefore every lane's result, never depends on
 * which table executes the sweep.
 */
constexpr int kBatchLanes = 4;

/** @return The portable scalar table (always available). */
const KernelOps &scalarKernels();

/**
 * @return The best vectorized table this build and CPU support (AVX2
 *         checked via CPUID at first call, NEON unconditionally on
 *         aarch64), or nullptr when none is available or the build
 *         was configured with SEGRAM_DISABLE_SIMD.
 */
const KernelOps *simdKernels();

/** @return The backend simdKernels() would provide (Scalar if null). */
KernelBackend simdBackend();

/**
 * @return The active table: simdKernels() unless unavailable or
 *         disabled (SEGRAM_DISABLE_SIMD build option or environment
 *         variable), else the scalar table. Selected once, on first
 *         call; the decision never changes within a process.
 */
const KernelOps &kernels();

/** @return The backend behind kernels(). */
KernelBackend activeBackend();

/** @return Lower-case backend name ("scalar", "avx2", "neon"),
 *          NUL-terminated for direct printf use. */
const char *backendName(KernelBackend backend);

/** @return backendName(activeBackend()). */
const char *activeBackendName();

} // namespace segram::bitops

#endif // SEGRAM_SRC_UTIL_BITOPS_SIMD_H
