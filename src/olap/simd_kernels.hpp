#pragma once

/**
 * @file
 * Explicit SIMD implementations of the hot batch kernels, behind the
 * same semantics as the scalar loops in batch.cpp (bit-identical
 * results by construction: every kernel makes exact integer keep/drop
 * decisions or computes exact integer values, so vector width only
 * changes how many rows are decided per step, never the outcome).
 *
 * Dispatch is width-aware and layered; each layer can only fall
 * back to the scalar reference:
 *  - build flag: -DPUSHTAP_FORCE_SCALAR_KERNELS=1 (CMake option
 *    PUSHTAP_FORCE_SCALAR_KERNELS) removes the vector paths entirely
 *    — the CI fallback job proving bit-equality, and the only way
 *    outside tests and benches to force the scalar kernels;
 *  - CPU probe: __builtin_cpu_supports("avx2") selects the 256-bit
 *    AVX2 kernels, else the scalar reference. Non-x86 targets
 *    (NEON/SSE-only hosts) currently take the scalar reference path;
 *  - hook: forceScalarKernels() lets tests and benches switch a
 *    supporting host to the scalar reference at run time.
 *
 * The AVX2 kernels share one primitive: compare (or table-lookup) 8
 * selection entries at a time into an 8-bit keep mask, then compact
 * the selection in place with a permutation-table vpermd step — the
 * word-level selection compaction the scalar loops do one row at a
 * time.
 */

#include <cstddef>
#include <cstdint>
#include <span>

#include "format/schema.hpp"
#include "olap/batch.hpp"
#include "olap/expr.hpp"

namespace pushtap::olap::simd {

/** How kernel dispatch resolved on this build/host. */
struct KernelDispatch
{
    bool forcedScalarBuild; ///< -DPUSHTAP_FORCE_SCALAR_KERNELS=1.
    bool avx2;              ///< Host CPU supports AVX2.
    const char *active;     ///< "avx2" or "scalar".
};

/** Dispatch facts, resolved once (CPU probed at first call). */
const KernelDispatch &kernelDispatch();

/** Runtime override for benches/tests: true forces the scalar
 *  reference kernels regardless of CPU support. */
void forceScalarKernels(bool on);

/** True when the vector kernels are currently selected. */
bool simdActive();

/** Keep sel[i] iff lo <= vals[i] <= hi (vals parallel to sel). */
void filterRange(std::span<const std::int64_t> vals,
                 SelectionVector &sel, std::int64_t lo,
                 std::int64_t hi);

/**
 * Fused compare+select vs a literal: keep sel[i] iff
 * exprApply(op, vals[i], lit) != 0. @p op must be one of
 * Eq/Ne/Lt/Le/Gt/Ge.
 */
void filterCompare(std::span<const std::int64_t> vals,
                   SelectionVector &sel, ExprOp op,
                   std::int64_t lit);

/** Flip a comparison so `lit op val` becomes `val op' lit`. */
constexpr ExprOp
flipCompare(ExprOp op)
{
    switch (op) {
      case ExprOp::Lt: return ExprOp::Gt;
      case ExprOp::Le: return ExprOp::Ge;
      case ExprOp::Gt: return ExprOp::Lt;
      case ExprOp::Ge: return ExprOp::Le;
      default: return op; // Eq/Ne are symmetric.
    }
}

/**
 * Dictionary-code filter: keep sel[i] iff (lut[codes[i]] != 0) !=
 * negate. @p codes is parallel to @p sel; every code indexes within
 * @p lut (the sentinel entry is the last one). LUTs of at most 16
 * entries dispatch to a pshufb in-register truth table (one byte
 * shuffle per 8 codes); larger LUTs take the 32-bit gather.
 */
void filterDictCodes(std::span<const std::uint32_t> codes,
                     SelectionVector &sel,
                     std::span<const std::uint32_t> lut, bool negate);

/**
 * Generic compaction tail: keep sel[i] iff keep[i] != 0 (the boolean
 * vector an expression evaluation produced).
 */
void compactByNonzero(std::span<const std::int64_t> keep,
                      SelectionVector &sel);

/**
 * Strided int decode: out[i] = sign-extended little-endian value at
 * base + offsets[i] * stride. Handles Int columns of width 4/8 on the
 * vector path; returns false when the shape isn't handled (caller
 * falls back to format::decodeIntStride). @p offsets is ascending.
 */
bool decodeIntStride(const format::Column &col,
                     const std::uint8_t *base, std::size_t stride,
                     std::span<const std::uint32_t> offsets,
                     std::int64_t *out);

/**
 * Unpack packed little-endian dictionary codes (1/2/4 bytes each) of
 * rows (row_base + sel[i]) into out[0..sel.size()).
 */
void gatherDictCodes(std::span<const std::uint8_t> packed,
                     std::uint32_t code_width, std::uint64_t row_base,
                     std::span<const std::uint32_t> sel,
                     AlignedVec<std::uint32_t> &out);

} // namespace pushtap::olap::simd
