#include "olap/simd_kernels.hpp"

#include <atomic>
#include <cstring>
#include <limits>

#include "common/log.hpp"

#if defined(__x86_64__) && !defined(PUSHTAP_FORCE_SCALAR_KERNELS)
#define PUSHTAP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace pushtap::olap::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

bool
cpuHasAvx2()
{
#ifdef PUSHTAP_SIMD_X86
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

// ---------------------------------------------------------------
// Scalar reference kernels (the semantics every vector path must
// reproduce bit-for-bit).
// ---------------------------------------------------------------

void
scalarFilterRange(std::span<const std::int64_t> vals,
                  SelectionVector &sel, std::int64_t lo,
                  std::int64_t hi)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>(vals[i] >= lo && vals[i] <= hi);
    }
    sel.idx.resize(n);
}

void
scalarFilterCompare(std::span<const std::int64_t> vals,
                    SelectionVector &sel, ExprOp op, std::int64_t lit)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>(exprApply(op, vals[i], lit) !=
                                      0);
    }
    sel.idx.resize(n);
}

void
scalarFilterDictCodes(std::span<const std::uint32_t> codes,
                      SelectionVector &sel,
                      std::span<const std::uint32_t> lut, bool negate)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>((lut[codes[i]] != 0) != negate);
    }
    sel.idx.resize(n);
}

void
scalarCompactByNonzero(std::span<const std::int64_t> keep,
                       SelectionVector &sel)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>(keep[i] != 0);
    }
    sel.idx.resize(n);
}

// ---------------------------------------------------------------
// AVX2 kernels. Per-function target("avx2") so the base build stays
// portable; selection happens at run time via kernelDispatch().
// ---------------------------------------------------------------

#ifdef PUSHTAP_SIMD_X86

/** vpermd table: entry m holds the lane order that packs the set
 *  bits of mask m to the front. 8 KiB, L1-resident on the hot path. */
struct alignas(32) Compact8Table
{
    std::uint32_t perm[256][8];
};

constexpr Compact8Table
makeCompact8()
{
    Compact8Table t{};
    for (unsigned m = 0; m < 256; ++m) {
        unsigned k = 0;
        for (unsigned b = 0; b < 8; ++b)
            if (m & (1u << b))
                t.perm[m][k++] = b;
        for (; k < 8; ++k)
            t.perm[m][k] = 0;
    }
    return t;
}

constexpr Compact8Table kCompact8 = makeCompact8();

/** Compact 8 selection entries at idx[i..i+8) by @p keep (bit j =
 *  keep entry i+j); returns the advanced output cursor. In-place
 *  safe: out <= i always, so the 32-byte store never clobbers
 *  unread input. */
__attribute__((target("avx2"))) inline std::size_t
compactStep8(std::uint32_t *idx, std::size_t out, std::size_t i,
             unsigned keep)
{
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(idx + i));
    const __m256i p = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kCompact8.perm[keep]));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(idx + out),
                        _mm256_permutevar8x32_epi32(s, p));
    return out + static_cast<unsigned>(__builtin_popcount(keep));
}

/** 8-bit drop mask of two 4x64 compare results (all-ones = drop). */
__attribute__((target("avx2"))) inline unsigned
dropMask8(__m256i lo, __m256i hi)
{
    return static_cast<unsigned>(
               _mm256_movemask_pd(_mm256_castsi256_pd(lo))) |
           (static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(hi)))
            << 4);
}

__attribute__((target("avx2"))) void
filterRangeAvx2(std::span<const std::int64_t> vals,
                SelectionVector &sel, std::int64_t lo,
                std::int64_t hi)
{
    std::uint32_t *idx = sel.idx.data();
    const std::int64_t *v = vals.data();
    const std::size_t n = sel.idx.size();
    const __m256i vlo = _mm256_set1_epi64x(lo);
    const __m256i vhi = _mm256_set1_epi64x(hi);
    std::size_t out = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i + 4));
        const __m256i da = _mm256_or_si256(
            _mm256_cmpgt_epi64(vlo, a), _mm256_cmpgt_epi64(a, vhi));
        const __m256i db = _mm256_or_si256(
            _mm256_cmpgt_epi64(vlo, b), _mm256_cmpgt_epi64(b, vhi));
        out = compactStep8(idx, out, i, ~dropMask8(da, db) & 0xFFu);
    }
    for (; i < n; ++i) {
        idx[out] = idx[i];
        out += static_cast<std::size_t>(v[i] >= lo && v[i] <= hi);
    }
    sel.idx.resize(out);
}

__attribute__((target("avx2"))) void
filterCompareAvx2(std::span<const std::int64_t> vals,
                  SelectionVector &sel, ExprOp op, std::int64_t lit)
{
    // Every comparison reduces to one cmpeq/cmpgt plus an optional
    // mask inversion: Eq = eq, Ne = !eq, Gt = v>l, Le = !(v>l),
    // Lt = l>v, Ge = !(l>v).
    const bool invert = op == ExprOp::Ne || op == ExprOp::Le ||
                        op == ExprOp::Ge;
    const bool use_eq = op == ExprOp::Eq || op == ExprOp::Ne;
    const bool lit_first = op == ExprOp::Lt || op == ExprOp::Ge;

    std::uint32_t *idx = sel.idx.data();
    const std::int64_t *v = vals.data();
    const std::size_t n = sel.idx.size();
    const __m256i vlit = _mm256_set1_epi64x(lit);
    std::size_t out = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i + 4));
        __m256i ma, mb;
        if (use_eq) {
            ma = _mm256_cmpeq_epi64(a, vlit);
            mb = _mm256_cmpeq_epi64(b, vlit);
        } else if (lit_first) {
            ma = _mm256_cmpgt_epi64(vlit, a);
            mb = _mm256_cmpgt_epi64(vlit, b);
        } else {
            ma = _mm256_cmpgt_epi64(a, vlit);
            mb = _mm256_cmpgt_epi64(b, vlit);
        }
        unsigned keep = dropMask8(ma, mb);
        if (invert)
            keep = ~keep;
        out = compactStep8(idx, out, i, keep & 0xFFu);
    }
    for (; i < n; ++i) {
        idx[out] = idx[i];
        out += static_cast<std::size_t>(exprApply(op, v[i], lit) !=
                                        0);
    }
    sel.idx.resize(out);
}

__attribute__((target("avx2"))) void
filterDictCodesAvx2(std::span<const std::uint32_t> codes,
                    SelectionVector &sel,
                    std::span<const std::uint32_t> lut, bool negate)
{
    std::uint32_t *idx = sel.idx.data();
    const std::uint32_t *c = codes.data();
    const int *lutp = reinterpret_cast<const int *>(lut.data());
    const std::size_t n = sel.idx.size();
    const __m256i zero = _mm256_setzero_si256();
    std::size_t out = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c + i));
        const __m256i g = _mm256_i32gather_epi32(lutp, cv, 4);
        const unsigned nomatch = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(g, zero))));
        const unsigned keep = negate ? nomatch : ~nomatch;
        out = compactStep8(idx, out, i, keep & 0xFFu);
    }
    for (; i < n; ++i) {
        idx[out] = idx[i];
        out += static_cast<std::size_t>((lut[c[i]] != 0) != negate);
    }
    sel.idx.resize(out);
}

/**
 * pshufb fast path of the dict-code LUT filter: when the whole LUT
 * fits 16 entries (1-byte codes with at most 16 distinct values —
 * codes are < lut.size() by the dictionary contract), the match
 * bytes resolve with one in-register byte shuffle per 8 codes
 * instead of the latency-bound 32-bit gather. Each dword of the
 * code vector holds its code in byte 0 and zeros elsewhere, so the
 * shuffle leaves table[code] in byte 0 and table[0] in bytes 1-3,
 * which the dword mask strips before the zero compare.
 */
__attribute__((target("avx2"))) void
filterDictCodesPshufbAvx2(std::span<const std::uint32_t> codes,
                          SelectionVector &sel,
                          std::span<const std::uint32_t> lut,
                          bool negate)
{
    alignas(16) std::uint8_t table[16] = {};
    for (std::size_t v = 0; v < lut.size(); ++v)
        table[v] = lut[v] != 0 ? 0xFF : 0x00;
    const __m256i tbl = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i *>(table)));
    const __m256i bytemask = _mm256_set1_epi32(0xFF);
    const __m256i zero = _mm256_setzero_si256();
    std::uint32_t *idx = sel.idx.data();
    const std::uint32_t *c = codes.data();
    const std::size_t n = sel.idx.size();
    std::size_t out = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c + i));
        const __m256i g = _mm256_and_si256(
            _mm256_shuffle_epi8(tbl, cv), bytemask);
        const unsigned nomatch = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(g, zero))));
        const unsigned keep = negate ? nomatch : ~nomatch;
        out = compactStep8(idx, out, i, keep & 0xFFu);
    }
    for (; i < n; ++i) {
        idx[out] = idx[i];
        out += static_cast<std::size_t>((lut[c[i]] != 0) != negate);
    }
    sel.idx.resize(out);
}

__attribute__((target("avx2"))) void
compactByNonzeroAvx2(std::span<const std::int64_t> keep,
                     SelectionVector &sel)
{
    std::uint32_t *idx = sel.idx.data();
    const std::int64_t *k = keep.data();
    const std::size_t n = sel.idx.size();
    const __m256i zero = _mm256_setzero_si256();
    std::size_t out = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(k + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(k + i + 4));
        const unsigned drop = dropMask8(_mm256_cmpeq_epi64(a, zero),
                                        _mm256_cmpeq_epi64(b, zero));
        out = compactStep8(idx, out, i, ~drop & 0xFFu);
    }
    for (; i < n; ++i) {
        idx[out] = idx[i];
        out += static_cast<std::size_t>(k[i] != 0);
    }
    sel.idx.resize(out);
}

__attribute__((target("avx2"))) void
decodeInt32StrideAvx2(const std::uint8_t *base, std::size_t stride,
                      std::span<const std::uint32_t> offsets,
                      std::int64_t *out)
{
    const std::size_t n = offsets.size();
    const __m256i vstride =
        _mm256_set1_epi32(static_cast<int>(stride));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i off = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(offsets.data() + i));
        const __m256i boff = _mm256_mullo_epi32(off, vstride);
        const __m256i g = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(base), boff, 1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + i),
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(g)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + i + 4),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(g, 1)));
    }
    for (; i < n; ++i) {
        std::int32_t v;
        std::memcpy(&v, base + offsets[i] * stride, 4);
        out[i] = v;
    }
}

__attribute__((target("avx2"))) void
decodeInt64StrideAvx2(const std::uint8_t *base, std::size_t stride,
                      std::span<const std::uint32_t> offsets,
                      std::int64_t *out)
{
    const std::size_t n = offsets.size();
    const __m128i vstride = _mm_set1_epi32(static_cast<int>(stride));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i off = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(offsets.data() + i));
        const __m128i boff = _mm_mullo_epi32(off, vstride);
        const __m256i g = _mm256_i32gather_epi64(
            reinterpret_cast<const long long *>(base), boff, 1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), g);
    }
    for (; i < n; ++i)
        std::memcpy(out + i, base + offsets[i] * stride, 8);
}

#endif // PUSHTAP_SIMD_X86

} // namespace

const KernelDispatch &
kernelDispatch()
{
    static const KernelDispatch d = [] {
        KernelDispatch k{};
#ifdef PUSHTAP_FORCE_SCALAR_KERNELS
        k.forcedScalarBuild = true;
#else
        k.forcedScalarBuild = false;
#endif
        k.avx2 = cpuHasAvx2();
        k.active = k.avx2 && !k.forcedScalarBuild ? "avx2" : "scalar";
        return k;
    }();
    return d;
}

void
forceScalarKernels(bool on)
{
    g_force_scalar.store(on, std::memory_order_relaxed);
}

bool
simdActive()
{
    const KernelDispatch &d = kernelDispatch();
    return d.avx2 && !d.forcedScalarBuild &&
           !g_force_scalar.load(std::memory_order_relaxed);
}

void
filterRange(std::span<const std::int64_t> vals, SelectionVector &sel,
            std::int64_t lo, std::int64_t hi)
{
#ifdef PUSHTAP_SIMD_X86
    if (simdActive()) {
        filterRangeAvx2(vals, sel, lo, hi);
        return;
    }
#endif
    scalarFilterRange(vals, sel, lo, hi);
}

void
filterCompare(std::span<const std::int64_t> vals,
              SelectionVector &sel, ExprOp op, std::int64_t lit)
{
#ifdef PUSHTAP_SIMD_X86
    if (simdActive()) {
        filterCompareAvx2(vals, sel, op, lit);
        return;
    }
#endif
    scalarFilterCompare(vals, sel, op, lit);
}

void
filterDictCodes(std::span<const std::uint32_t> codes,
                SelectionVector &sel,
                std::span<const std::uint32_t> lut, bool negate)
{
#ifdef PUSHTAP_SIMD_X86
    if (simdActive()) {
        // Tiny dictionaries (<= 16 distinct values) take the
        // pshufb in-register table; larger ones keep the gather.
        if (lut.size() <= 16)
            filterDictCodesPshufbAvx2(codes, sel, lut, negate);
        else
            filterDictCodesAvx2(codes, sel, lut, negate);
        return;
    }
#endif
    scalarFilterDictCodes(codes, sel, lut, negate);
}

void
compactByNonzero(std::span<const std::int64_t> keep,
                 SelectionVector &sel)
{
#ifdef PUSHTAP_SIMD_X86
    if (simdActive()) {
        compactByNonzeroAvx2(keep, sel);
        return;
    }
#endif
    scalarCompactByNonzero(keep, sel);
}

bool
decodeIntStride(const format::Column &col, const std::uint8_t *base,
                std::size_t stride,
                std::span<const std::uint32_t> offsets,
                std::int64_t *out)
{
#ifdef PUSHTAP_SIMD_X86
    if (!simdActive() || col.type != format::ColType::Int ||
        (col.width != 4 && col.width != 8) || offsets.empty())
        return false;
    // i32gather indices are signed 32-bit byte offsets; offsets are
    // ascending, so the last one bounds the whole segment.
    const std::uint64_t max_off =
        static_cast<std::uint64_t>(offsets.back()) * stride +
        col.width;
    if (max_off > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int32_t>::max()))
        return false;
    if (col.width == 4)
        decodeInt32StrideAvx2(base, stride, offsets, out);
    else
        decodeInt64StrideAvx2(base, stride, offsets, out);
    return true;
#else
    (void)col;
    (void)base;
    (void)stride;
    (void)offsets;
    (void)out;
    return false;
#endif
}

void
gatherDictCodes(std::span<const std::uint8_t> packed,
                std::uint32_t code_width, std::uint64_t row_base,
                std::span<const std::uint32_t> sel,
                AlignedVec<std::uint32_t> &out)
{
    out.resize(sel.size());
    const std::uint8_t *p = packed.data();
    switch (code_width) {
      case 1:
        for (std::size_t i = 0; i < sel.size(); ++i)
            out[i] = p[row_base + sel[i]];
        return;
      case 2:
        for (std::size_t i = 0; i < sel.size(); ++i) {
            std::uint16_t v;
            std::memcpy(&v, p + (row_base + sel[i]) * 2, 2);
            out[i] = v;
        }
        return;
      case 4:
        for (std::size_t i = 0; i < sel.size(); ++i)
            std::memcpy(&out[i], p + (row_base + sel[i]) * 4, 4);
        return;
      default:
        fatal("gatherDictCodes: unsupported code width {}",
              code_width);
    }
}

} // namespace pushtap::olap::simd
