#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "format/dictionary.hpp"
#include "olap/batch.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/simd_kernels.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using storage::Region;
using testsupport::expectReferenceAnswer;
using testsupport::referenceExecute;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;
using workload::ChTable;

/** Force the scalar reference kernels for one scope. */
struct ScalarGuard
{
    explicit ScalarGuard(bool on) { simd::forceScalarKernels(on); }
    ~ScalarGuard() { simd::forceScalarKernels(false); }
};

SelectionVector
iota(std::uint32_t n)
{
    SelectionVector sel;
    for (std::uint32_t i = 0; i < n; ++i)
        sel.idx.push_back(i);
    return sel;
}

std::vector<std::uint32_t>
indices(const SelectionVector &sel)
{
    return {sel.idx.begin(), sel.idx.end()};
}

/** Run @p kernel on a fresh iota selection under both dispatches and
 *  require identical surviving indices. Returns the result. */
template <typename Kernel>
std::vector<std::uint32_t>
bothDispatches(std::uint32_t n, Kernel &&kernel)
{
    SelectionVector sel = iota(n);
    {
        ScalarGuard g(true);
        kernel(sel);
    }
    const auto scalar = indices(sel);
    sel = iota(n);
    kernel(sel); // dispatched path (AVX2 where available)
    EXPECT_EQ(indices(sel), scalar);
    return scalar;
}

// Sizes straddling the 8-lane vector width: empty, sub-width, exact
// multiples, off-by-one tails and a full morsel.
const std::uint32_t kSizes[] = {0, 1, 7, 8, 9, 64, 333, 2048};

TEST(SimdKernels, FilterCompareMatchesScalarOnAllOpsAndSizes)
{
    const ExprOp ops[] = {ExprOp::Eq, ExprOp::Ne, ExprOp::Lt,
                          ExprOp::Le, ExprOp::Gt, ExprOp::Ge};
    Rng rng(101);
    for (const auto n : kSizes) {
        std::vector<std::int64_t> vals(n);
        for (auto &v : vals)
            v = static_cast<std::int64_t>(rng.below(7)) - 3;
        // Extremes exercise the signed-compare bias trick.
        if (n > 2) {
            vals[0] = std::numeric_limits<std::int64_t>::min();
            vals[1] = std::numeric_limits<std::int64_t>::max();
        }
        for (const auto op : ops)
            for (const std::int64_t lit :
                 {std::int64_t{-3}, std::int64_t{0}, std::int64_t{2},
                  std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max()}) {
                const auto kept = bothDispatches(
                    n, [&](SelectionVector &sel) {
                        simd::filterCompare(vals, sel, op, lit);
                    });
                // Cross-check vs the IR semantics row by row.
                std::vector<std::uint32_t> want;
                for (std::uint32_t i = 0; i < n; ++i)
                    if (exprApply(op, vals[i], lit) != 0)
                        want.push_back(i);
                EXPECT_EQ(kept, want)
                    << "n=" << n << " op=" << static_cast<int>(op)
                    << " lit=" << lit;
            }
    }
}

TEST(SimdKernels, FilterRangeMatchesScalarIncludingEmptyWindows)
{
    Rng rng(103);
    for (const auto n : kSizes) {
        std::vector<std::int64_t> vals(n);
        for (auto &v : vals)
            v = static_cast<std::int64_t>(rng.below(100)) - 50;
        const std::pair<std::int64_t, std::int64_t> windows[] = {
            {-10, 10},
            {5, 5},
            {10, -10}, // inverted: selects nothing
            {std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::max()}};
        for (const auto &[lo, hi] : windows) {
            const auto kept =
                bothDispatches(n, [&](SelectionVector &sel) {
                    simd::filterRange(vals, sel, lo, hi);
                });
            std::vector<std::uint32_t> want;
            for (std::uint32_t i = 0; i < n; ++i)
                if (vals[i] >= lo && vals[i] <= hi)
                    want.push_back(i);
            EXPECT_EQ(kept, want) << "n=" << n << " lo=" << lo;
        }
    }
}

TEST(SimdKernels, FilterDictCodesMatchesScalarWithSentinel)
{
    Rng rng(107);
    const std::uint32_t card = 37;
    std::vector<std::uint32_t> lut(card + 1, 0);
    for (std::uint32_t c = 0; c < card; c += 2)
        lut[c] = 1;
    lut[card] = 0; // sentinel never matches via the LUT
    for (const auto n : kSizes) {
        std::vector<std::uint32_t> codes(n);
        for (auto &c : codes)
            c = static_cast<std::uint32_t>(rng.below(card + 1));
        for (const bool negate : {false, true}) {
            const auto kept =
                bothDispatches(n, [&](SelectionVector &sel) {
                    simd::filterDictCodes(codes, sel, lut, negate);
                });
            std::vector<std::uint32_t> want;
            for (std::uint32_t i = 0; i < n; ++i)
                if ((lut[codes[i]] != 0) != negate)
                    want.push_back(i);
            EXPECT_EQ(kept, want) << "n=" << n << " neg=" << negate;
        }
    }
}

TEST(SimdKernels, FilterDictCodesSmallLutTakesPshufbPath)
{
    // LUTs of <= 16 entries dispatch to the pshufb in-register
    // truth table instead of the gather; same keep semantics,
    // checked across sizes, negation and every boundary
    // cardinality around the 16-entry cutoff.
    Rng rng(111);
    for (const std::uint32_t card : {1u, 2u, 11u, 15u, 16u, 17u}) {
        std::vector<std::uint32_t> lut(card, 0);
        for (std::uint32_t c = 0; c < card; c += 2)
            lut[c] = 1;
        for (const auto n : kSizes) {
            std::vector<std::uint32_t> codes(n);
            for (auto &c : codes)
                c = static_cast<std::uint32_t>(rng.below(card));
            for (const bool negate : {false, true}) {
                const auto kept =
                    bothDispatches(n, [&](SelectionVector &sel) {
                        simd::filterDictCodes(codes, sel, lut,
                                              negate);
                    });
                std::vector<std::uint32_t> want;
                for (std::uint32_t i = 0; i < n; ++i)
                    if ((lut[codes[i]] != 0) != negate)
                        want.push_back(i);
                EXPECT_EQ(kept, want) << "card=" << card
                                      << " n=" << n
                                      << " neg=" << negate;
            }
        }
    }
}

TEST(SimdKernels, CompactByNonzeroMatchesScalar)
{
    Rng rng(109);
    for (const auto n : kSizes) {
        std::vector<std::int64_t> keep(n);
        for (auto &v : keep)
            v = static_cast<std::int64_t>(rng.below(3)) - 1;
        const auto kept =
            bothDispatches(n, [&](SelectionVector &sel) {
                simd::compactByNonzero(keep, sel);
            });
        std::vector<std::uint32_t> want;
        for (std::uint32_t i = 0; i < n; ++i)
            if (keep[i] != 0)
                want.push_back(i);
        EXPECT_EQ(kept, want) << "n=" << n;
    }
}

TEST(SimdKernels, GatherDictCodesUnpacksEveryWidth)
{
    Rng rng(113);
    const std::uint64_t rows = 300;
    for (const std::uint32_t width : {1u, 2u, 4u}) {
        std::vector<std::uint32_t> truth(rows);
        std::vector<std::uint8_t> packed(rows * width);
        for (std::uint64_t r = 0; r < rows; ++r) {
            truth[r] = static_cast<std::uint32_t>(
                rng.below(width == 1 ? 200 : 60000));
            std::memcpy(packed.data() + r * width, &truth[r],
                        width);
        }
        // A non-contiguous ascending selection off a nonzero base.
        std::vector<std::uint32_t> sel;
        for (std::uint32_t i = 0; i < 90; i += 1 + (i % 3))
            sel.push_back(i);
        const std::uint64_t base = 17;
        AlignedVec<std::uint32_t> simd_out, scalar_out;
        {
            ScalarGuard g(true);
            simd::gatherDictCodes(packed, width, base, sel,
                                  scalar_out);
        }
        simd::gatherDictCodes(packed, width, base, sel, simd_out);
        ASSERT_EQ(scalar_out.size(), sel.size());
        ASSERT_EQ(simd_out.size(), sel.size());
        for (std::size_t i = 0; i < sel.size(); ++i) {
            EXPECT_EQ(scalar_out[i], truth[base + sel[i]])
                << "w=" << width << " i=" << i;
            EXPECT_EQ(simd_out[i], scalar_out[i])
                << "w=" << width << " i=" << i;
        }
    }
}

TEST(SimdKernels, DecodeIntStrideMatchesManualDecode)
{
    Rng rng(127);
    for (const std::uint32_t width : {4u, 8u}) {
        const format::Column col{"c", width, format::ColType::Int,
                                 false};
        const std::size_t stride = width + 5; // padded row
        std::vector<std::uint8_t> buf(stride * 200 + width);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        std::vector<std::uint32_t> offsets;
        for (std::uint32_t i = 0; i < 150; i += 1 + (i % 4))
            offsets.push_back(i);
        std::vector<std::int64_t> out(offsets.size(), 0);
        if (!simd::decodeIntStride(col, buf.data(), stride, offsets,
                                   out.data()))
            GTEST_SKIP() << "vector decode unavailable here";
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            // Little-endian sign-extended reference.
            std::int64_t want = 0;
            std::memcpy(&want, buf.data() + offsets[i] * stride,
                        width);
            if (width == 4)
                want = static_cast<std::int32_t>(want);
            EXPECT_EQ(out[i], want) << "w=" << width << " i=" << i;
        }
    }
    // The scalar dispatch declines, signalling the caller to take
    // the format:: reference path.
    ScalarGuard g(true);
    const format::Column col{"c", 8, format::ColType::Int, false};
    const std::uint8_t buf[16] = {};
    const std::uint32_t off[1] = {0};
    std::int64_t out[1];
    EXPECT_FALSE(simd::decodeIntStride(col, buf, 8, off, out));
}

TEST(SimdKernels, DispatchReportsConsistentState)
{
    const auto &d = simd::kernelDispatch();
#ifdef PUSHTAP_FORCE_SCALAR_KERNELS
    EXPECT_TRUE(d.forcedScalarBuild);
    EXPECT_STREQ(d.active, "scalar");
    EXPECT_FALSE(simd::simdActive());
#else
    EXPECT_FALSE(d.forcedScalarBuild);
    if (d.avx2) {
        EXPECT_STREQ(d.active, "avx2");
        EXPECT_TRUE(simd::simdActive());
        ScalarGuard g(true);
        EXPECT_FALSE(simd::simdActive());
    } else {
        EXPECT_STREQ(d.active, "scalar");
    }
#endif
}

// ---- dictionary fast path vs raw byte path -----------------------

/**
 * A tiny store with one Char(4) column whose values hit the LIKE
 * edge cases: NUL-truncated shorts, a full-width value with no
 * terminator, and an all-NUL (empty) payload. The dictionary freezes
 * over exactly this value set, so every data row is coded.
 */
struct CharStoreFixture
{
    static constexpr std::uint64_t kRows = 4096;

    format::TableSchema schema;
    format::TableLayout layout;
    storage::TableStore store;
    std::vector<std::string> values;

    CharStoreFixture()
        : schema("chars",
                 {{"id", 8, format::ColType::Int, true},
                  {"tag", 4, format::ColType::Char, false}}),
          layout(format::compactAligned(schema, 8, 0.6)),
          store(layout, format::BlockCirculant(8, 64), kRows, 16)
    {
        using namespace std::string_literals;
        values = {"abcd"s,     "a\0\0\0"s, "ab\0\0"s,
                  "\0\0\0\0"s, "zzzz"s,    "ab9\0"s};
        Rng rng(41);
        std::vector<std::uint8_t> row(schema.rowBytes());
        const auto toff = schema.canonicalOffset(1);
        for (RowId r = 0; r < kRows; ++r) {
            const std::int64_t id = static_cast<std::int64_t>(r);
            std::memcpy(row.data(), &id, 8);
            const auto &v = values[rng.below(values.size())];
            std::memcpy(row.data() + toff, v.data(), 4);
            store.writeRow(Region::Data, r, row);
        }
        store.buildDictionaries(64);
    }
};

TEST(DictPredicates, LikeLutAgreesWithRawBytePath)
{
    const CharStoreFixture fx;
    const BatchColumnReader rd(fx.store, "tag");
    const auto *dict = rd.dict();
    ASSERT_NE(dict, nullptr);
    ASSERT_TRUE(fx.store.dictFullyCoded(1));
    const Morsel m{Region::Data, 0, 2048};
    ASSERT_TRUE(rd.dictUsable(m));

    const std::string patterns[] = {"%a%",  "a%",   "%d",  "%",
                                    "ab%",  "%b%9", "zzzz", "%zz%",
                                    "abcd", "x%"};
    ColumnBatch chars, codes;
    for (const auto &pat : patterns) {
        for (const bool negate : {false, true}) {
            for (const bool forced : {false, true}) {
                ScalarGuard g(forced);
                SelectionVector raw = iota(2048);
                rd.gatherChars(m, raw.span(), chars);
                filterCharLike(chars.chars, 4, raw, pat, negate);

                SelectionVector viaDict = iota(2048);
                rd.gatherCodes(m, viaDict.span(), codes);
                const auto lut = dict->matchTable(
                    [&](std::span<const std::uint8_t> v) {
                        return likeMatch(v, pat);
                    });
                simd::filterDictCodes(codes.codes, viaDict, lut,
                                      negate);
                EXPECT_EQ(indices(viaDict), indices(raw))
                    << "pattern=" << pat << " negate=" << negate
                    << " forced=" << forced;
            }
        }
    }
}

TEST(DictPredicates, PrefixLutAgreesWithRawBytePath)
{
    const CharStoreFixture fx;
    const BatchColumnReader rd(fx.store, "tag");
    const auto *dict = rd.dict();
    ASSERT_NE(dict, nullptr);
    const Morsel m{Region::Data, 1024, 2048};

    const std::string prefixes[] = {"ab", "abcd", "z", "", "abcde"};
    ColumnBatch chars, codes;
    for (const auto &prefix : prefixes) {
        for (const bool negate : {false, true}) {
            SelectionVector raw = iota(2048);
            rd.gatherChars(m, raw.span(), chars);
            filterCharPrefix(chars.chars, 4, raw, prefix, negate);

            SelectionVector viaDict = iota(2048);
            rd.gatherCodes(m, viaDict.span(), codes);
            // Exactly the executor's LUT predicate (memcmp, not
            // NUL-truncated).
            const auto lut = dict->matchTable(
                [&](std::span<const std::uint8_t> v) {
                    return prefix.size() <= v.size() &&
                           std::memcmp(v.data(), prefix.data(),
                                       prefix.size()) == 0;
                });
            simd::filterDictCodes(codes.codes, viaDict, lut, negate);
            EXPECT_EQ(indices(viaDict), indices(raw))
                << "prefix=" << prefix << " negate=" << negate;
        }
    }
}

// ---- whole-plan byte-identity across dispatches ------------------

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/**
 * OLTP-churned database (in-flight deltas, fragmented rows,
 * post-freeze dictionary writes): the acceptance sweep that SIMD
 * and forced-scalar dispatches execute every catalog plan exactly
 * as the reference executor answers it.
 */
class SimdExecTest : public ::testing::Test
{
  protected:
    SimdExecTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 37),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    /** Run @p plan under the current dispatch and compare it with
     *  the reference rows @p want. */
    void
    expectAnswer(const QueryPlan &plan,
                 const std::vector<testsupport::RefRow> &want,
                 const std::string &what)
    {
        expectReferenceAnswer(db, plan, executePlan(db, plan), want,
                              what);
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(SimdExecTest, AllPlansByteIdenticalUnderForcedScalar)
{
    for (const auto &q : workload::chExecutablePlans()) {
        const auto ref = referenceExecute(db, q.plan);
        expectAnswer(q.plan, ref, q.plan.name + " simd");
        ScalarGuard g(true);
        expectAnswer(q.plan, ref, q.plan.name + " forced-scalar");
    }
}

TEST_F(SimdExecTest, DictLikeAggregateMatchesReference)
{
    using namespace ex;
    // CASE WHEN ol_dist_info LIKE ... over the probe: the aggregate
    // LIKE decodes through the dictionary (or raw bytes on deltas)
    // instead of fataling.
    auto p = plans::q6();
    AggSpec caseLike;
    caseLike.expr = caseWhen(like("ol_dist_info", "%a%"),
                             col("ol_amount"), lit(0));
    p.aggregates = {caseLike};
    const auto ref = referenceExecute(db, p);
    expectAnswer(p, ref, "q6-like simd");
    {
        ScalarGuard g(true);
        expectAnswer(p, ref, "q6-like forced-scalar");
    }

    // Negated LIKE through NOT, summed standalone.
    AggSpec notLikeSum;
    notLikeSum.expr = not_(like("ol_dist_info", "%a%"));
    p.aggregates = {notLikeSum};
    expectAnswer(p, referenceExecute(db, p), "q6-notlike");
}

TEST_F(SimdExecTest, DictLikeAggregateSurvivesJoinExpansion)
{
    using namespace ex;
    // Q21's CASE sum compares a probe column against an inner-join
    // payload; gating it additionally on a probe LIKE forces the
    // pre-evaluated like01 vector through the post-join expansion
    // remap.
    auto p = plans::q21();
    ASSERT_TRUE(p.aggregates[0].expr);
    p.aggregates[0].expr =
        mul(caseWhen(like("ol_dist_info", "%1%"), lit(1), lit(2)),
            p.aggregates[0].expr);
    const auto ref = referenceExecute(db, p);
    expectAnswer(p, ref, "q21-like simd");
    ScalarGuard g(true);
    expectAnswer(p, ref, "q21-like forced-scalar");
}

TEST_F(SimdExecTest, CharPredicatesMatchAcrossDispatches)
{
    using namespace ex;
    auto p = plans::q6();
    p.probe.charPredicates = {{"ol_dist_info", "a", false}};
    p.probe.exprPredicates = {notLike("ol_dist_info", "%b%")};
    const auto ref = referenceExecute(db, p);
    expectAnswer(p, ref, "charpred simd");
    ScalarGuard g(true);
    expectAnswer(p, ref, "charpred forced-scalar");
}

/**
 * Freshly populated database (no OLTP churn): ORDERLINE's
 * ol_dist_info dictionary is fully coded, so the batch executor's
 * pure code-filter fast path is actually taken — and must still
 * answer exactly as the reference executor does.
 */
TEST(SimdExecFresh, DictFastPathActiveAndByteIdentical)
{
    using namespace ex;
    // ol_dist_info is near-unique per row, so at the default 4096
    // cap it stays un-encoded; raise the cap so it freezes (above
    // 255 distinct values — 2-byte codes) and the fast path runs.
    auto cfg = smallConfig();
    cfg.dictMaxCardinality = 16384;
    Database db(cfg);
    OlapEngine engine(db, OlapConfig::pushtapDimm());
    engine.prepareSnapshot(db.now());

    const auto &ol = db.table(ChTable::OrderLine);
    const auto cid = ol.schema().columnId("ol_dist_info");
    ASSERT_NE(ol.store().dictionary(cid), nullptr)
        << "populate-time dictionary missing";
    ASSERT_TRUE(ol.store().dictFullyCoded(cid));
    ASSERT_GE(ol.store().dictionary(cid)->codeWidthBytes(), 2u);

    auto p = plans::q6();
    p.probe.exprPredicates = {like("ol_dist_info", "%a%")};
    AggSpec caseLike;
    caseLike.expr = caseWhen(like("ol_dist_info", "%b%"),
                             col("ol_amount"), lit(0));
    p.aggregates.push_back(caseLike);
    const auto ref = referenceExecute(db, p);
    EXPECT_GT(ol.usedDataRows(), 0u);
    expectReferenceAnswer(db, p, executePlan(db, p), ref, "fresh simd");
    ScalarGuard g(true);
    expectReferenceAnswer(db, p, executePlan(db, p), ref,
                          "fresh forced-scalar");
}

} // namespace
} // namespace pushtap::olap
