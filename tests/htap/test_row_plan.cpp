#include <gtest/gtest.h>

/**
 * @file
 * The compiled row codec on the CH tables: every table of a populated
 * database, in each instance format, re-lays rows out byte for byte
 * as the per-fragment walk does, in every rotation class, both
 * through RowCodec's plans and through TableStore's lane copies; and
 * the modelled re-layout input, fragmentsPerRow, still counts layout
 * fragments.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "format/row_codec.hpp"
#include "htap/pushtap_db.hpp"
#include "support/fragment_walk.hpp"

namespace pushtap::htap {
namespace {

using storage::Region;
using testsupport::LaneBuffers;

/** fragmentsPerRow per CH table (ChTable order) at th = 0.6 over 8
 *  devices with the Q1-Q22 key columns: one per layout fragment,
 *  not per merged copy, since the modelled re-layout charge reads
 *  them. */
constexpr std::uint32_t kFragments[workload::kChTableCount] = {
    14, 17, 60, 12, 3, 8, 12, 5, 34};

std::vector<std::uint8_t>
randomRow(pushtap::Rng &rng, std::size_t bytes)
{
    std::vector<std::uint8_t> row(bytes);
    for (auto &b : row)
        b = static_cast<std::uint8_t>(rng.below(256));
    return row;
}

TEST(RowPlan, ChTablesMatchFragmentWalkInEveryFormatAndClass)
{
    for (const txn::InstanceFormat fmt :
         {txn::InstanceFormat::Unified, txn::InstanceFormat::RowStore,
          txn::InstanceFormat::ColumnStore}) {
        SCOPED_TRACE(static_cast<int>(fmt));
        PushtapOptions opts;
        opts.database.scale = 0.0002;
        opts.format = fmt;
        opts.defragInterval = 0;
        PushtapDB db(opts);
        db.mixed(100);
        pushtap::Rng rng(11);

        for (std::size_t t = 0; t < workload::kChTableCount; ++t) {
            auto &store =
                db.database().table(static_cast<workload::ChTable>(t)).store();
            const auto &layout = store.layout();
            const auto &circ = store.circulant();
            const auto &schema = layout.schema();
            SCOPED_TRACE(schema.name());
            const format::RowCodec codec(layout, circ);
            EXPECT_EQ(codec.fragmentsPerRow(), kFragments[t]);
            ASSERT_TRUE(circ.enabled());

            // The codec alone, at two rows per block: rows 0 .. 2d - 1
            // are one block per rotation class.
            const format::BlockCirculant small(circ.devices(), 2);
            const format::RowCodec small_codec(layout, small);
            const RowId nrows = 2 * circ.devices();
            LaneBuffers planned(layout, nrows, 0x5A),
                walked(layout, nrows, 0x5A);
            std::vector<std::vector<std::uint8_t>> rows;
            for (RowId r = 0; r < nrows; ++r) {
                rows.push_back(randomRow(rng, schema.rowBytes()));
                small_codec.scatter(r, rows.back(), planned.lanes());
                walked.referenceScatter(layout, small, r, rows.back());
            }
            for (std::size_t l = 0; l < planned.laneCount(); ++l)
                EXPECT_EQ(planned.bytes(l), walked.bytes(l)) << "lane " << l;
            for (RowId r = 0; r < nrows; ++r) {
                std::vector<std::uint8_t> out(schema.rowBytes());
                small_codec.gather(r, planned.lanes(), out);
                EXPECT_EQ(out, rows[r]) << "row " << r;
            }

            // The store's lanes at its own block size: the last delta
            // slot of each class's first block (below the region's
            // initial size, so the write does not grow it). Only the
            // written row's slot bytes may change, exactly as the
            // fragment walk writes them.
            for (std::uint32_t cls = 0; cls < circ.devices(); ++cls) {
                const RowId r =
                    RowId{cls} * circ.blockRows() + circ.blockRows() - 1;
                ASSERT_LT(r, store.deltaRows());
                std::vector<std::vector<std::uint8_t>> want;
                for (std::uint32_t p = 0; p < layout.parts().size(); ++p)
                    for (std::uint32_t d = 0; d < layout.devices(); ++d) {
                        const auto bytes = store.partBytes(Region::Delta, p, d);
                        const auto w = layout.parts()[p].rowWidth;
                        want.emplace_back(bytes.begin() + r * w,
                                          bytes.begin() + (r + 1) * w);
                    }
                const auto row = randomRow(rng, schema.rowBytes());
                testsupport::forEachFragment(
                    layout, circ, r,
                    [&](std::uint32_t lane, std::uint32_t off,
                        std::uint32_t canon, std::uint32_t n) {
                        std::copy_n(row.begin() + canon, n,
                                    want[lane].begin() + off);
                    });
                store.writeRow(Region::Delta, r, row);
                for (std::uint32_t p = 0, l = 0; p < layout.parts().size();
                     ++p)
                    for (std::uint32_t d = 0; d < layout.devices(); ++d, ++l) {
                        const auto bytes = store.partBytes(Region::Delta, p, d);
                        const auto w = layout.parts()[p].rowWidth;
                        EXPECT_TRUE(std::ranges::equal(
                            bytes.subspan(r * w, w), want[l]))
                            << "class " << cls << " part " << p
                            << " device " << d;
                    }
                std::vector<std::uint8_t> out(schema.rowBytes());
                store.readRow(Region::Delta, r, out);
                EXPECT_EQ(out, row) << "class " << cls;
            }
        }
    }
}

} // namespace
} // namespace pushtap::htap
