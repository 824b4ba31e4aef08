#include <gtest/gtest.h>

#include "common/log.hpp"

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "mvcc/defragmenter.hpp"
#include "mvcc/snapshotter.hpp"

namespace pushtap::mvcc {
namespace {

/**
 * Randomised MVCC stress: interleave updates, snapshots and
 * defragmentations, and after every snapshot check the bitmap state
 * against a simple model (a map from row to its latest committed
 * value at the snapshot timestamp).
 */
class MvccStress : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    MvccStress()
        : schema("t",
                 {
                     {"k", 4, format::ColType::Int, true},
                     {"v", 8, format::ColType::Int, true},
                 }),
          layout(format::compactAligned(schema, 4, 0.6)),
          circ(4, 16),
          store(layout, circ, kRows, 64),
          vm(circ, 1 << 20, kRows),
          defrag(Bandwidth::gbPerSec(100.0),
                 Bandwidth::gbPerSec(1000.0), 4)
    {
        // Populate: value = row id.
        std::vector<std::uint8_t> row(schema.rowBytes(), 0);
        for (RowId r = 0; r < kRows; ++r) {
            writeValue(row, static_cast<std::int64_t>(r));
            store.writeRow(storage::Region::Data, r, row);
            model_[r] = static_cast<std::int64_t>(r);
        }
    }

    static constexpr std::uint64_t kRows = 64;

    void
    writeValue(std::vector<std::uint8_t> &row, std::int64_t v)
    {
        for (int i = 0; i < 8; ++i)
            row[4 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
    }

    void
    update(RowId r, std::int64_t v, Timestamp ts)
    {
        std::vector<std::uint8_t> row(schema.rowBytes(), 0);
        writeValue(row, v);
        const RowId slot = vm.allocDeltaSlot(r);
        store.writeRow(storage::Region::Delta, slot, row);
        vm.addVersion(r, slot, ts);
        pendingModel_[r] = {ts, v};
    }

    /** Fold pending updates with ts <= snap into the model. */
    void
    modelSnapshot(Timestamp snap)
    {
        for (auto it = pendingModel_.begin();
             it != pendingModel_.end();) {
            if (it->second.first <= snap) {
                model_[it->first] = it->second.second;
                it = pendingModel_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** Read the visible value of each row via the bitmaps. */
    std::map<RowId, std::int64_t>
    visibleValues()
    {
        std::map<RowId, std::int64_t> out;
        const auto c_v = schema.columnId("v");
        const auto &dv = store.dataVisible();
        for (std::size_t r = dv.findNext(0); r < dv.size();
             r = dv.findNext(r + 1)) {
            const auto k = store.columnValue(
                storage::Region::Data, schema.columnId("k"),
                static_cast<RowId>(r));
            (void)k;
            out[static_cast<RowId>(r)] = store.columnValue(
                storage::Region::Data, c_v,
                static_cast<RowId>(r));
        }
        // Delta-visible rows override their origin rows: find the
        // origin through the version list.
        const auto &xv = store.deltaVisible();
        std::map<RowId, RowId> slot_to_row;
        for (const auto &v : vm.versions())
            slot_to_row[v.deltaSlot] = v.rowId;
        for (std::size_t s = xv.findNext(0); s < xv.size();
             s = xv.findNext(s + 1)) {
            const auto origin =
                slot_to_row.at(static_cast<RowId>(s));
            out[origin] = store.columnValue(
                storage::Region::Delta, c_v,
                static_cast<RowId>(s));
        }
        return out;
    }

    format::TableSchema schema;
    format::TableLayout layout;
    format::BlockCirculant circ;
    storage::TableStore store;
    VersionManager vm;
    Snapshotter snap;
    Defragmenter defrag;
    std::map<RowId, std::int64_t> model_;
    std::map<RowId, std::pair<Timestamp, std::int64_t>>
        pendingModel_;
};

TEST_P(MvccStress, SnapshotAlwaysMatchesModel)
{
    pushtap::Rng rng(GetParam());
    Timestamp ts = 0;
    for (int step = 0; step < 400; ++step) {
        const double dice = rng.uniform();
        if (dice < 0.70) {
            const RowId r = rng.below(kRows);
            update(r, rng.inRange(-1'000'000, 1'000'000), ++ts);
        } else if (dice < 0.95) {
            const Timestamp at = ts;
            snap.snapshot(store, vm, at);
            modelSnapshot(at);
            const auto vis = visibleValues();
            ASSERT_EQ(vis.size(), kRows) << "seed " << GetParam()
                                         << " step " << step;
            for (const auto &[row, value] : model_)
                ASSERT_EQ(vis.at(row), value)
                    << "row " << row << " seed " << GetParam()
                    << " step " << step;
        } else {
            // Defragment: first bring bitmaps current, then clean.
            snap.snapshot(store, vm, ts);
            modelSnapshot(ts);
            defrag.run(store, vm, DefragStrategy::Hybrid);
            snap.rewind();
            // After defrag everything lives in the data region.
            EXPECT_EQ(store.deltaVisible().count(), 0u);
            EXPECT_EQ(vm.deltaUsed(), 0u);
            const auto vis = visibleValues();
            for (const auto &[row, value] : model_)
                ASSERT_EQ(vis.at(row), value)
                    << "post-defrag row " << row;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccStress,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace pushtap::mvcc
