/**
 * @file
 * Google-benchmark micro-benchmarks for the core kernels: compact
 * aligned bin-packing, TableStore row reads and writes on CUSTOMER
 * and STOCK, one defragmentation pass, snapshot bitmap
 * updates, hash-index lookups, and the batch execution layer (morsel
 * column decode, selection-vector filtering, word-level visibility
 * extraction) vs the row-at-a-time paths — so kernel-level
 * regressions are visible independent of the query suite.
 *
 * The SIMD-vs-scalar benches run each kernel twice (Arg 0 = scalar
 * reference via simd::forceScalarKernels, Arg 1 = the dispatched
 * vector path), and the Char-LIKE benches add the dictionary-code
 * variant vs the raw byte-match path. The join-probe benches compare
 * the hashed GroupTable key set, a node-based set and the
 * direct-addressed BuildTable key set over the same keys,
 * BM_CaseAggOneGroup folds Q21's CASE aggregate over 20k expanded
 * join entries into one group, BM_PoolDispatch times one short
 * WorkerPool job, and
 * BM_TxnGroupBatch one 1,000-transaction TxnWorkerGroup batch.
 * Results land in
 * BENCH_micro.json (rows/s per kernel and variant, the minimum over
 * --benchmark_repetitions, under a header with the host's reference
 * time), archived by CI and committed at the repository root next to
 * BENCH_fig9a.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitmap.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "format/generators.hpp"
#include "htap/pushtap_db.hpp"
#include "mvcc/defragmenter.hpp"
#include "olap/batch.hpp"
#include "olap/expr.hpp"
#include "olap/group_table.hpp"
#include "olap/simd_kernels.hpp"
#include "storage/table_store.hpp"
#include "txn/hash_index.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

#include "bench_util.hpp"

using namespace pushtap;

namespace {

void
BM_CompactAlignedGeneration(benchmark::State &state)
{
    auto schema =
        workload::chTableSchema(workload::ChTable::Customer);
    schema.setKeyColumns({"c_id", "c_balance", "c_ytd_payment",
                          "c_state", "c_since"});
    const double th = static_cast<double>(state.range(0)) / 10.0;
    for (auto _ : state) {
        auto layout = format::compactAligned(schema, 8, th);
        benchmark::DoNotOptimize(layout.parts().size());
    }
}
BENCHMARK(BM_CompactAlignedGeneration)->Arg(0)->Arg(6)->Arg(10);

/** The populated database's layout of CH table @p t: key columns
 *  from Q1-Q22, 8 devices, th = 0.6. */
format::TableLayout
chLayout(workload::ChTable t, format::TableSchema &schema)
{
    auto schemas = workload::chBenchmarkSchemas();
    workload::markKeyColumns(schemas, 22);
    schema = std::move(schemas[static_cast<std::size_t>(t)]);
    return format::compactAligned(schema, 8, 0.6);
}

void
BM_TableStoreRow(benchmark::State &state)
{
    // One row re-layout each way, TableStore::readRow from the data
    // region then writeRow into the delta region, on CUSTOMER (Arg 0)
    // and STOCK (Arg 1), over 8 blocks so every rotation class runs.
    const auto t = state.range(0) == 0 ? workload::ChTable::Customer
                                       : workload::ChTable::Stock;
    format::TableSchema schema;
    const auto layout = chLayout(t, schema);
    constexpr RowId kRows = 8 * 1024;
    storage::TableStore store(layout, format::BlockCirculant(8, 1024),
                              kRows, kRows);
    std::vector<std::uint8_t> row(schema.rowBytes());
    Rng rng(3);
    for (RowId r = 0; r < kRows; ++r) {
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        store.writeRow(storage::Region::Data, r, row);
    }
    RowId r = 0;
    for (auto _ : state) {
        store.readRow(storage::Region::Data, r, row);
        store.writeRow(storage::Region::Delta, r, row);
        benchmark::DoNotOptimize(row.data());
        r = (r + 1) % kRows;
    }
    state.SetLabel(state.range(0) == 0 ? "customer" : "stock");
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TableStoreRow)->Arg(0)->Arg(1);

void
BM_DefragPass(benchmark::State &state)
{
    // One defragmentation pass over 8,192 newly inserted ORDERLINE
    // rows, the shape NewOrder leaves behind: data rows and delta
    // slots both step by one, so the pass copies whole runs. The
    // versions are re-added untimed before each pass (the delta
    // bytes stay put, and the allocator hands out the same slots).
    format::TableSchema schema;
    const auto layout = chLayout(workload::ChTable::OrderLine, schema);
    constexpr RowId kRows = 8 * 1024;
    const format::BlockCirculant circ(8, 1024);
    storage::TableStore store(layout, circ, kRows, kRows);
    mvcc::VersionManager vm(circ, kRows, kRows);
    const mvcc::Defragmenter defrag(Bandwidth::gbPerSec(100.0),
                                    Bandwidth::gbPerSec(1000.0), 8);
    std::vector<std::uint8_t> row(schema.rowBytes());
    Rng rng(4);
    for (RowId r = 0; r < kRows; ++r) {
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        store.writeRow(storage::Region::Delta, vm.allocDeltaSlot(r), row);
    }
    vm.reset();
    Timestamp ts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (RowId r = 0; r < kRows; ++r)
            vm.addVersion(r, vm.allocDeltaSlot(r), ++ts);
        state.ResumeTiming();
        const auto stats =
            defrag.run(store, vm, mvcc::DefragStrategy::Hybrid);
        benchmark::DoNotOptimize(stats.bytesMoved);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_DefragPass);

void
BM_SnapshotBitmapUpdate(benchmark::State &state)
{
    Bitmap data(1 << 20, true), delta(1 << 20, false);
    Rng rng(5);
    for (auto _ : state) {
        const auto row = rng.below(1 << 20);
        data.clear(row);
        delta.set(row);
        benchmark::DoNotOptimize(delta.test(row));
    }
}
BENCHMARK(BM_SnapshotBitmapUpdate);

void
BM_BitmapFindNext(benchmark::State &state)
{
    Bitmap b(1 << 20);
    for (std::size_t i = 0; i < (1 << 20); i += 97)
        b.set(i);
    std::size_t pos = 0;
    for (auto _ : state) {
        pos = b.findNext(pos + 1);
        if (pos >= b.size())
            pos = 0;
        benchmark::DoNotOptimize(pos);
    }
}
BENCHMARK(BM_BitmapFindNext);

/**
 * A populated ORDERLINE-format store for the batch-kernel benches
 * (owns the layout/schema the store references). ol_dist_info is
 * drawn from 64 distinct strings so the post-populate dictionary
 * build freezes it at cardinality 64 (1-byte codes) — the dict-LIKE
 * benches run against it.
 */
struct BenchStore
{
    static constexpr std::uint64_t kRows = 1 << 16;
    static constexpr std::uint32_t kDistinctDist = 64;

    format::TableSchema schema;
    format::TableLayout layout;
    storage::TableStore store;

    BenchStore()
        : schema([] {
              auto s = workload::chTableSchema(
                  workload::ChTable::OrderLine);
              s.setKeyColumns({"ol_o_id", "ol_amount",
                               "ol_quantity", "ol_delivery_d"});
              return s;
          }()),
          layout(format::compactAligned(schema, 8, 0.6)),
          store(layout, format::BlockCirculant(8, 1024), kRows, 16)
    {
        const ColumnId dist = schema.columnId("ol_dist_info");
        const std::uint32_t doff = schema.canonicalOffset(dist);
        const std::uint32_t dw = schema.column(dist).width;
        Rng rng(31);
        std::vector<std::uint8_t> row(schema.rowBytes());
        char dval[32];
        for (RowId r = 0; r < kRows; ++r) {
            for (auto &b : row)
                b = static_cast<std::uint8_t>(rng());
            std::snprintf(dval, sizeof dval,
                          "dist-%02u-abcdefghijklmnop",
                          static_cast<std::uint32_t>(
                              rng.below(kDistinctDist)));
            std::memcpy(row.data() + doff, dval, dw);
            store.writeRow(storage::Region::Data, r, row);
        }
        store.buildDictionaries(4096);
    }

    static const BenchStore &
    instance()
    {
        static const BenchStore bs;
        return bs;
    }
};

/**
 * Resolve a bench's variant arg (0 = forced scalar reference, 1 =
 * dispatched kernels) and label the run for the JSON artifact.
 */
void
setKernelVariant(benchmark::State &state)
{
    olap::simd::forceScalarKernels(state.range(0) == 0);
    state.SetLabel(olap::simd::simdActive() ? "avx2" : "scalar");
}

void
BM_MorselDecodeInt(benchmark::State &state)
{
    // Morsel-at-a-time stride decode of one Int column (the batch
    // executor's hot gather), rows/sec.
    setKernelVariant(state);
    const auto &bs = BenchStore::instance();
    const olap::BatchColumnReader rd(bs.store, "ol_amount");
    olap::SelectionVector sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        sel.idx.push_back(i);
    olap::ColumnBatch batch;
    RowId base = 0;
    for (auto _ : state) {
        const olap::Morsel m{storage::Region::Data, base,
                             olap::kMorselRows};
        rd.gatherInts(m, sel.span(), batch);
        benchmark::DoNotOptimize(batch.ints.data());
        base = (base + olap::kMorselRows) % BenchStore::kRows;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_MorselDecodeInt)->Arg(0)->Arg(1);

void
BM_RowAtATimeDecodeInt(benchmark::State &state)
{
    // The pre-batching per-row path (scratch buffer + decodeValue)
    // over the same column, for contrast with BM_MorselDecodeInt.
    const auto &bs = BenchStore::instance();
    const ColumnId col = bs.schema.columnId("ol_amount");
    const auto &column = bs.schema.column(col);
    std::vector<std::uint8_t> buf(column.width);
    RowId r = 0;
    std::int64_t sink = 0;
    for (auto _ : state) {
        bs.store.readColumnBytes(storage::Region::Data, col, r,
                                 buf);
        sink += format::decodeValue(column, buf);
        benchmark::DoNotOptimize(sink);
        r = (r + 1) % BenchStore::kRows;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RowAtATimeDecodeInt);

void
BM_MorselFilterRange(benchmark::State &state)
{
    // Fused decode + selection-vector range filter per morsel: the
    // whole predicate pass of a Q6-style scan, rows/sec.
    setKernelVariant(state);
    const auto &bs = BenchStore::instance();
    const olap::BatchColumnReader rd(bs.store, "ol_quantity");
    olap::SelectionVector all;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    olap::SelectionVector sel;
    olap::ColumnBatch batch;
    RowId base = 0;
    for (auto _ : state) {
        const olap::Morsel m{storage::Region::Data, base,
                             olap::kMorselRows};
        sel.idx = all.idx;
        rd.gatherInts(m, sel.span(), batch);
        olap::filterIntRange(batch.ints, sel, -64, 63);
        benchmark::DoNotOptimize(sel.idx.data());
        base = (base + olap::kMorselRows) % BenchStore::kRows;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_MorselFilterRange)->Arg(0)->Arg(1);

void
BM_BitmapCollectSetBits(benchmark::State &state)
{
    // Word-level visibility extraction (morsel selection build) vs
    // the bit-by-bit findNext walk of BM_BitmapFindNext.
    Bitmap b(1 << 20);
    for (std::size_t i = 0; i < (1 << 20); i += 3)
        b.set(i);
    std::vector<std::uint32_t> out;
    std::size_t from = 0;
    for (auto _ : state) {
        out.clear();
        b.collectSetBits(from, from + olap::kMorselRows, out);
        benchmark::DoNotOptimize(out.data());
        from = (from + olap::kMorselRows) % ((1 << 20) -
                                            olap::kMorselRows);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
}
BENCHMARK(BM_BitmapCollectSetBits);

void
BM_FilterCompare(benchmark::State &state)
{
    // Fused compare+select vs a literal (the expression executor's
    // comparison root), scalar vs AVX2.
    setKernelVariant(state);
    Rng rng(11);
    std::vector<std::int64_t> vals(olap::kMorselRows);
    for (auto &v : vals)
        v = static_cast<std::int64_t>(rng.below(1000)) - 500;
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::filterCompare(vals, sel, olap::ExprOp::Gt, 0);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_FilterCompare)->Arg(0)->Arg(1);

void
BM_CompactByNonzero(benchmark::State &state)
{
    // Selection compaction off a boolean vector (the generic
    // expression-predicate tail), scalar vs AVX2.
    setKernelVariant(state);
    Rng rng(13);
    std::vector<std::int64_t> keep(olap::kMorselRows);
    for (auto &v : keep)
        v = rng.below(2);
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::compactByNonzero(keep, sel);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_CompactByNonzero)->Arg(0)->Arg(1);

void
BM_FilterDictCodes(benchmark::State &state)
{
    // Dictionary-code predicate filter (LUT lookup + compaction),
    // scalar vs AVX2.
    setKernelVariant(state);
    Rng rng(17);
    const std::uint32_t card = BenchStore::kDistinctDist;
    std::vector<std::uint32_t> codes(olap::kMorselRows);
    for (auto &c : codes)
        c = static_cast<std::uint32_t>(rng.below(card));
    std::vector<std::uint32_t> lut(card + 1, 0);
    for (std::uint32_t c = 0; c < card; c += 3)
        lut[c] = 1;
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::filterDictCodes(codes, sel, lut, false);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_FilterDictCodes)->Arg(0)->Arg(1);

void
BM_FilterDictCodesSmallLut(benchmark::State &state)
{
    // The same LUT filter over a tiny dictionary (<= 16 distinct
    // values): the dispatched variant takes the pshufb in-register
    // truth table instead of the 32-bit gather, so this row is the
    // per-variant record of where the gather parity was beaten.
    setKernelVariant(state);
    if (olap::simd::simdActive())
        state.SetLabel("avx2-pshufb");
    Rng rng(19);
    const std::uint32_t card = 12;
    std::vector<std::uint32_t> codes(olap::kMorselRows);
    for (auto &c : codes)
        c = static_cast<std::uint32_t>(rng.below(card));
    std::vector<std::uint32_t> lut(card + 1, 0);
    for (std::uint32_t c = 0; c < card; c += 3)
        lut[c] = 1;
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::filterDictCodes(codes, sel, lut, false);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_FilterDictCodesSmallLut)->Arg(0)->Arg(1);

void
BM_FilterDictCodesGatherLut(benchmark::State &state)
{
    // Isolates the i32-gather LUT variant: 1024 distinct values keep
    // the dictionary far above the 16-entry pshufb ceiling, so the
    // dispatched AVX2 path is always the latency-bound gather. This
    // row is the baseline a wider in-register table (an AVX-512 VBMI
    // vpermb over 64- or 128-entry LUTs) would be measured against.
    setKernelVariant(state);
    if (olap::simd::simdActive())
        state.SetLabel("avx2-gather");
    Rng rng(23);
    const std::uint32_t card = 1024;
    std::vector<std::uint32_t> codes(olap::kMorselRows);
    for (auto &c : codes)
        c = static_cast<std::uint32_t>(rng.below(card));
    std::vector<std::uint32_t> lut(card + 1, 0);
    for (std::uint32_t c = 0; c < card; c += 3)
        lut[c] = 1;
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::filterDictCodes(codes, sel, lut, false);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_FilterDictCodesGatherLut)->Arg(0)->Arg(1);

void
BM_CharLikeRaw(benchmark::State &state)
{
    // LIKE over raw Char bytes: gather 24-byte payloads, per-row
    // likeMatch — the path every executor took before dictionary
    // encoding (and still takes for delta morsels).
    olap::simd::forceScalarKernels(false);
    state.SetLabel("raw");
    const auto &bs = BenchStore::instance();
    const olap::BatchColumnReader rd(bs.store, "ol_dist_info");
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    olap::ColumnBatch batch;
    RowId base = 0;
    for (auto _ : state) {
        const olap::Morsel m{storage::Region::Data, base,
                             olap::kMorselRows};
        sel.idx = all.idx;
        rd.gatherChars(m, sel.span(), batch);
        olap::filterCharLike(batch.chars, rd.column().width, sel,
                             "%-3%", false);
        benchmark::DoNotOptimize(sel.idx.data());
        base = (base + olap::kMorselRows) % BenchStore::kRows;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
}
BENCHMARK(BM_CharLikeRaw);

void
BM_CharLikeDict(benchmark::State &state)
{
    // The same LIKE over the frozen dictionary: pattern evaluated
    // once per cardinality into a LUT, then gather packed codes and
    // filter them (scalar vs AVX2 code filter).
    setKernelVariant(state);
    state.SetLabel(std::string("dict-") +
                   (olap::simd::simdActive() ? "avx2" : "scalar"));
    const auto &bs = BenchStore::instance();
    const olap::BatchColumnReader rd(bs.store, "ol_dist_info");
    const auto *dict = rd.dict();
    if (dict == nullptr) {
        state.SkipWithError("ol_dist_info not dict-encoded");
        return;
    }
    const auto lut =
        dict->matchTable([](std::span<const std::uint8_t> v) {
            return olap::likeMatch(v, "%-3%");
        });
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    olap::ColumnBatch batch;
    RowId base = 0;
    for (auto _ : state) {
        const olap::Morsel m{storage::Region::Data, base,
                             olap::kMorselRows};
        sel.idx = all.idx;
        rd.gatherCodes(m, sel.span(), batch);
        olap::simd::filterDictCodes(batch.codes, sel, lut, false);
        benchmark::DoNotOptimize(sel.idx.data());
        base = (base + olap::kMorselRows) % BenchStore::kRows;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_CharLikeDict)->Arg(0)->Arg(1);

void
BM_GroupTableProbe(benchmark::State &state)
{
    // Single-int existence probe (semi/anti filter join) over a
    // slot-less GroupTable key set: one hash and contains() per row.
    state.SetLabel("hashed");
    Rng rng(19);
    olap::GroupTable set(1, 0);
    for (int i = 0; i < (1 << 15); ++i) {
        olap::InlineKey k;
        k.n = 1;
        k.v[0] = static_cast<std::int64_t>(i) * 2; // even = member
        set.findOrInsert(k);
    }
    std::vector<std::int64_t> keys(olap::kMorselRows);
    for (auto &k : keys)
        k = static_cast<std::int64_t>(rng.below(1 << 16));
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::InlineKey k;
        k.n = 1;
        std::size_t out = 0;
        for (std::size_t i = 0; i < sel.idx.size(); ++i) {
            k.v[0] = keys[i];
            sel.idx[out] = sel.idx[i];
            out += static_cast<std::size_t>(set.contains(k));
        }
        sel.idx.resize(out);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
}
BENCHMARK(BM_GroupTableProbe);

void
BM_DenseKeySetProbe(benchmark::State &state)
{
    // The same members and probes over the direct-addressed key set a
    // semi/anti join builds when its key domain is dense: one range
    // check and one bit test per row, no hash.
    state.SetLabel("dense");
    Rng rng(19);
    olap::BuildRows rows;
    rows.keys.resize(1);
    std::vector<std::int64_t> members;
    for (int i = 0; i < (1 << 15); ++i)
        members.push_back(static_cast<std::int64_t>(i) * 2);
    rows.appendKeys(0, members);
    rows.rows = members.size();
    const auto set = olap::BuildTable::keySet(
        1, std::span<const olap::BuildRows>(&rows, 1), nullptr);
    if (set.denseSlots() == 0) {
        state.SkipWithError("key set did not place dense");
        return;
    }
    std::vector<std::int64_t> keys(olap::kMorselRows);
    for (auto &k : keys)
        k = static_cast<std::int64_t>(rng.below(1 << 16));
    std::vector<std::uint64_t> locs;
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        set.find(
            keys.size(),
            [&](std::size_t) {
                return std::span<const std::int64_t>(keys);
            },
            locs);
        std::size_t out = 0;
        for (std::size_t i = 0; i < sel.idx.size(); ++i) {
            sel.idx[out] = sel.idx[i];
            out += static_cast<std::size_t>(set.contains(locs[i]));
        }
        sel.idx.resize(out);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
}
BENCHMARK(BM_DenseKeySetProbe);

void
BM_UnorderedSetProbe(benchmark::State &state)
{
    // The same probe over a node-based std::unordered_set, which the
    // filter joins used before the flat key sets, for contrast.
    state.SetLabel("stdhash");
    Rng rng(19);
    std::unordered_set<olap::InlineKey, olap::InlineKeyHash> set;
    for (int i = 0; i < (1 << 15); ++i) {
        olap::InlineKey k;
        k.n = 1;
        k.v[0] = static_cast<std::int64_t>(i) * 2;
        set.insert(k);
    }
    std::vector<std::int64_t> keys(olap::kMorselRows);
    for (auto &k : keys)
        k = static_cast<std::int64_t>(rng.below(1 << 16));
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        std::size_t out = 0;
        for (const auto i : sel.idx) {
            olap::InlineKey k;
            k.n = 1;
            k.v[0] = keys[i];
            if (set.count(k) != 0)
                sel.idx[out++] = i;
        }
        sel.idx.resize(out);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
}
BENCHMARK(BM_UnorderedSetProbe);

/**
 * Q21's late-delivery aggregate over 20k expanded join entries:
 * CASE WHEN ol_delivery_d > o_entry_d + 50 THEN 1 ELSE 0, evaluated
 * column-at-a-time (evalExprBatch) and summed by GroupFold into one
 * group, the ol_supply_w_id of a one-warehouse database. The
 * post-join fold every expanded entry pays.
 */
void
BM_CaseAggOneGroup(benchmark::State &state)
{
    constexpr std::size_t kEntries = 20'000;
    class Columns final : public olap::BatchExprContext
    {
      public:
        std::vector<std::int64_t> delivery, entry;

        std::size_t entries() const override { return delivery.size(); }

        std::span<const std::int64_t>
        ints(const olap::ColRef &ref) override
        {
            return ref.side == olap::ColRef::kProbe ? delivery : entry;
        }

        std::span<const std::uint8_t>
        chars(const olap::ColRef &, std::uint32_t &) override
        {
            return {};
        }

        std::span<const std::int64_t>
        subqueryValues(const olap::Expr &) override
        {
            return {};
        }
    };
    Rng rng(21);
    Columns ctx;
    for (std::size_t i = 0; i < kEntries; ++i) {
        const auto entry = rng.inRange(0, 1'000'000);
        ctx.entry.push_back(entry);
        ctx.delivery.push_back(entry + rng.inRange(1, 100));
    }
    const auto expr = olap::foldConstants(
        workload::executableQueryPlan(21)->aggregates[0].expr);
    const std::vector<std::int64_t> supply_w(kEntries, 0);
    const std::span<const std::int64_t> keys[] = {supply_w};
    std::vector<std::int64_t> late;
    olap::GroupFold fold(1, {olap::AggKind::Sum});
    for (auto _ : state) {
        olap::evalExprBatch(*expr, ctx, late);
        const std::span<const std::int64_t> vals[] = {late};
        fold.fold(kEntries, keys, vals);
        benchmark::DoNotOptimize(late.data());
    }
    fold.flush(fold.table());
    benchmark::DoNotOptimize(fold.table().size());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kEntries));
}
BENCHMARK(BM_CaseAggOneGroup);

void
BM_HashIndexLookup(benchmark::State &state)
{
    txn::HashIndex idx(1 << 16);
    Rng rng(9);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < (1 << 16); ++i) {
        keys.push_back(rng());
        idx.insert(keys.back(), static_cast<RowId>(i));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            idx.lookup(keys[i++ & (keys.size() - 1)]));
    }
}
BENCHMARK(BM_HashIndexLookup);

/** One no-op task per CH table on a 4-worker pool: the shape of the
 *  engine's per-query snapshot pass, so the row is the pool's
 *  dispatch and completion cost alone. */
void
BM_PoolDispatch(benchmark::State &state)
{
    WorkerPool pool(4);
    for (auto _ : state)
        pool.parallelFor(workload::kChTableCount,
                         [](std::uint32_t, std::size_t t) {
                             benchmark::DoNotOptimize(t);
                         });
}
BENCHMARK(BM_PoolDispatch)->UseRealTime();

/**
 * One 1,000-transaction TxnWorkerGroup::run on 3 workers at scale
 * 0.002: the htap workload's ingest batch without its queries. Its
 * one warehouse is one partition, so one worker drains the batch.
 * Every 10th batch a defragmentation pass runs outside the timed
 * region. Each call populates its own database, with insert room
 * for every batch it times.
 */
void
BM_TxnGroupBatch(benchmark::State &state)
{
    constexpr double kScale = 0.002;
    constexpr std::uint64_t kBatch = 1'000;
    htap::PushtapOptions o;
    o.database.scale = kScale;
    // A batch inserts at most kBatch rows into ORDERS, HISTORY and
    // NEW_ORDER and ten times that into ORDERLINE: as a share of each
    // table's rows, at most kBatch / |ORDERS| per batch.
    o.database.insertHeadroom =
        static_cast<double>((state.max_iterations + 1) * kBatch) /
        static_cast<double>(
            workload::chRowCounts(kScale).at(workload::ChTable::Orders));
    htap::PushtapDB db(o);
    const format::BandwidthModel bw(o.database.devices,
                                    o.olap.geom.interleaveGranularity,
                                    o.olap.geom.stripedLines);
    const dram::BatchTimingModel timing(o.olap.geom, o.olap.timing);
    txn::TxnWorkerGroupOptions opts;
    opts.workers = 3;
    opts.seed = o.txnSeed;
    txn::TxnWorkerGroup group(db.database(), o.format, bw, timing, opts);
    std::uint64_t batches = 0;
    for (auto _ : state) {
        group.run(kBatch);
        if (++batches % 10 == 0) {
            state.PauseTiming();
            db.defragment();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_TxnGroupBatch)->UseRealTime();

/**
 * Console reporter that also collects every iteration run's
 * throughput, so main() can write the machine-readable
 * BENCH_micro.json after the normal console table. Under
 * --benchmark_repetitions it keeps one row per name, the repetition
 * with the least real time, so a row reads the kernel's best case
 * rather than whichever repetition host interference hit.
 */
class JsonCollector : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;    ///< Full benchmark name (with args).
        std::string variant; ///< SetLabel tag (scalar/avx2/dict/..).
        double itemsPerSec;  ///< rows/s (0 when not item-counted).
        double realNs;       ///< ns per iteration.
    };

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        ConsoleReporter::ReportRuns(reports);
        for (const auto &r : reports) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            const double ips =
                r.counters.count("items_per_second")
                    ? static_cast<double>(
                          r.counters.at("items_per_second"))
                    : 0.0;
            Row row{r.benchmark_name(), r.report_label, ips,
                    r.GetAdjustedRealTime()};
            auto same = std::find_if(
                rows.begin(), rows.end(),
                [&](const Row &o) { return o.name == row.name; });
            if (same == rows.end())
                rows.push_back(std::move(row));
            else if (row.realNs < same->realNs)
                *same = std::move(row);
        }
    }

    std::vector<Row> rows;
};

void
writeJson(const std::vector<JsonCollector::Row> &rows,
          const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    const auto &d = olap::simd::kernelDispatch();
    std::fprintf(f,
                 "{\n  \"figure\": \"micro\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"dispatch\": {\"forced_scalar_build\": %s, "
                 "\"avx2\": %s, \"active\": \"%s\"},\n"
                 "  \"isa\": %s,\n"
                 "  \"reference_ns\": %.0f,\n"
                 "  \"rows\": [\n",
                 WorkerPool::hardwareWorkers(),
                 d.forcedScalarBuild ? "true" : "false",
                 d.avx2 ? "true" : "false", d.active,
                 benchutil::isaJson().c_str(), benchutil::referenceNs());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        // Kernel = the registered name up to the first arg suffix.
        const auto slash = r.name.find('/');
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"kernel\": \"%s\", "
                     "\"variant\": \"%s\", "
                     "\"items_per_sec\": %.0f, "
                     "\"real_ns_per_iter\": %.1f}%s\n",
                     r.name.c_str(),
                     r.name.substr(0, slash).c_str(),
                     r.variant.empty() ? "default"
                                       : r.variant.c_str(),
                     r.itemsPerSec, r.realNs,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu rows)\n", path, rows.size());
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);
    writeJson(collector.rows, "BENCH_micro.json");
    benchmark::Shutdown();
    return 0;
}
