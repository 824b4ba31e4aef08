/**
 * @file
 * Google-benchmark micro-benchmarks for the core kernels: compact
 * aligned bin-packing, row scatter/gather re-layout, snapshot bitmap
 * updates, hash-index lookups, and the batch execution layer (morsel
 * column decode, selection-vector filtering, word-level visibility
 * extraction) vs the row-at-a-time paths — so kernel-level
 * regressions are visible independent of the query suite.
 *
 * The SIMD-vs-scalar benches run each kernel twice (Arg 0 = scalar
 * reference via simd::forceScalarKernels, Arg 1 = the dispatched
 * vector path), and the Char-LIKE benches add the dictionary-code
 * variant vs the raw byte-match path. Results land in
 * BENCH_micro.json (rows/s per kernel and variant), archived by CI
 * next to BENCH_fig9a/9b.json.
 */

#include <benchmark/benchmark.h>

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
#include "format/row_codec.hpp"
#include "olap/batch.hpp"
#include "olap/expr.hpp"
#include "olap/simd_kernels.hpp"
#include "storage/table_store.hpp"
#include "txn/hash_index.hpp"
#include "workload/ch_schema.hpp"

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

void
BM_RowScatterGather(benchmark::State &state)
{
    auto schema =
        workload::chTableSchema(workload::ChTable::OrderLine);
    schema.setKeyColumns({"ol_o_id", "ol_amount", "ol_quantity",
                          "ol_delivery_d"});
    const auto layout = format::compactAligned(schema, 8, 0.6);
    const format::RowCodec codec(layout,
                                 format::BlockCirculant(8, 1024));

    // Flat per-(part, device) regions.
    std::vector<std::vector<std::vector<std::uint8_t>>> regions(
        layout.parts().size());
    for (std::size_t p = 0; p < layout.parts().size(); ++p)
        regions[p].assign(8, std::vector<std::uint8_t>(
                                 4096 * layout.parts()[p].rowWidth));

    std::vector<std::uint8_t> row(schema.rowBytes(), 7);
    std::vector<std::uint8_t> out(schema.rowBytes());
    RowId r = 0;
    for (auto _ : state) {
        codec.scatter(r % 4096, row,
                      [&](std::uint32_t p, std::uint32_t d,
                          std::uint64_t off,
                          std::span<const std::uint8_t> data) {
                          std::copy(data.begin(), data.end(),
                                    regions[p][d].begin() +
                                        static_cast<long>(off));
                      });
        codec.gather(r % 4096,
                     [&](std::uint32_t p, std::uint32_t d,
                         std::uint64_t off,
                         std::span<std::uint8_t> dst) {
                         std::copy_n(regions[p][d].begin() +
                                         static_cast<long>(off),
                                     dst.size(), dst.begin());
                     },
                     out);
        benchmark::DoNotOptimize(out.data());
        ++r;
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2 *
        schema.rowBytes());
}
BENCHMARK(BM_RowScatterGather);

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
    // row is the pinned baseline for the PUSHTAP_SIMD_GATHER_LUT
    // compile-probe revisit (wider in-register tables on AVX-512
    // VBMI hardware) — see the dispatch note in filterDictCodes.
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
    // Bulk single-int existence probe (semi/anti filter join) over a
    // slot-less GroupTable key set: hashKeys1 over the morsel's keys
    // (scalar vs vectorized), then one contains() per row.
    setKernelVariant(state);
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
    std::vector<std::uint64_t> hashes(keys.size());
    olap::SelectionVector all, sel;
    for (std::uint32_t i = 0; i < olap::kMorselRows; ++i)
        all.idx.push_back(i);
    for (auto _ : state) {
        sel.idx = all.idx;
        olap::simd::hashKeys1(keys, hashes);
        olap::InlineKey k;
        k.n = 1;
        std::size_t out = 0;
        for (std::size_t i = 0; i < sel.idx.size(); ++i) {
            k.v[0] = keys[i];
            sel.idx[out] = sel.idx[i];
            out += static_cast<std::size_t>(set.contains(k, hashes[i]));
        }
        sel.idx.resize(out);
        benchmark::DoNotOptimize(sel.idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        olap::kMorselRows);
    olap::simd::forceScalarKernels(false);
}
BENCHMARK(BM_GroupTableProbe)->Arg(0)->Arg(1);

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

/**
 * Console reporter that also collects every iteration run's
 * throughput, so main() can write the machine-readable
 * BENCH_micro.json after the normal console table.
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
            rows.push_back({r.benchmark_name(), r.report_label, ips,
                            r.GetAdjustedRealTime()});
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
                 "  \"rows\": [\n",
                 WorkerPool::hardwareWorkers(),
                 d.forcedScalarBuild ? "true" : "false",
                 d.avx2 ? "true" : "false", d.active);
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
