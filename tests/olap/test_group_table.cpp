#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "olap/batch.hpp"
#include "olap/group_table.hpp"

namespace pushtap::olap {
namespace {

InlineKey
key2(std::int64_t a, std::int64_t b)
{
    InlineKey k;
    k.n = 2;
    k.v[0] = a;
    k.v[1] = b;
    return k;
}

/** Fold v into slot 0 (sum) and slot 1 (max) of a group. */
void
add(GroupTable &t, const InlineKey &k, std::int64_t v)
{
    const auto g = t.findOrInsert(k);
    const bool first = *g.count == 0;
    foldValue(g.aggs[0], AggKind::Sum, v, first);
    foldValue(g.aggs[1], AggKind::Max, v, first);
    ++*g.count;
}

using Expected =
    std::map<std::pair<std::int64_t, std::int64_t>,
             std::tuple<std::int64_t, std::int64_t, std::uint64_t>>;

void
expectTable(const GroupTable &t, const Expected &want)
{
    ASSERT_EQ(t.size(), want.size());
    std::size_t seen = 0;
    t.forEach([&](const std::int64_t *key, const std::int64_t *aggs,
                  std::uint64_t count) {
        const auto it = want.find({key[0], key[1]});
        ASSERT_NE(it, want.end());
        EXPECT_EQ(aggs[0], std::get<0>(it->second));
        EXPECT_EQ(aggs[1], std::get<1>(it->second));
        EXPECT_EQ(count, std::get<2>(it->second));
        ++seen;
    });
    EXPECT_EQ(seen, want.size());
}

TEST(GroupTable, MatchesOrderedMapAcrossGrowth)
{
    // Enough keys to grow every partition's index many times, with
    // repeats so existing groups are found again after each rehash.
    GroupTable t(2, 2);
    Expected want;
    Rng rng(7);
    for (int i = 0; i < 50'000; ++i) {
        const auto a = rng.inRange(-500, 500);
        const auto b = rng.inRange(0, 40);
        const auto v = rng.inRange(-1000, 1000);
        add(t, key2(a, b), v);
        auto [it, fresh] = want.try_emplace({a, b}, v, v, 0);
        auto &[sum, mx, count] = it->second;
        if (!fresh) {
            sum += v;
            mx = std::max(mx, v);
        }
        ++count;
    }
    expectTable(t, want);
    for (const auto &[k, vals] : want) {
        const std::int64_t *aggs = t.find(key2(k.first, k.second));
        ASSERT_NE(aggs, nullptr);
        EXPECT_EQ(aggs[0], std::get<0>(vals));
    }
    EXPECT_EQ(t.find(key2(501, 0)), nullptr);
    InlineKey narrow;
    narrow.n = 1;
    EXPECT_EQ(t.find(narrow), nullptr) << "arity mismatch never hits";
}

TEST(GroupTable, PartitionMergeEqualsSerialFold)
{
    // Three per-worker tables over overlapping key sets, merged
    // partition by partition (concurrently), equal one table fed
    // every row.
    std::vector<GroupTable> parts(3, GroupTable(2, 2));
    GroupTable serial(2, 2);
    Rng rng(11);
    for (int i = 0; i < 20'000; ++i) {
        const auto k = key2(rng.inRange(0, 3000), rng.inRange(0, 3));
        const auto v = rng.inRange(-50, 50);
        add(parts[static_cast<std::size_t>(i % 3)], k, v);
        add(serial, k, v);
    }
    WorkerPool pool(4);
    pool.parallelFor(kHashPartitions, [&](std::uint32_t,
                                          std::size_t p) {
        for (std::size_t w = 1; w < parts.size(); ++w)
            parts[0].mergePartition(
                p, parts[w],
                [](GroupTable::Group into, const std::int64_t *from,
                   std::uint64_t from_count) {
                    const bool first = *into.count == 0;
                    foldValue(into.aggs[0], AggKind::Sum, from[0],
                              first);
                    foldValue(into.aggs[1], AggKind::Max, from[1],
                              first);
                    *into.count += from_count;
                });
    });
    Expected want;
    serial.forEach([&](const std::int64_t *key,
                       const std::int64_t *aggs, std::uint64_t count) {
        want[{key[0], key[1]}] = {aggs[0], aggs[1], count};
    });
    expectTable(parts[0], want);
}

/** A key of @p arity with components drawn from [-lo_hi, lo_hi]. */
InlineKey
drawKey(Rng &rng, std::uint32_t arity, std::int64_t lo_hi)
{
    InlineKey k;
    k.n = arity;
    for (std::uint32_t c = 0; c < arity; ++c)
        k.v[c] = rng.inRange(-lo_hi, lo_hi);
    return k;
}

std::vector<std::int64_t>
tupleOf(const InlineKey &k)
{
    return {k.v.begin(), k.v.begin() + k.n};
}

/** The executor's semi/anti filter over a key set: indices of the
 *  probe keys kept (found != anti). */
std::vector<std::size_t>
filterKeys(const GroupTable &set, const std::vector<InlineKey> &probe,
           bool anti)
{
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < probe.size(); ++i)
        if (set.contains(probe[i], InlineKeyHash{}(probe[i])) != anti)
            kept.push_back(i);
    return kept;
}

TEST(GroupTable, ContainsMatchesOrderedSetAtEveryArity)
{
    // Slot-less key sets (the semi/anti join builds) at arity 1-3:
    // small component domains make repeats and misses both common,
    // and the int64 extremes sit in the set at arity 1.
    for (const std::uint32_t arity : {1u, 2u, 3u}) {
        GroupTable set(arity, 0);
        std::set<std::vector<std::int64_t>> ref;
        Rng rng(17 + arity);
        const std::int64_t span = arity == 1 ? 4000 : 40;
        auto insert = [&](const InlineKey &k) {
            set.findOrInsert(k, InlineKeyHash{}(k));
            ref.insert(tupleOf(k));
        };
        for (int i = 0; i < 6000; ++i)
            insert(drawKey(rng, arity, span));
        if (arity == 1)
            for (const std::int64_t v :
                 {std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max()}) {
                InlineKey k;
                k.n = 1;
                k.v[0] = v;
                insert(k);
            }
        ASSERT_EQ(set.size(), ref.size()) << "arity " << arity;
        std::vector<InlineKey> probe;
        for (int i = 0; i < 6000; ++i)
            probe.push_back(drawKey(rng, arity, span + span / 4));
        for (const auto &k : ref) {
            InlineKey ik;
            ik.n = arity;
            std::copy(k.begin(), k.end(), ik.v.begin());
            probe.push_back(ik);
        }
        for (const bool anti : {false, true}) {
            std::vector<std::size_t> want;
            for (std::size_t i = 0; i < probe.size(); ++i)
                if ((ref.count(tupleOf(probe[i])) != 0) != anti)
                    want.push_back(i);
            EXPECT_EQ(filterKeys(set, probe, anti), want)
                << "arity " << arity << " anti " << anti;
        }
    }
}

TEST(GroupTable, EmptyKeySetDropsSemiKeepsAnti)
{
    for (const std::uint32_t arity : {1u, 2u, 3u}) {
        const GroupTable empty(arity, 0);
        Rng rng(23);
        std::vector<InlineKey> probe;
        for (int i = 0; i < 100; ++i)
            probe.push_back(drawKey(rng, arity, 1000));
        EXPECT_TRUE(filterKeys(empty, probe, false).empty());
        EXPECT_EQ(filterKeys(empty, probe, true).size(), probe.size());
    }
}

TEST(GroupTable, MergedKeySetsContainTheUnion)
{
    // Per-worker key sets (overlapping, plus one empty worker) merged
    // with a no-op fold hold exactly the union, on a pool and
    // serially.
    for (const std::uint32_t arity : {1u, 2u, 3u})
        for (const bool pooled : {true, false}) {
            std::vector<GroupTable> parts(4, GroupTable(arity, 0));
            std::set<std::vector<std::int64_t>> ref;
            Rng rng(29 + arity);
            const std::int64_t span =
                arity == 1 ? 3000 : arity == 2 ? 60 : 15;
            for (int i = 0; i < 9000; ++i) {
                const auto k = drawKey(rng, arity, span);
                parts[static_cast<std::size_t>(i % 3)].findOrInsert(
                    k, InlineKeyHash{}(k));
                ref.insert(tupleOf(k));
            }
            std::vector<GroupTable *> tables;
            for (auto &p : parts)
                tables.push_back(&p);
            WorkerPool pool(4);
            const GroupTable &merged = mergeGroupTables(
                tables, pooled ? &pool : nullptr,
                [](GroupTable::Group, const std::int64_t *,
                   std::uint64_t) {});
            ASSERT_EQ(merged.size(), ref.size()) << "arity " << arity;
            std::vector<InlineKey> probe;
            for (int i = 0; i < 9000; ++i)
                probe.push_back(drawKey(rng, arity, span + span / 4));
            for (const bool anti : {false, true}) {
                std::vector<std::size_t> want;
                for (std::size_t i = 0; i < probe.size(); ++i)
                    if ((ref.count(tupleOf(probe[i])) != 0) != anti)
                        want.push_back(i);
                EXPECT_EQ(filterKeys(merged, probe, anti), want)
                    << "arity " << arity << " pooled " << pooled;
            }
        }
}

TEST(DenseGroupAggregator, MergesArraysAndSpillsDisjointRanges)
{
    const std::vector<AggSpec> specs = {{AggKind::Sum, {}, {}},
                                        {AggKind::Min, {}, {}},
                                        {AggKind::Max, {}, {}}};
    auto feed = [&](DenseGroupAggregator &d, std::int64_t lo,
                    std::int64_t hi) {
        std::vector<std::int64_t> keys, vals;
        for (std::int64_t k = lo; k <= hi; k += 3) {
            keys.push_back(k);
            vals.push_back(k * 7 - 1000);
        }
        const std::vector<std::span<const std::int64_t>> cols = {
            vals, vals, vals};
        EXPECT_TRUE(d.accumulate(keys, cols));
    };
    // Overlapping ranges merge array by array.
    DenseGroupAggregator a(specs), b(specs), both(specs);
    feed(a, 0, 3000);
    feed(b, 1500, 4000);
    feed(both, 0, 3000);
    feed(both, 1500, 4000);
    ASSERT_TRUE(a.mergeFrom(b));
    GroupTable merged(1, 3), want(1, 3);
    a.spill(merged);
    both.spill(want);
    ASSERT_EQ(merged.size(), want.size());
    want.forEach([&](const std::int64_t *key, const std::int64_t *aggs,
                     std::uint64_t count) {
        InlineKey k;
        k.n = 1;
        k.v[0] = key[0];
        const std::int64_t *got = merged.find(k);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got[0], aggs[0]);
        EXPECT_EQ(got[1], aggs[1]);
        EXPECT_EQ(got[2], aggs[2]);
        (void)count;
    });

    // Disjoint ranges whose union outgrows the dense domain refuse
    // to merge and leave both sides untouched; spilling both into
    // one table then folds overlapping-key groups correctly.
    DenseGroupAggregator lo(specs), hi(specs);
    feed(lo, 0, 3000);
    feed(hi, 6000, 9000);
    ASSERT_FALSE(lo.mergeFrom(hi));
    GroupTable spilled(1, 3);
    lo.spill(spilled);
    hi.spill(spilled);
    lo.spill(spilled); // second fold of the same groups: sums double
    std::size_t groups = 0;
    spilled.forEach([&](const std::int64_t *key, const std::int64_t *aggs,
                        std::uint64_t count) {
        const std::int64_t v = key[0] * 7 - 1000;
        const std::uint64_t reps = key[0] <= 3000 ? 2 : 1;
        EXPECT_EQ(count, reps) << key[0];
        EXPECT_EQ(aggs[0], v * static_cast<std::int64_t>(reps));
        EXPECT_EQ(aggs[1], v);
        EXPECT_EQ(aggs[2], v);
        ++groups;
    });
    EXPECT_EQ(groups, 1001u + 1001u);
}

/**
 * The scan-task list: drained through pools of 1, 3 and 4 workers,
 * per-task morsels concatenated in task order cover every data row,
 * then every delta row, exactly once, ascending and morsel-aligned.
 * The list takes no worker or shard count at all, so the same tasks
 * (and per-task predicate state) arise under every configuration.
 */
TEST(ScanRuns, CoverEveryRowOnceInSerialOrder)
{
    for (const std::uint32_t morsel : {64u, kMorselRows}) {
        const std::uint64_t m = morsel;
        for (const std::uint64_t data :
             {std::uint64_t{0}, std::uint64_t{1}, m - 1, m, 10 * m + 1})
            for (const std::uint64_t delta :
                 {std::uint64_t{0}, std::uint64_t{1}, m - 1, m,
                  10 * m + 1}) {
                const auto runs = scanRuns(data, delta, morsel);
                for (const std::uint32_t workers : {1u, 3u, 4u}) {
                    WorkerPool pool(workers);
                    std::vector<std::vector<Morsel>> per_task(
                        runs.size());
                    pool.parallelFor(runs.size(), [&](std::uint32_t,
                                                      std::size_t t) {
                        forEachMorselInRun(runs[t], morsel,
                                           [&](const Morsel &mo) {
                                               per_task[t].push_back(mo);
                                           });
                    });
                    ::testing::Message what;
                    what << "m" << morsel << " data " << data
                         << " delta " << delta << " w" << workers;
                    std::uint64_t next_data = 0, next_delta = 0;
                    bool in_delta = false;
                    for (const auto &task : per_task)
                        for (const auto &mo : task) {
                            EXPECT_GT(mo.count, 0u) << what;
                            if (mo.reg == storage::Region::Delta)
                                in_delta = true;
                            else
                                EXPECT_FALSE(in_delta)
                                    << what << ": data after delta";
                            auto &next = mo.reg == storage::Region::Data
                                             ? next_data
                                             : next_delta;
                            EXPECT_EQ(mo.base, next) << what;
                            EXPECT_EQ(mo.base % morsel, 0u) << what;
                            next = mo.base + mo.count;
                        }
                    EXPECT_EQ(next_data, data) << what;
                    EXPECT_EQ(next_delta, delta) << what;
                }
                for (const auto &r : runs) {
                    EXPECT_LT(r.begin, r.end);
                    EXPECT_LE(r.end - r.begin,
                              std::uint64_t{kRunMorsels} * morsel);
                }
            }
    }
}

} // namespace
} // namespace pushtap::olap
