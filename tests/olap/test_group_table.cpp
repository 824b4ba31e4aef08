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
        if (set.contains(probe[i]) != anti)
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

// ---- GroupFold: the probe's per-worker grouped aggregation ----

/** Every fold below aggregates one value column three ways. */
const std::vector<AggKind> kFoldKinds = {AggKind::Sum, AggKind::Min,
                                         AggKind::Max};

/** Ordered-map reference per key tuple: (count, wrapping sum, min,
 *  max) of the values folded under it. */
using FoldRef =
    std::map<std::vector<std::int64_t>,
             std::tuple<std::uint64_t, std::int64_t, std::int64_t,
                        std::int64_t>>;

/** Fold entries with key columns @p keys and values @p vals into
 *  @p f (the values feed every aggregate) and into @p ref. */
void
foldInto(GroupFold &f, const std::vector<std::vector<std::int64_t>> &keys,
         const std::vector<std::int64_t> &vals, FoldRef &ref)
{
    const std::vector<std::span<const std::int64_t>> key_cols(
        keys.begin(), keys.end());
    const std::vector<std::span<const std::int64_t>> val_cols(
        kFoldKinds.size(), vals);
    f.fold(vals.size(), key_cols, val_cols);
    for (std::size_t i = 0; i < vals.size(); ++i) {
        std::vector<std::int64_t> k;
        for (const auto &col : keys)
            k.push_back(col[i]);
        auto &[count, sum, lo, hi] =
            ref.try_emplace(k, 0, 0,
                            std::numeric_limits<std::int64_t>::max(),
                            std::numeric_limits<std::int64_t>::min())
                .first->second;
        ++count;
        sum = wrapAdd(sum, vals[i]);
        lo = std::min(lo, vals[i]);
        hi = std::max(hi, vals[i]);
    }
}

void
expectFolded(const GroupTable &t, const FoldRef &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    t.forEach([&](const std::int64_t *key, const std::int64_t *aggs,
                  std::uint64_t count) {
        const auto it =
            ref.find(std::vector<std::int64_t>(key, key + t.keyWidth()));
        ASSERT_NE(it, ref.end());
        const auto &[want_count, sum, lo, hi] = it->second;
        EXPECT_EQ(count, want_count);
        EXPECT_EQ(aggs[0], sum);
        EXPECT_EQ(aggs[1], lo);
        EXPECT_EQ(aggs[2], hi);
    });
}

TEST(GroupFold, MergedFoldsMatchOrderedMapAtEveryWidth)
{
    // Random batches of 1-300 entries at key widths 0-3, spread over
    // 1-4 folds (the workers) and merged as the executor merges
    // them. Small key domains (at most 64 slots, shifted per batch)
    // open, reuse and move windows, and short batches among them
    // hash; wide domains hash; {INT64_MIN, INT64_MAX} wraps the
    // uint64 span to 0 and must hash too. Values span all of int64,
    // so the sums wrap.
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    enum class Domain { Small, Wide, Extremes };
    WorkerPool pool(4);
    for (const std::uint32_t width : {0u, 1u, 2u, 3u})
        for (const auto domain :
             {Domain::Small, Domain::Wide, Domain::Extremes})
            for (std::size_t nfolds = 1; nfolds <= 4; ++nfolds) {
                if (width == 0 && domain != Domain::Small)
                    continue; // No key to draw.
                SCOPED_TRACE(testing::Message()
                             << "width " << width << " domain "
                             << static_cast<int>(domain) << " folds "
                             << nfolds);
                Rng rng(41 + 16 * width + 4 * nfolds +
                        static_cast<std::uint64_t>(domain));
                std::vector<GroupFold> folds(nfolds,
                                             GroupFold(width, kFoldKinds));
                FoldRef ref;
                for (int b = 0; b < 60; ++b) {
                    const auto n =
                        static_cast<std::size_t>(rng.inRange(1, 300));
                    const std::int64_t shift = rng.inRange(-2, 2);
                    std::vector<std::vector<std::int64_t>> keys(width);
                    for (auto &col : keys) {
                        for (std::size_t i = 0; i < n; ++i) {
                            switch (domain) {
                              case Domain::Small:
                                col.push_back(shift + rng.inRange(0, 3));
                                break;
                              case Domain::Wide:
                                col.push_back(rng.inRange(-(1LL << 50),
                                                          1LL << 50));
                                break;
                              case Domain::Extremes:
                                col.push_back(i == 0   ? kMin
                                              : i == 1 ? kMax
                                              : rng.inRange(0, 1) != 0
                                                  ? kMin
                                                  : kMax);
                                break;
                            }
                        }
                    }
                    std::vector<std::int64_t> vals;
                    for (std::size_t i = 0; i < n; ++i)
                        vals.push_back(static_cast<std::int64_t>(rng()));
                    auto &f = folds[static_cast<std::size_t>(
                        rng.inRange(0, static_cast<std::int64_t>(nfolds) -
                                           1))];
                    foldInto(f, keys, vals, ref);
                    if (width == 0) {
                        EXPECT_EQ(f.windowSlots(), 1u);
                    } else if (domain != Domain::Small) {
                        EXPECT_EQ(f.windowSlots(), 0u) << "batch " << b;
                    } else if (n >= 2 * 64) {
                        EXPECT_NE(f.windowSlots(), 0u) << "batch " << b;
                    }
                }
                // Windows flush into their own tables, or all into the
                // first fold's, as the executor flushes them.
                std::vector<GroupTable *> tables;
                for (auto &f : folds) {
                    f.flush(nfolds % 2 == 0 ? f.table()
                                            : folds.front().table());
                    tables.push_back(&f.table());
                }
                const GroupTable &merged = mergeGroupTables(
                    tables, nfolds % 2 == 0 ? &pool : nullptr,
                    [](GroupTable::Group into, const std::int64_t *from,
                       std::uint64_t from_count) {
                        combineSlots(kFoldKinds, into, from, from_count);
                    });
                expectFolded(merged, ref);
            }
}

TEST(GroupFold, LoneInt64MinBatchFlushesTheLiveWindow)
{
    // A batch of INT64_MIN keys after a live window over {10, 11}
    // lies outside it (the unsigned offset check must not wrap it in):
    // the window flushes into the table, and a one-slot window opens
    // over INT64_MIN alone. INT64_MAX then moves it once more.
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    GroupFold f(1, kFoldKinds);
    FoldRef ref;
    foldInto(f, {{10, 11, 10, 11}}, {1, 2, 3, 4}, ref);
    EXPECT_EQ(f.windowSlots(), 2u);
    EXPECT_EQ(f.table().size(), 0u);
    foldInto(f, {{kMin, kMin}}, {kMax, 5}, ref);
    EXPECT_EQ(f.windowSlots(), 1u);
    EXPECT_EQ(f.table().size(), 2u) << "the {10, 11} window flushed";
    foldInto(f, {{kMax, kMax, kMax}}, {kMin, -1, 7}, ref);
    EXPECT_EQ(f.windowSlots(), 1u);
    EXPECT_EQ(f.table().size(), 3u);
    f.flush(f.table());
    expectFolded(f.table(), ref);
}

TEST(GroupFold, RefoldedKeysJoinTheirFlushedGroups)
{
    // Keys flushed out of one window and folded again — hashed by a
    // batch outside any window, then through a new window — add to
    // their groups in the table instead of creating second ones.
    GroupFold f(2, kFoldKinds);
    FoldRef ref;
    std::vector<std::vector<std::int64_t>> grid(2);
    std::vector<std::int64_t> vals;
    for (int rep = 0; rep < 2; ++rep)
        for (std::int64_t a = 1; a <= 4; ++a)
            for (std::int64_t b = 0; b <= 1; ++b) {
                grid[0].push_back(a);
                grid[1].push_back(b);
                vals.push_back(10 * a + b + rep);
            }
    foldInto(f, grid, vals, ref);
    EXPECT_EQ(f.windowSlots(), 8u);
    foldInto(f, {{1, 1'000'000}, {0, 0}}, {-7, 9}, ref);
    EXPECT_EQ(f.windowSlots(), 0u) << "a two-entry batch hashes";
    EXPECT_EQ(f.table().size(), 9u);
    foldInto(f, grid, vals, ref);
    EXPECT_EQ(f.windowSlots(), 8u);
    f.flush(f.table());
    EXPECT_EQ(f.table().size(), 9u);
    expectFolded(f.table(), ref);
}

TEST(GroupFold, ConstantKeyBatchesMatchHashedGroups)
{
    // Batches whose every key column is constant open a one-slot
    // window and fold as a register reduction; wider batches between
    // them flush it. At key widths 1-3 the folded groups equal a
    // GroupTable fold of the same entries hashed one by one, for Sum,
    // Min and Max over values spanning all of int64.
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    Rng rng(91);
    for (std::uint32_t width = 1; width <= 3; ++width) {
        GroupFold f(width, kFoldKinds);
        GroupTable hashed(width, kFoldKinds.size());
        FoldRef ref;
        std::size_t one_slot = 0;
        for (int batch = 0; batch < 60; ++batch) {
            const bool constant = batch % 3 != 2;
            const std::size_t n = 2 + rng.below(150);
            std::vector<std::vector<std::int64_t>> keys(width);
            std::vector<std::int64_t> vals;
            std::vector<std::int64_t> fixed(width);
            for (auto &k : fixed)
                k = rng.flip(0.1) ? kMin : rng.inRange(-3, 3);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::uint32_t c = 0; c < width; ++c)
                    keys[c].push_back(constant ? fixed[c]
                                               : rng.inRange(-40, 40));
                vals.push_back(rng.flip(0.2)
                                   ? (rng.flip(0.5) ? kMin : kMax)
                                   : rng.inRange(-1000, 1000));
            }
            foldInto(f, keys, vals, ref);
            one_slot += f.windowSlots() == 1 ? 1 : 0;
            InlineKey k;
            k.n = width;
            for (std::size_t i = 0; i < n; ++i) {
                for (std::uint32_t c = 0; c < width; ++c)
                    k.v[c] = keys[c][i];
                const auto g = hashed.findOrInsert(k);
                for (std::size_t a = 0; a < kFoldKinds.size(); ++a)
                    foldValue(g.aggs[a], kFoldKinds[a], vals[i],
                              *g.count == 0);
                ++*g.count;
            }
        }
        EXPECT_GT(one_slot, 10u) << "width " << width;
        f.flush(f.table());
        expectFolded(f.table(), ref);
        ASSERT_EQ(f.table().size(), hashed.size()) << "width " << width;
        f.table().forEach([&](const std::int64_t *key,
                              const std::int64_t *aggs,
                              std::uint64_t count) {
            InlineKey k;
            k.n = width;
            std::copy_n(key, width, k.v.begin());
            const auto g = hashed.findOrInsert(k);
            EXPECT_EQ(count, *g.count) << "width " << width;
            for (std::size_t a = 0; a < kFoldKinds.size(); ++a)
                EXPECT_EQ(aggs[a], g.aggs[a]) << "width " << width;
        });
    }
}

// ---- BuildTable: the join builds' and subquery pre-passes' keys ----

using Tuple = std::vector<std::int64_t>;

/**
 * Rows as build-scan tasks of up to @p per rows each, in order: key
 * tuple keys[i] (width @p width) and value ints vals[i] per row.
 */
std::vector<BuildRows>
tasksOf(std::uint32_t width, const std::vector<Tuple> &keys,
        const std::vector<Tuple> &vals, std::size_t per)
{
    std::vector<BuildRows> tasks;
    for (std::size_t b = 0; b < keys.size(); b += per) {
        BuildRows t;
        t.keys.resize(width);
        const std::size_t e = std::min(keys.size(), b + per);
        for (std::uint32_t c = 0; c < width; ++c) {
            std::vector<std::int64_t> col;
            for (std::size_t i = b; i < e; ++i)
                col.push_back(keys[i][c]);
            t.appendKeys(c, col);
        }
        for (std::size_t i = b; i < e; ++i)
            t.vals.insert(t.vals.end(), vals[i].begin(), vals[i].end());
        t.rows = e - b;
        tasks.push_back(std::move(t));
    }
    return tasks;
}

/** find() over probe key tuples of the build's width. */
std::vector<std::uint64_t>
locate(const BuildTable &b, std::uint32_t width,
       const std::vector<Tuple> &probes)
{
    std::vector<std::vector<std::int64_t>> cols(width);
    for (const auto &k : probes)
        for (std::uint32_t c = 0; c < width; ++c)
            cols[c].push_back(k[c]);
    std::vector<std::uint64_t> out;
    b.find(
        probes.size(),
        [&](std::size_t c) {
            return std::span<const std::int64_t>(cols[c]);
        },
        out);
    return out;
}

/** The three forms built over the same rows: a key set, tuple ranges
 *  carrying every row's vals, aggregates folding them. */
struct Builds
{
    BuildTable set, ranges, aggs;
};

Builds
buildAll(std::uint32_t width, const std::vector<Tuple> &keys,
         const std::vector<Tuple> &vals,
         const std::vector<AggKind> &kinds, WorkerPool *pool,
         std::size_t per = 1000)
{
    const auto tasks = tasksOf(width, keys, vals, per);
    return {BuildTable::keySet(width, tasks, pool),
            BuildTable::tupleRanges(
                width, static_cast<std::uint32_t>(kinds.size()), tasks,
                pool),
            BuildTable::aggregates(width, kinds, tasks, pool)};
}

/**
 * Check every form of @p b against the rows it was built from, for
 * each probe: membership, the key's value tuples in row order, and
 * each aggregate (0 for a key no row has).
 */
void
expectBuildsMatch(const Builds &b, std::uint32_t width,
                  const std::vector<Tuple> &keys,
                  const std::vector<Tuple> &vals,
                  const std::vector<AggKind> &kinds,
                  const std::vector<Tuple> &probes,
                  const std::string &what)
{
    std::map<Tuple, std::vector<Tuple>> ref;
    for (std::size_t i = 0; i < keys.size(); ++i)
        ref[keys[i]].push_back(vals[i]);
    const auto in_set = locate(b.set, width, probes);
    const auto in_ranges = locate(b.ranges, width, probes);
    const auto in_aggs = locate(b.aggs, width, probes);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        const auto it = ref.find(probes[p]);
        const bool member = it != ref.end();
        EXPECT_EQ(b.set.contains(in_set[p]), member) << what << " " << p;
        EXPECT_EQ(b.ranges.contains(in_ranges[p]), member) << what;
        EXPECT_EQ(b.aggs.contains(in_aggs[p]), member) << what;
        const auto m = b.ranges.matches(in_ranges[p]);
        ASSERT_EQ(m.count, member ? it->second.size() : 0u) << what;
        for (std::size_t j = 0; j < m.count; ++j)
            EXPECT_EQ(Tuple(m.first + j * kinds.size(),
                            m.first + (j + 1) * kinds.size()),
                      it->second[j])
                << what << " probe " << p << " tuple " << j;
        for (std::size_t a = 0; a < kinds.size(); ++a) {
            std::int64_t want = 0;
            if (member) {
                if (kinds[a] != AggKind::Sum)
                    want = it->second[0][a];
                for (const auto &v : it->second)
                    foldValue(want, kinds[a], v[a], false);
            }
            EXPECT_EQ(b.aggs.value(in_aggs[p], a), want)
                << what << " probe " << p << " agg " << a;
        }
    }
}

TEST(BuildTable, NegativeKeysMissOneStepOutsideEachColumn)
{
    // A 3-column domain of negative and mixed keys, every other key
    // present: each member, and each member with one column moved to
    // lo - 1 or hi + 1, probed against all three forms.
    const std::array<std::pair<std::int64_t, std::int64_t>, 3> range = {
        {{-5, 3}, {-100, -90}, {7, 9}}};
    std::vector<Tuple> keys, vals;
    for (std::int64_t a = range[0].first; a <= range[0].second; ++a)
        for (std::int64_t b = range[1].first; b <= range[1].second; ++b)
            for (std::int64_t c = range[2].first; c <= range[2].second;
                 ++c)
                if ((a + b + c) % 2 == 0 || a == range[0].first ||
                    a == range[0].second) {
                    keys.push_back({a, b, c});
                    vals.push_back({a * b, -c, b});
                }
    const std::vector<AggKind> kinds = {AggKind::Sum, AggKind::Min,
                                        AggKind::Max};
    WorkerPool pool(4);
    const auto b = buildAll(3, keys, vals, kinds, &pool, 64);
    const std::uint64_t slots = 9 * 11 * 3;
    EXPECT_EQ(b.set.denseSlots(), slots);
    EXPECT_EQ(b.ranges.denseSlots(), slots);
    EXPECT_EQ(b.aggs.denseSlots(), slots);
    EXPECT_EQ(b.set.rows(), keys.size());
    std::vector<Tuple> probes = keys;
    for (const auto &k : keys)
        for (std::size_t c = 0; c < 3; ++c)
            for (const std::int64_t v :
                 {range[c].first - 1, range[c].second + 1}) {
                Tuple out = k;
                out[c] = v;
                probes.push_back(out);
            }
    // Every key of the domain box, members or not.
    for (std::int64_t a = range[0].first; a <= range[0].second; ++a)
        for (std::int64_t b2 = range[1].first; b2 <= range[1].second;
             ++b2)
            probes.push_back({a, b2, range[2].first + 1});
    expectBuildsMatch(b, 3, keys, vals, kinds, probes, "negative");
}

TEST(BuildTable, FullInt64RangeFallsBackToHashing)
{
    // A key column spanning all of int64 (hi - lo + 1 wraps to 0) or
    // all but one value: no domain, so every form hashes, and still
    // answers exactly.
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    const std::vector<AggKind> kinds = {AggKind::Min, AggKind::Max};
    for (const std::int64_t top : {kMax, kMax - 1}) {
        std::vector<Tuple> keys = {{kMin, 1}, {top, 2}, {0, 3},
                                   {kMin, 1}, {-1, 2}};
        std::vector<Tuple> vals = {{kMax, kMin}, {5, -5}, {0, 0},
                                   {-7, 7}, {kMin, kMax}};
        const auto b = buildAll(2, keys, vals, kinds, nullptr, 2);
        EXPECT_EQ(b.set.denseSlots(), 0u) << top;
        EXPECT_EQ(b.ranges.denseSlots(), 0u) << top;
        EXPECT_EQ(b.aggs.denseSlots(), 0u) << top;
        EXPECT_EQ(b.aggs.rows(), keys.size()) << top;
        auto probes = keys;
        probes.push_back({kMin, 2});
        probes.push_back({kMax, 1});
        probes.push_back({1, 3});
        expectBuildsMatch(b, 2, keys, vals, kinds, probes,
                          "int64 span " + std::to_string(top));
    }
}

TEST(BuildTable, DomainAtTheBoundIsDenseOneSlotOverIsHashed)
{
    // The rule as documented next to denseSlotBound.
    EXPECT_EQ(denseSlotBound(BuildForm::KeySet, 3, 0, 1000),
              (128 + 64 * 3) * 1000 + kDenseSlack);
    EXPECT_EQ(denseSlotBound(BuildForm::TupleRanges, 3, 2, 1000),
              (8 + 2 * 3) * 1000 + kDenseSlack);
    EXPECT_EQ(denseSlotBound(BuildForm::Aggregates, 1, 1, 1000),
              (3 + 1) * 1000 + kDenseSlack);
    EXPECT_EQ(denseSlotBound(BuildForm::Aggregates, 2, 2, 1000),
              (2 + 2 + 2) * 1000 / 2 + kDenseSlack);
    EXPECT_EQ(denseSlotBound(BuildForm::KeySet, 1, 0, ~0ull),
              ~0ull);

    // Two rows keyed lo and lo + bound - 1 span exactly the bound;
    // moving the second key up by one spans one slot too many.
    const std::vector<AggKind> kinds = {AggKind::Sum};
    const std::vector<Tuple> vals = {{3}, {4}};
    WorkerPool pool(2);
    for (const std::int64_t lo : {std::int64_t{-20}, std::int64_t{0}}) {
        const auto bound = [](BuildForm f) {
            return static_cast<std::int64_t>(
                denseSlotBound(f, 1, 1, 2));
        };
        for (const auto form : {BuildForm::KeySet, BuildForm::TupleRanges,
                                BuildForm::Aggregates}) {
            for (const std::int64_t over : {0, 1}) {
                const std::vector<Tuple> keys = {
                    {lo}, {lo + bound(form) - 1 + over}};
                const auto tasks = tasksOf(1, keys, vals, 1);
                const auto b =
                    form == BuildForm::KeySet
                        ? BuildTable::keySet(1, tasks, &pool)
                    : form == BuildForm::TupleRanges
                        ? BuildTable::tupleRanges(1, 1, tasks, &pool)
                        : BuildTable::aggregates(1, kinds, tasks, &pool);
                const auto what = "form " +
                                  std::to_string(static_cast<int>(form)) +
                                  " over " + std::to_string(over);
                EXPECT_EQ(b.denseSlots(),
                          over ? 0u
                               : static_cast<std::uint64_t>(bound(form)))
                    << what;
                const auto locs =
                    locate(b, 1, {keys[0], keys[1], {lo + 1}});
                EXPECT_TRUE(b.contains(locs[0])) << what;
                EXPECT_TRUE(b.contains(locs[1])) << what;
                EXPECT_FALSE(b.contains(locs[2])) << what;
            }
        }
    }
}

TEST(BuildTable, OneSlotSharedByEveryRowAtFourWorkers)
{
    // 100k rows on one key (a build keyed on the only warehouse):
    // every worker hits the same bitset word and the same counter.
    // The tuple range keeps all of them in row order.
    std::vector<Tuple> keys(100'000, Tuple{1}), vals;
    for (std::int64_t i = 0; i < 100'000; ++i)
        vals.push_back({i});
    const std::vector<AggKind> kinds = {AggKind::Sum};
    WorkerPool pool(4);
    const auto b = buildAll(1, keys, vals, kinds, &pool, 2048);
    EXPECT_EQ(b.set.denseSlots(), 1u);
    EXPECT_EQ(b.ranges.denseSlots(), 1u);
    EXPECT_EQ(b.aggs.denseSlots(), 1u);
    const auto locs = locate(b.ranges, 1, {{0}, {1}, {2}});
    EXPECT_FALSE(b.ranges.contains(locs[0]));
    EXPECT_FALSE(b.ranges.contains(locs[2]));
    const auto m = b.ranges.matches(locs[1]);
    ASSERT_EQ(m.count, 100'000u);
    for (std::int64_t i = 0; i < 100'000; ++i)
        ASSERT_EQ(m.first[i], i);
    EXPECT_EQ(b.aggs.value(locate(b.aggs, 1, {{1}})[0], 0),
              std::int64_t{100'000} * 99'999 / 2);
    EXPECT_TRUE(b.set.contains(locate(b.set, 1, {{1}})[0]));
}

TEST(BuildTable, GappedAggregatesReadZeroForMissingKeys)
{
    // Min/Max slots idle at the int64 extremes: a key between the
    // present ones, or past either end, still reads 0.
    const std::vector<Tuple> keys = {{1}, {5}, {9}, {5}, {1}};
    const std::vector<Tuple> vals = {
        {-3, -3}, {10, 10}, {-8, -8}, {12, 12}, {-9, -9}};
    const std::vector<AggKind> kinds = {AggKind::Min, AggKind::Max};
    for (const std::size_t per : {std::size_t{1}, std::size_t{5}}) {
        WorkerPool pool(3);
        const auto b = buildAll(1, keys, vals, kinds, &pool, per);
        ASSERT_EQ(b.aggs.denseSlots(), 9u);
        std::vector<Tuple> probes;
        for (std::int64_t k = -1; k <= 11; ++k)
            probes.push_back({k});
        const auto locs = locate(b.aggs, 1, probes);
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const std::int64_t k = probes[p][0];
            const std::int64_t min = k == 1   ? -9
                                     : k == 5 ? 10
                                     : k == 9 ? -8
                                              : 0;
            const std::int64_t max = k == 1   ? -3
                                     : k == 5 ? 12
                                     : k == 9 ? -8
                                              : 0;
            EXPECT_EQ(b.aggs.value(locs[p], 0), min) << k;
            EXPECT_EQ(b.aggs.value(locs[p], 1), max) << k;
        }
        expectBuildsMatch(b, 1, keys, vals, kinds, probes, "gapped");
    }
}

TEST(BuildTable, BothFormsMatchReferenceAtEveryWorkerCount)
{
    // Random rows over a small domain (dense) and over a wide one
    // (hashed), built serially and on 4 workers in many tasks, all
    // against the same reference.
    const std::vector<AggKind> kinds = {AggKind::Sum, AggKind::Min,
                                        AggKind::Max};
    for (const std::uint32_t width : {1u, 2u, 3u})
        for (const bool wide : {false, true}) {
            Rng rng(41 + width);
            const std::int64_t span = wide ? 1'000'000'000 : 12;
            std::vector<Tuple> keys, vals, probes;
            for (int i = 0; i < 20'000; ++i) {
                Tuple k;
                for (std::uint32_t c = 0; c < width; ++c)
                    k.push_back(rng.inRange(-span, span));
                keys.push_back(k);
                vals.push_back({rng.inRange(-1000, 1000),
                                rng.inRange(-1000, 1000),
                                rng.inRange(-1000, 1000)});
            }
            probes = keys;
            for (int i = 0; i < 2000; ++i) {
                Tuple k;
                for (std::uint32_t c = 0; c < width; ++c)
                    k.push_back(rng.inRange(-span - 2, span + 2));
                probes.push_back(k);
            }
            WorkerPool pool(4);
            for (WorkerPool *p : {static_cast<WorkerPool *>(nullptr),
                                  &pool}) {
                const auto b = buildAll(width, keys, vals, kinds, p, 700);
                const bool hashed = b.set.denseSlots() == 0;
                EXPECT_EQ(hashed, wide) << "width " << width;
                EXPECT_EQ(b.ranges.denseSlots() == 0, wide);
                EXPECT_EQ(b.aggs.denseSlots() == 0, wide);
                expectBuildsMatch(b, width, keys, vals, kinds, probes,
                                  "width " + std::to_string(width) +
                                      (wide ? " wide" : " narrow") +
                                      (p ? " pooled" : " serial"));
            }
        }
}

/**
 * The scan-task list: drained through pools of 1, 3 and 4 workers,
 * per-task morsels concatenated in task order cover every data row,
 * then every delta row, exactly once, ascending and morsel-aligned.
 * The list takes no worker or shard count at all, so the same tasks
 * arise under every configuration.
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
                const auto tasks = scanMorsels(data, delta, morsel);
                for (const std::uint32_t workers : {1u, 3u, 4u}) {
                    WorkerPool pool(workers);
                    std::vector<Morsel> per_task(tasks.size());
                    pool.parallelFor(tasks.size(), [&](std::uint32_t,
                                                       std::size_t t) {
                        per_task[t] = tasks[t];
                    });
                    ::testing::Message what;
                    what << "m" << morsel << " data " << data
                         << " delta " << delta << " w" << workers;
                    std::uint64_t next_data = 0, next_delta = 0;
                    bool in_delta = false;
                    for (const auto &mo : per_task) {
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
                // One morsel of at most morselRows rows per task.
                for (const auto &mo : tasks) {
                    EXPECT_GT(mo.count, 0u);
                    EXPECT_LE(mo.count, morsel);
                }
            }
    }
}

} // namespace
} // namespace pushtap::olap
