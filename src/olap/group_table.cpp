#include "olap/group_table.hpp"

#include <atomic>

namespace pushtap::olap {

namespace {

/** Key column @p c of @p rows as a probe-style column span. */
auto
keyColumns(const BuildRows &rows)
{
    return [&rows](std::size_t c) {
        return std::span<const std::int64_t>(rows.keys[c]);
    };
}

/** Row @p i's key tuple of @p rows. */
InlineKey
keyAt(const BuildRows &rows, std::uint32_t width, std::size_t i)
{
    InlineKey k;
    k.n = width;
    for (std::uint32_t c = 0; c < width; ++c)
        k.v[c] = rows.keys[c][i];
    return k;
}

std::uint32_t
poolWorkers(const WorkerPool *pool)
{
    return pool ? pool->workers() : 1;
}

} // namespace

std::optional<KeyDomain>
KeyDomain::observe(std::uint32_t width, std::span<const BuildRows> tasks,
                   std::uint64_t bound)
{
    KeyDomain d;
    d.width = width;
    std::array<std::int64_t, InlineKey::kMaxKeys> hi{};
    bool any = false;
    for (const auto &t : tasks) {
        if (t.rows == 0)
            continue;
        for (std::uint32_t c = 0; c < width; ++c) {
            d.lo[c] = any ? std::min(d.lo[c], t.lo[c]) : t.lo[c];
            hi[c] = any ? std::max(hi[c], t.hi[c]) : t.hi[c];
        }
        any = true;
    }
    if (!any)
        return d; // No rows: dense, with no slot.
    d.slots = 1;
    for (std::uint32_t c = 0; c < width; ++c) {
        // hi - lo + 1 in uint64 is exact below 2^64; it wraps to 0
        // only for a column spanning all of int64.
        const std::uint64_t span = static_cast<std::uint64_t>(hi[c]) -
                                   static_cast<std::uint64_t>(d.lo[c]) +
                                   1;
        if (span == 0 || span > bound / d.slots)
            return std::nullopt;
        d.span[c] = span;
        d.stride[c] = d.slots;
        d.slots *= span;
    }
    return d;
}

BuildTable::BuildTable(BuildForm form, std::uint32_t width,
                       std::uint32_t val_width, std::vector<AggKind> kinds,
                       std::span<const BuildRows> tasks, WorkerPool *pool)
    : form_(form), width_(width), valWidth_(val_width),
      kinds_(std::move(kinds))
{
    for (const auto &t : tasks)
        rows_ += t.rows;
    auto domain = KeyDomain::observe(
        width, tasks, denseSlotBound(form, width, val_width, rows_));
    // Tuple offsets are 32-bit.
    if (form == BuildForm::TupleRanges &&
        rows_ > std::numeric_limits<std::uint32_t>::max())
        domain.reset();
    hashed_ = !domain;
    if (domain)
        domain_ = *domain;
    switch (form) {
      case BuildForm::KeySet:
        hashed_ ? placeHashedGroups(tasks, pool)
                : placeDenseKeySet(tasks, pool);
        break;
      case BuildForm::TupleRanges:
        hashed_ ? placeHashedTupleRanges(tasks, pool)
                : placeDenseTupleRanges(tasks, pool);
        break;
      case BuildForm::Aggregates:
        hashed_ ? placeHashedGroups(tasks, pool)
                : placeDenseAggregates(tasks, pool);
        break;
    }
}

BuildTable
BuildTable::keySet(std::uint32_t width, std::span<const BuildRows> tasks,
                   WorkerPool *pool)
{
    return BuildTable(BuildForm::KeySet, width, 0, {}, tasks, pool);
}

BuildTable
BuildTable::tupleRanges(std::uint32_t width, std::uint32_t payload,
                        std::span<const BuildRows> tasks, WorkerPool *pool)
{
    return BuildTable(BuildForm::TupleRanges, width, payload, {}, tasks,
                      pool);
}

BuildTable
BuildTable::aggregates(std::uint32_t width, std::vector<AggKind> kinds,
                       std::span<const BuildRows> tasks, WorkerPool *pool)
{
    const auto n = static_cast<std::uint32_t>(kinds.size());
    return BuildTable(BuildForm::Aggregates, width, n, std::move(kinds),
                      tasks, pool);
}

void
BuildTable::placeDenseKeySet(std::span<const BuildRows> tasks,
                             WorkerPool *pool)
{
    bits_.assign((domain_.slots + 63) / 64, 0);
    std::vector<std::vector<std::uint64_t>> slots(poolWorkers(pool));
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        domain_.slotsOf(tasks[t].rows, keyColumns(tasks[t]), slots[w]);
        for (const auto s : slots[w]) {
            // Read before the OR: rows sharing a slot (a build keyed
            // on one warehouse) then share a clean cache line instead
            // of serializing the workers on one read-modify-write.
            std::atomic_ref<std::uint64_t> word(bits_[s >> 6]);
            const std::uint64_t bit = std::uint64_t{1} << (s & 63);
            if ((word.load(std::memory_order_relaxed) & bit) == 0)
                word.fetch_or(bit, std::memory_order_relaxed);
        }
    });
}

void
BuildTable::placeDenseTupleRanges(std::span<const BuildRows> tasks,
                                  WorkerPool *pool)
{
    // Count each slot's tuples into offsets_[slot + 1]; a run of rows
    // on one slot adds once, so a slot every row shares does not
    // serialize the workers on one counter.
    offsets_.assign(domain_.slots + 1, 0);
    std::vector<std::vector<std::uint64_t>> slots(tasks.size());
    runTasks(pool, tasks.size(), [&](std::uint32_t, std::size_t t) {
        auto &ts = slots[t];
        domain_.slotsOf(tasks[t].rows, keyColumns(tasks[t]), ts);
        for (std::size_t i = 0; i < ts.size();) {
            std::size_t j = i + 1;
            while (j < ts.size() && ts[j] == ts[i])
                ++j;
            std::atomic_ref<std::uint32_t>(offsets_[ts[i] + 1])
                .fetch_add(static_cast<std::uint32_t>(j - i),
                           std::memory_order_relaxed);
            i = j;
        }
    });
    for (std::size_t s = 1; s < offsets_.size(); ++s)
        offsets_[s] += offsets_[s - 1];
    // Scatter in task order, each row to its slot's next tuple, so
    // every key's tuples keep the serial scan order. offsets_[s] is
    // slot s's cursor and ends at slot s + 1's start; shifting the
    // array up by one restores the starts.
    auto &tuples = tuples_[0];
    tuples.resize(rows_ * valWidth_);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const auto *vals = tasks[t].vals.data();
        for (const auto s : slots[t]) {
            std::copy_n(vals, valWidth_,
                        tuples.data() +
                            std::size_t{offsets_[s]++} * valWidth_);
            vals += valWidth_;
        }
    }
    std::copy_backward(offsets_.begin(), offsets_.end() - 1,
                       offsets_.end());
    offsets_[0] = 0;
}

void
BuildTable::placeDenseAggregates(std::span<const BuildRows> tasks,
                                 WorkerPool *pool)
{
    // Each worker folds the tasks it claims into private slot arrays
    // idle at each fold's identity (foldIdentity), so no fold needs a
    // first-row check; the arrays then merge chunk of slots by chunk
    // over the pool. Every fold commutes, so the worker count cannot
    // show in the result.
    struct Partial
    {
        std::vector<std::int64_t> aggs; ///< valWidth_ per slot.
        std::vector<std::uint64_t> bits; ///< Presence per slot.
        std::vector<std::uint64_t> slots; ///< Scratch.
    };
    const std::size_t na = valWidth_;
    const std::uint64_t words = (domain_.slots + 63) / 64;
    std::vector<std::optional<Partial>> parts(poolWorkers(pool));
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        if (!parts[w]) {
            auto &p = parts[w].emplace();
            p.aggs.resize(domain_.slots * na);
            for (std::size_t a = 0; a < na; ++a) {
                const std::int64_t idle = foldIdentity(kinds_[a]);
                for (std::size_t s = 0; s < domain_.slots; ++s)
                    p.aggs[s * na + a] = idle;
            }
            p.bits.assign(words, 0);
        }
        auto &p = *parts[w];
        const auto &rows = tasks[t];
        domain_.slotsOf(rows.rows, keyColumns(rows), p.slots);
        const std::int64_t *in = rows.vals.data();
        for (const auto s : p.slots) {
            p.bits[s >> 6] |= std::uint64_t{1} << (s & 63);
            std::int64_t *acc = p.aggs.data() + s * na;
            for (std::size_t a = 0; a < na; ++a)
                foldValue(acc[a], kinds_[a], in[a], false);
            in += na;
        }
    });
    std::vector<Partial *> engaged;
    for (auto &p : parts)
        if (p)
            engaged.push_back(&*p);
    if (engaged.empty())
        return; // No task: no row, no slot.
    Partial &into = *engaged.front();
    constexpr std::uint64_t kChunkWords = 64; // 4096 slots.
    const std::size_t chunks = (words + kChunkWords - 1) / kChunkWords;
    if (engaged.size() > 1)
        runTasks(pool, chunks, [&](std::uint32_t, std::size_t ch) {
            const std::uint64_t w0 = ch * kChunkWords;
            const std::uint64_t w1 = std::min(words, w0 + kChunkWords);
            const std::uint64_t s0 = w0 * 64;
            const std::uint64_t s1 = std::min(domain_.slots, w1 * 64);
            for (std::size_t o = 1; o < engaged.size(); ++o) {
                const Partial &from = *engaged[o];
                for (std::uint64_t w = w0; w < w1; ++w)
                    into.bits[w] |= from.bits[w];
                for (std::uint64_t s = s0; s < s1; ++s)
                    for (std::size_t a = 0; a < na; ++a)
                        foldValue(into.aggs[s * na + a], kinds_[a],
                                  from.aggs[s * na + a], false);
            }
        });
    aggs_ = std::move(into.aggs);
    bits_ = std::move(into.bits);
}

void
BuildTable::placeHashedTupleRanges(std::span<const BuildRows> tasks,
                                   WorkerPool *pool)
{
    /** One (task, partition) cell: the task's rows of that hash
     *  partition in scan order, as key hashes plus width_ key ints and
     *  valWidth_ payload ints per row. */
    struct Cell
    {
        std::vector<std::uint64_t> hashes;
        std::vector<std::int64_t> keys, vals;
    };
    const std::uint32_t keyw = width_;
    const std::size_t payw = valWidth_;
    std::vector<std::array<Cell, kHashPartitions>> cells(tasks.size());
    std::vector<std::vector<std::uint64_t>> hashes(poolWorkers(pool));
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        const auto &rows = tasks[t];
        hashKeyRows(keyw, rows.rows, keyColumns(rows), hashes[w]);
        for (std::size_t i = 0; i < rows.rows; ++i) {
            const std::uint64_t h = hashes[w][i];
            auto &cell = cells[t][hashPartitionOf(h)];
            cell.hashes.push_back(h);
            for (std::uint32_t c = 0; c < keyw; ++c)
                cell.keys.push_back(rows.keys[c][i]);
            const auto *val = rows.vals.data() + i * payw;
            cell.vals.insert(cell.vals.end(), val, val + payw);
        }
    });

    // Stitch of partition p: count each key's tuples (slot 1), lay the
    // keys' tuple ranges out back to back in first-seen order, then
    // walk the cells again in task order scattering every payload to
    // its key's next tuple. A stitch touches partition p of the key
    // table only, so the partitions stitch concurrently without locks.
    table_ = GroupTable(keyw, 2);
    auto stitch = [&](std::uint32_t, std::size_t p) {
        InlineKey key;
        key.n = keyw;
        auto keyOf = [&](const Cell &cell,
                         std::size_t i) -> const InlineKey & {
            std::copy_n(cell.keys.data() + i * keyw, keyw, key.v.begin());
            return key;
        };
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            const auto &cell = cells[t][p];
            for (std::size_t i = 0; i < cell.hashes.size(); ++i)
                ++table_.findOrInsert(keyOf(cell, i), cell.hashes[i])
                      .aggs[1];
        }
        std::int64_t next = 0;
        const auto ranges = table_.partitionAggs(p);
        for (std::size_t g = 0; g < ranges.size(); g += 2) {
            const std::int64_t count = ranges[g + 1];
            ranges[g] = ranges[g + 1] = next;
            next += count;
        }
        auto &tuples = tuples_[p];
        tuples.resize(static_cast<std::size_t>(next) * payw);
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            const auto &cell = cells[t][p];
            for (std::size_t i = 0; i < cell.hashes.size(); ++i) {
                const auto slot = static_cast<std::size_t>(
                    table_.find(keyOf(cell, i), cell.hashes[i])[1]++);
                std::copy_n(cell.vals.data() + i * payw, payw,
                            tuples.data() + slot * payw);
            }
        }
    };
    runTasks(pool, kHashPartitions, stitch);
}

void
BuildTable::placeHashedGroups(std::span<const BuildRows> tasks,
                              WorkerPool *pool)
{
    // Each worker folds the tasks it claims into its own group table
    // (a key set's groups have no slot, so it dedupes keys only); the
    // tables merge partition-parallel. Exact commutative folds, so
    // the result is identical for every worker count.
    const std::size_t na = valWidth_;
    std::vector<std::optional<GroupTable>> tables(poolWorkers(pool));
    std::vector<std::vector<std::uint64_t>> hashes(tables.size());
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        if (!tables[w])
            tables[w].emplace(width_, na);
        const auto &rows = tasks[t];
        hashKeyRows(width_, rows.rows, keyColumns(rows), hashes[w]);
        const std::int64_t *in = rows.vals.data();
        for (std::size_t i = 0; i < rows.rows; ++i, in += na) {
            const auto g =
                tables[w]->findOrInsert(keyAt(rows, width_, i),
                                        hashes[w][i]);
            const bool first = *g.count == 0;
            for (std::size_t a = 0; a < na; ++a)
                foldValue(g.aggs[a], kinds_[a], in[a], first);
            ++*g.count;
        }
    });
    std::vector<GroupTable *> merged;
    for (auto &t : tables)
        if (t)
            merged.push_back(&*t);
    table_ = std::move(mergeGroupTables(
        merged, pool,
        [this, na](GroupTable::Group into, const std::int64_t *from,
                   std::uint64_t from_count) {
            for (std::size_t a = 0; a < na; ++a)
                foldValue(into.aggs[a], kinds_[a], from[a],
                          *into.count == 0);
            *into.count += from_count;
        }));
}

} // namespace pushtap::olap
