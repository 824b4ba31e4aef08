#include "olap/group_table.hpp"

#include <atomic>

#include "common/log.hpp"

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
KeyDomain::ofRanges(std::uint32_t width, const Bounds &lo, const Bounds &hi,
                    std::uint64_t bound)
{
    KeyDomain d{width, lo};
    d.slots = 1;
    for (std::uint32_t c = 0; c < width; ++c) {
        // hi - lo + 1 in uint64 is exact below 2^64; it wraps to 0
        // only for a column spanning all of int64.
        const std::uint64_t span = static_cast<std::uint64_t>(hi[c]) -
                                   static_cast<std::uint64_t>(lo[c]) + 1;
        if (span == 0 || span > bound / d.slots)
            return std::nullopt;
        d.span[c] = span;
        d.stride[c] = d.slots;
        d.slots *= span;
    }
    return d;
}

std::optional<KeyDomain>
KeyDomain::observe(std::uint32_t width, std::span<const BuildRows> tasks,
                   std::uint64_t bound)
{
    Bounds lo{}, hi{};
    bool any = false;
    for (const auto &t : tasks) {
        if (t.rows == 0)
            continue;
        for (std::uint32_t c = 0; c < width; ++c) {
            lo[c] = any ? std::min(lo[c], t.lo[c]) : t.lo[c];
            hi[c] = any ? std::max(hi[c], t.hi[c]) : t.hi[c];
        }
        any = true;
    }
    if (!any)
        return KeyDomain{width}; // No rows: dense, with no slot.
    return ofRanges(width, lo, hi, bound);
}

BuildTable::BuildTable(BuildForm form, std::uint32_t width,
                       std::uint32_t val_width, std::vector<AggKind> kinds,
                       std::span<const BuildRows> tasks, WorkerPool *pool)
    : form_(form), width_(width), valWidth_(val_width),
      kinds_(std::move(kinds))
{
    for (const auto &t : tasks)
        rows_ += t.rows;
    if (form == BuildForm::TupleRanges &&
        rows_ > std::numeric_limits<std::uint32_t>::max())
        fatal("BuildTable: an inner-join build of {} rows overflows its "
              "32-bit tuple offsets",
              rows_);
    if (const auto domain = KeyDomain::observe(
            width, tasks, denseSlotBound(form, width, val_width, rows_))) {
        domain_ = *domain;
        slots_ = domain_.slots;
    } else {
        numberKeys(tasks, pool);
    }
    // A key set is the aggregates form with no aggregate: presence
    // bits alone.
    if (form == BuildForm::TupleRanges)
        placeTupleRanges(tasks, pool);
    else
        placeAggregates(tasks, pool);
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
BuildTable::numberKeys(std::span<const BuildRows> tasks, WorkerPool *pool)
{
    // Each worker collects the distinct keys of the tasks it claims;
    // the sets merge partition-parallel, and the union's keys are
    // numbered partition by partition. The numbers depend on the
    // worker count, but nothing reads them except as slots, so no
    // answer does.
    std::vector<std::optional<GroupTable>> sets(poolWorkers(pool));
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        if (!sets[w])
            sets[w].emplace(width_, 1);
        for (std::size_t i = 0; i < tasks[t].rows; ++i)
            sets[w]->findOrInsert(keyAt(tasks[t], width_, i));
    });
    std::vector<GroupTable *> engaged;
    for (auto &s : sets)
        if (s)
            engaged.push_back(&*s);
    keys_ = std::move(mergeGroupTables(
        engaged, pool,
        [](GroupTable::Group, const std::int64_t *, std::uint64_t) {}));
    for (std::size_t p = 0; p < kHashPartitions; ++p)
        for (auto &number : keys_.partitionAggs(p))
            number = static_cast<std::int64_t>(slots_++);
    numbered_ = true;
}

void
BuildTable::placeTupleRanges(std::span<const BuildRows> tasks,
                             WorkerPool *pool)
{
    // Count each slot's tuples into offsets_[slot + 1]; a run of rows
    // on one slot adds once, so a slot every row shares does not
    // serialize the workers on one counter.
    offsets_.assign(slots_ + 1, 0);
    std::vector<std::vector<std::uint64_t>> slots(tasks.size());
    runTasks(pool, tasks.size(), [&](std::uint32_t, std::size_t t) {
        auto &ts = slots[t];
        slotsOf(tasks[t].rows, keyColumns(tasks[t]), ts);
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
    tuples_.resize(rows_ * valWidth_);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const auto *vals = tasks[t].vals.data();
        for (const auto s : slots[t]) {
            std::copy_n(vals, valWidth_,
                        tuples_.data() +
                            std::size_t{offsets_[s]++} * valWidth_);
            vals += valWidth_;
        }
    }
    std::copy_backward(offsets_.begin(), offsets_.end() - 1,
                       offsets_.end());
    offsets_[0] = 0;
}

void
BuildTable::placeAggregates(std::span<const BuildRows> tasks,
                            WorkerPool *pool)
{
    // Each worker folds the tasks it claims into private presence
    // bits and slot arrays idle at each fold's identity
    // (foldIdentity), so no fold needs a first-row check and no
    // worker writes another's cache line; the arrays then merge chunk
    // of slots by chunk over the pool. Every fold commutes, so the
    // worker count cannot show in the result. A key set folds no
    // aggregate and keeps the presence bits alone.
    struct Partial
    {
        std::vector<std::int64_t> aggs; ///< valWidth_ per slot.
        std::vector<std::uint64_t> bits; ///< Presence per slot.
        std::vector<std::uint64_t> slots; ///< Scratch.
    };
    const std::size_t na = valWidth_;
    const std::uint64_t words = (slots_ + 63) / 64;
    std::vector<std::optional<Partial>> parts(poolWorkers(pool));
    runTasks(pool, tasks.size(), [&](std::uint32_t w, std::size_t t) {
        if (!parts[w]) {
            auto &p = parts[w].emplace();
            p.aggs.resize(slots_ * na);
            for (std::size_t a = 0; a < na; ++a) {
                const std::int64_t idle = foldIdentity(kinds_[a]);
                for (std::size_t s = 0; s < slots_; ++s)
                    p.aggs[s * na + a] = idle;
            }
            p.bits.assign(words, 0);
        }
        auto &p = *parts[w];
        const auto &rows = tasks[t];
        slotsOf(rows.rows, keyColumns(rows), p.slots);
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
            const std::uint64_t s1 = std::min(slots_, w1 * 64);
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

namespace {

/** True when every key whose column c lies in [lo[c], hi[c]] has a
 *  slot of @p d: one unsigned compare per bound, as in slotsOf. */
bool
covers(const KeyDomain &d, const KeyDomain::Bounds &lo,
       const KeyDomain::Bounds &hi)
{
    for (std::uint32_t c = 0; c < d.width; ++c) {
        const auto base = static_cast<std::uint64_t>(d.lo[c]);
        if (static_cast<std::uint64_t>(lo[c]) - base >= d.span[c] ||
            static_cast<std::uint64_t>(hi[c]) - base >= d.span[c])
            return false;
    }
    return d.slots != 0;
}

/** acc[slotAt(i)] = fold(acc[slotAt(i)], v[i]) for entries [0, n),
 *  with the fold of @p kind. */
template <typename SlotAt>
void
foldColumn(AggKind kind, std::int64_t *acc, std::span<const std::int64_t> v,
           std::size_t n, SlotAt &&slotAt)
{
    const auto each = [&](auto &&fold) {
        for (std::size_t i = 0; i < n; ++i) {
            auto &s = acc[slotAt(i)];
            s = fold(s, v[i]);
        }
    };
    switch (kind) {
      case AggKind::Sum:
        each(wrapAdd);
        break;
      case AggKind::Min:
        each([](std::int64_t a, std::int64_t b) { return std::min(a, b); });
        break;
      case AggKind::Max:
        each([](std::int64_t a, std::int64_t b) { return std::max(a, b); });
        break;
    }
}

} // namespace

void
GroupFold::fold(std::size_t n, Columns keys, Columns vals)
{
    if (n == 0)
        return;
    const std::uint32_t width = table_.keyWidth();
    KeyDomain::Bounds lo{}, hi{};
    for (std::uint32_t c = 0; c < width; ++c) {
        const auto [l, h] = std::minmax_element(keys[c].begin(),
                                                keys[c].begin() + n);
        lo[c] = *l;
        hi[c] = *h;
    }
    if (!covers(window_, lo, hi)) {
        flush(table_);
        const auto domain =
            KeyDomain::ofRanges(width, lo, hi, n / kRowsPerSlot);
        if (!domain) {
            InlineKey k;
            k.n = width;
            for (std::size_t i = 0; i < n; ++i) {
                for (std::uint32_t c = 0; c < width; ++c)
                    k.v[c] = keys[c][i];
                const auto g = table_.findOrInsert(k);
                const bool first = *g.count == 0;
                for (std::size_t a = 0; a < kinds_.size(); ++a)
                    foldValue(g.aggs[a], kinds_[a], vals[a][i], first);
                ++*g.count;
            }
            return;
        }
        window_ = *domain;
        aggs_.clear();
        for (std::uint64_t s = 0; s < window_.slots; ++s)
            for (const auto kind : kinds_)
                aggs_.push_back(foldIdentity(kind));
        counts_.assign(window_.slots, 0);
    }
    foldWindow(n, keys, vals);
}

void
GroupFold::flush(GroupTable &into)
{
    InlineKey k;
    k.n = window_.width;
    // Each key column's offset in the window, stepped with the slot
    // (column 0 fastest, as slots are numbered).
    std::array<std::uint64_t, InlineKey::kMaxKeys> off{};
    for (std::uint64_t s = 0; s < window_.slots; ++s) {
        if (counts_[s] != 0) {
            for (std::uint32_t c = 0; c < k.n; ++c)
                k.v[c] = window_.lo[c] + static_cast<std::int64_t>(off[c]);
            combineSlots(kinds_, into.findOrInsert(k),
                         aggs_.data() + s * kinds_.size(), counts_[s]);
        }
        for (std::uint32_t c = 0; c < k.n && ++off[c] == window_.span[c];
             ++c)
            off[c] = 0;
    }
    window_.slots = 0;
}

void
GroupFold::foldWindow(std::size_t n, Columns keys, Columns vals)
{
    const std::size_t na = kinds_.size();
    const auto foldSlots = [&](auto &&slotAt) {
        for (std::size_t a = 0; a < na; ++a)
            foldColumn(kinds_[a], aggs_.data() + a, vals[a], n,
                       [&](std::size_t i) { return slotAt(i) * na; });
        for (std::size_t i = 0; i < n; ++i)
            ++counts_[slotAt(i)];
    };
    switch (window_.width) {
      case 0:
        // One slot: a plain reduction per column, in a register.
        for (std::size_t a = 0; a < na; ++a) {
            std::int64_t acc = aggs_[a];
            foldColumn(kinds_[a], &acc, vals[a], n,
                       [](std::size_t) { return 0; });
            aggs_[a] = acc;
        }
        counts_[0] += n;
        break;
      case 1: {
        // One key column: its offset is the slot, with no slot vector.
        const auto col = keys[0];
        const auto base = static_cast<std::uint64_t>(window_.lo[0]);
        foldSlots([&](std::size_t i) {
            return static_cast<std::uint64_t>(col[i]) - base;
        });
        break;
      }
      default:
        window_.slotsOf(
            n, [&](std::size_t c) { return keys[c]; }, slots_);
        foldSlots([&](std::size_t i) { return slots_[i]; });
        break;
    }
}

} // namespace pushtap::olap
