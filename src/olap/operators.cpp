#include "olap/operators.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/worker_pool.hpp"
#include "olap/batch.hpp"
#include "olap/simd_kernels.hpp"

namespace pushtap::olap {

using storage::Region;

namespace {

/** One merged group as materialization reads it: plan.groupBy.size()
 *  key ints and one slot per plan aggregate. */
struct GroupView
{
    const std::int64_t *key;
    const std::int64_t *aggs;
    std::uint64_t count;
};

/**
 * The batch engine's materialization tail: order the groups by
 * (plan.orderBy keys, then ascending group key) — a stable sort by
 * plan.orderBy over ascending-key rows — and under a LIMIT select
 * just the top `limit` groups before building any ResultRow. An
 * ungrouped plan with no groups yields its single zero row (count 0).
 */
QueryResult
materializeViews(const QueryPlan &plan, std::vector<GroupView> views)
{
    const std::size_t kw = plan.groupBy.size();
    const std::vector<std::int64_t> zeros(plan.aggregates.size(), 0);
    if (views.empty() && kw == 0)
        views.push_back(GroupView{nullptr, zeros.data(), 0});
    const auto sortValue = [](const SortKey &sk, const GroupView &g) {
        switch (sk.target) {
          case SortKey::Target::GroupKey:
            return g.key[sk.index];
          case SortKey::Target::Aggregate:
            return g.aggs[sk.index];
          case SortKey::Target::Count:
            break;
        }
        return static_cast<std::int64_t>(g.count);
    };
    const auto before = [&](const GroupView &a, const GroupView &b) {
        for (const auto &sk : plan.orderBy) {
            const std::int64_t av = sortValue(sk, a);
            const std::int64_t bv = sortValue(sk, b);
            if (av != bv)
                return sk.descending ? av > bv : av < bv;
        }
        return std::lexicographical_compare(a.key, a.key + kw, b.key,
                                            b.key + kw);
    };
    const std::size_t n = plan.limit != 0
                              ? std::min<std::size_t>(plan.limit,
                                                      views.size())
                              : views.size();
    std::partial_sort(views.begin(),
                      views.begin() + static_cast<std::ptrdiff_t>(n),
                      views.end(), before);
    QueryResult res;
    res.rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &g = views[i];
        res.rows.push_back(ResultRow{
            std::vector<std::int64_t>(g.key, g.key + kw),
            std::vector<std::int64_t>(g.aggs,
                                      g.aggs + plan.aggregates.size()),
            g.count});
    }
    return res;
}

/**
 * Leaf resolution over one morsel's current selection: columns
 * gather lazily through per-column BatchColumnReaders (cached per
 * (morsel, selection) epoch, so one expression referencing a column
 * twice decodes it once), and SubqueryRef nodes resolve their
 * probe-side key columns the same way before probing the
 * materialized lookup.
 */
class MorselExprContext final : public BatchExprContext
{
  public:
    MorselExprContext(const storage::TableStore &store,
                      const QueryPlan *plan,
                      const std::vector<BuildTable> *subs)
        : store_(&store), plan_(plan), subs_(subs)
    {
    }

    /** Point the context at a (morsel, selection) pair. Must be
     *  called again after the selection is compacted. */
    void
    begin(const Morsel &m, const SelectionVector &sel)
    {
        morsel_ = &m;
        sel_ = &sel;
        ++epoch_;
    }

    std::size_t
    entries() const override
    {
        return sel_->size();
    }

    std::span<const std::int64_t>
    ints(const ColRef &ref) override
    {
        auto &slot = columnSlot(ref.column);
        if (slot.epoch != epoch_) {
            slot.rd.gatherInts(*morsel_, sel_->span(), slot.batch);
            slot.epoch = epoch_;
        }
        return slot.batch.ints;
    }

    std::span<const std::uint8_t>
    chars(const ColRef &ref, std::uint32_t &width) override
    {
        auto &slot = columnSlot(ref.column);
        if (slot.epoch != epoch_) {
            slot.rd.gatherChars(*morsel_, sel_->span(), slot.batch);
            slot.epoch = epoch_;
        }
        width = slot.rd.column().width;
        return slot.batch.chars;
    }

    /** Dictionary route for LIKE: data-region morsels over a fully
     *  coded column hand back the gathered codes plus a per-pattern
     *  truth table evaluated once against the dictionary. */
    std::optional<DictFilterView>
    dictLike(const ColRef &ref, const std::string &pattern) override
    {
        auto &slot = columnSlot(ref.column);
        if (!slot.rd.dictUsable(*morsel_))
            return std::nullopt;
        if (slot.codeEpoch != epoch_) {
            slot.rd.gatherCodes(*morsel_, sel_->span(), slot.batch);
            slot.codeEpoch = epoch_;
        }
        for (const auto &[pat, lut] : slot.luts)
            if (pat == pattern)
                return DictFilterView{slot.batch.codes, lut};
        const auto *d = slot.rd.dict();
        slot.luts.emplace_back(
            pattern,
            d->matchTable([&](std::span<const std::uint8_t> v) {
                return likeMatch(v, pattern);
            }));
        return DictFilterView{slot.batch.codes,
                              slot.luts.back().second};
    }

    std::span<const std::int64_t>
    likeValues(const Expr &e) override
    {
        const auto dv = dictLike(e.col, e.pattern);
        if (!dv)
            return BatchExprContext::likeValues(e);
        likeScratch_.resize(dv->codes.size());
        for (std::size_t i = 0; i < dv->codes.size(); ++i)
            likeScratch_[i] = dv->lut[dv->codes[i]] != 0 ? 1 : 0;
        return likeScratch_;
    }

    std::span<const std::int64_t>
    subqueryValues(const Expr &ref) override
    {
        if (!plan_ || !subs_)
            fatal("batch expression: subquery reference outside the "
                  "probe filter context");
        const auto &sub = (*subs_)[ref.subquery];
        // Locate the keys once per (selection, subquery): Q17-style
        // predicates read two aggregates of one subquery.
        if (locEpoch_ != epoch_ || locSubquery_ != ref.subquery) {
            // Gather every key column first (each lives in its own
            // slot, so earlier spans stay valid).
            keySpans_.clear();
            for (const auto &key : plan_->subqueries[ref.subquery].keys)
                keySpans_.push_back(ints(key));
            sub.find(
                entries(),
                [&](std::size_t c) { return keySpans_[c]; }, locs_);
            locEpoch_ = epoch_;
            locSubquery_ = ref.subquery;
        }
        subVals_.resize(locs_.size());
        for (std::size_t i = 0; i < locs_.size(); ++i)
            subVals_[i] = sub.value(locs_[i], ref.aggIndex);
        return subVals_;
    }

  private:
    struct Slot
    {
        explicit Slot(BatchColumnReader r) : rd(std::move(r)) {}

        BatchColumnReader rd;
        ColumnBatch batch;
        std::uint64_t epoch = 0;
        std::uint64_t codeEpoch = 0;
        /** LIKE truth tables over the dictionary, per pattern. */
        std::vector<
            std::pair<std::string, std::vector<std::uint32_t>>>
            luts;
    };

    Slot &
    columnSlot(const std::string &column)
    {
        for (auto &s : slots_)
            if (s.first == column)
                return s.second;
        slots_.emplace_back(
            column, Slot(BatchColumnReader(*store_, column)));
        return slots_.back().second;
    }

    const storage::TableStore *store_;
    const QueryPlan *plan_;
    const std::vector<BuildTable> *subs_;
    const Morsel *morsel_ = nullptr;
    const SelectionVector *sel_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::vector<std::pair<std::string, Slot>> slots_;
    std::vector<std::span<const std::int64_t>> keySpans_;
    /** Located subquery keys, valid for (locEpoch_, locSubquery_). */
    std::vector<std::uint64_t> locs_;
    std::uint64_t locEpoch_ = 0;
    std::size_t locSubquery_ = 0;
    std::vector<std::int64_t> subVals_;
};

/**
 * Pushed-down predicates of one table input as fused selection-
 * vector kernels: each apply() is one pass over the morsel. The
 * closed int-range and char-prefix forms run their specialized
 * kernels first; expression predicates follow as a short-circuit
 * conjunction in plan order.
 */
class BatchPredicates
{
  public:
    BatchPredicates(const storage::TableStore &store,
                    const TableInput &input,
                    const QueryPlan *plan = nullptr,
                    const std::vector<BuildTable> *subs =
                        nullptr)
        : ctx_(store, plan, subs)
    {
        for (const auto &p : input.intPredicates)
            ints_.push_back(
                {BatchColumnReader(store, p.column), p.lo, p.hi});
        for (const auto &p : input.charPredicates)
            chars_.push_back({BatchColumnReader(store, p.column),
                              p.prefix, p.negate, {}, false});
        for (const auto &e : input.exprPredicates)
            exprs_.push_back(foldConstants(e));
    }

    void
    apply(const Morsel &m, SelectionVector &sel)
    {
        for (const auto &p : ints_) {
            if (sel.empty())
                return;
            p.rd.gatherInts(m, sel.span(), scratch_);
            filterIntRange(scratch_.ints, sel, p.lo, p.hi);
        }
        for (auto &p : chars_) {
            if (sel.empty())
                return;
            // Dictionary route: evaluate the prefix once per
            // distinct value, then filter the (narrower) codes.
            if (p.rd.dictUsable(m)) {
                if (!p.lutBuilt) {
                    p.lut = p.rd.dict()->matchTable(
                        [&p](std::span<const std::uint8_t> v) {
                            return p.prefix.size() <= v.size() &&
                                   std::memcmp(v.data(),
                                               p.prefix.data(),
                                               p.prefix.size()) == 0;
                        });
                    p.lutBuilt = true;
                }
                p.rd.gatherCodes(m, sel.span(), scratch_);
                simd::filterDictCodes(scratch_.codes, sel, p.lut,
                                      p.negate);
                continue;
            }
            p.rd.gatherChars(m, sel.span(), scratch_);
            filterCharPrefix(scratch_.chars, p.rd.column().width,
                             sel, p.prefix, p.negate);
        }
        for (const auto &e : exprs_) {
            if (sel.empty())
                return;
            // Each conjunct re-gathers over the current (compacted)
            // selection: begin() bumps the context epoch.
            ctx_.begin(m, sel);
            filterExprBatch(*e, ctx_, sel);
        }
    }

  private:
    struct IntPred
    {
        BatchColumnReader rd;
        std::int64_t lo, hi;
    };
    struct CharPred
    {
        BatchColumnReader rd;
        std::string prefix;
        bool negate;
        std::vector<std::uint32_t> lut; ///< Dict truth table.
        bool lutBuilt = false;
    };
    std::vector<IntPred> ints_;
    std::vector<CharPred> chars_;
    std::vector<ExprPtr> exprs_; ///< Constant-folded.
    ColumnBatch scratch_;
    MorselExprContext ctx_;
};

/**
 * The build-side scan of join builds and subquery pre-passes alike:
 * workers claim @p input's morsels dynamically, and each task
 * appends its morsel's surviving rows, in scan order, to its own
 * BuildRows — the @p keys columns, then per row the @p payload
 * columns and the evaluated @p values expressions. Concatenating the
 * tasks in order reproduces the serial scan, whichever worker ran
 * which task.
 */
std::vector<BuildRows>
collectBuildRows(const storage::TableStore &store,
                 const TableInput &input,
                 const std::vector<std::string> &keys,
                 const std::vector<std::string> &payload,
                 const std::vector<ExprPtr> &values,
                 const ExecOptions &opts, WorkerPool *pool)
{
    /** Per-worker scan state: private readers, predicate chain and
     *  batches, built lazily on the worker's first claimed morsel. */
    struct Collector
    {
        Collector(const storage::TableStore &st, const TableInput &in,
                  const std::vector<std::string> &key_cols,
                  const std::vector<std::string> &pay_cols,
                  std::size_t nvalues)
            : preds(st, in), ctx(st, nullptr, nullptr), vals(nvalues)
        {
            for (const auto &col : key_cols)
                keyRd.emplace_back(st, col);
            for (const auto &col : pay_cols)
                payRd.emplace_back(st, col);
        }
        BatchPredicates preds;
        std::vector<BatchColumnReader> keyRd, payRd;
        MorselExprContext ctx;
        SelectionVector sel;
        ColumnBatch batch;
        std::vector<std::vector<std::int64_t>> vals;
    };

    const auto morsels = scanMorsels(store, opts.morselRows);
    std::vector<BuildRows> out(morsels.size());
    std::vector<std::optional<Collector>> states(pool ? pool->workers()
                                                      : 1);
    const std::size_t valw = payload.size() + values.size();
    runTasks(pool, morsels.size(), [&](std::uint32_t w, std::size_t t) {
        if (!states[w])
            states[w].emplace(store, input, keys, payload,
                              values.size());
        auto &st = *states[w];
        const Morsel &m = morsels[t];
        auto &rows = out[t];
        rows.keys.resize(keys.size());
        visibleRows(store, m, st.sel);
        st.preds.apply(m, st.sel);
        const std::size_t n = st.sel.size();
        if (n == 0)
            return;
        for (std::size_t c = 0; c < keys.size(); ++c) {
            st.keyRd[c].gatherInts(m, st.sel.span(), st.batch);
            rows.appendKeys(c, st.batch.ints);
        }
        rows.vals.resize(n * valw);
        auto scatter = [&](std::size_t v,
                           std::span<const std::int64_t> col) {
            std::int64_t *dst = rows.vals.data() + v;
            for (std::size_t i = 0; i < n; ++i, dst += valw)
                *dst = col[i];
        };
        for (std::size_t c = 0; c < payload.size(); ++c) {
            st.payRd[c].gatherInts(m, st.sel.span(), st.batch);
            scatter(c, st.batch.ints);
        }
        if (!values.empty())
            st.ctx.begin(m, st.sel);
        for (std::size_t a = 0; a < values.size(); ++a) {
            evalExprBatch(*values[a], st.ctx, st.vals[a]);
            scatter(payload.size() + a, st.vals[a]);
        }
        rows.rows = n;
    });
    return out;
}

/**
 * Scalar-subquery pre-pass: the source table streams through the
 * build-side scan (group keys plus aggregate-input expressions
 * evaluated column-at-a-time), and the collected rows fold into an
 * Aggregates BuildTable. Exact integer folds, commutative and
 * associative, so the result is identical for every worker count.
 */
std::vector<BuildTable>
materializeSubqueriesBatch(const txn::Database &db,
                           const QueryPlan &plan,
                           const ExecOptions &opts, WorkerPool *pool)
{
    std::vector<BuildTable> out;
    out.reserve(plan.subqueries.size());
    for (const auto &spec : plan.subqueries) {
        std::vector<ExprPtr> inputs;
        std::vector<AggKind> kinds;
        for (const auto &agg : spec.aggs) {
            inputs.push_back(foldConstants(agg.value));
            kinds.push_back(agg.kind);
        }
        const auto rows = collectBuildRows(
            db.table(spec.source.table).store(), spec.source,
            spec.groupBy, {}, inputs, opts, pool);
        out.push_back(BuildTable::aggregates(
            static_cast<std::uint32_t>(spec.groupBy.size()),
            std::move(kinds), rows, pool));
    }
    return out;
}

/**
 * Leaf resolution over pre-gathered value vectors (the post-join
 * expanded entries, or the fused pass's probe batches): ints()
 * resolves columns and likeValues() the 0/1 vectors of probe LIKE
 * nodes, both registered up front. Aggregate expressions are
 * subquery-free by validation, and no raw char payload is ever
 * read here.
 */
class RefVecExprContext final : public BatchExprContext
{
  public:
    void
    reset(std::size_t n)
    {
        n_ = n;
        refs_.clear();
        likes_.clear();
    }

    void
    add(const ColRef &ref, std::span<const std::int64_t> vals)
    {
        refs_.emplace_back(ref, vals);
    }

    /** Register the pre-evaluated 0/1 vector of one LIKE node. */
    void
    addLike(const Expr *node, std::span<const std::int64_t> vals)
    {
        likes_.emplace_back(node, vals);
    }

    std::size_t
    entries() const override
    {
        return n_;
    }

    std::span<const std::int64_t>
    ints(const ColRef &ref) override
    {
        for (const auto &[r, vals] : refs_)
            if (r == ref)
                return vals;
        fatal("batch aggregate expression: unresolved column {}",
              ref.column);
    }

    std::span<const std::uint8_t>
    chars(const ColRef &ref, std::uint32_t &) override
    {
        fatal("batch aggregate expression: no char payload for {} "
              "(LIKE resolves through pre-evaluated vectors)",
              ref.column);
    }

    /** LIKE nodes resolve to vectors evaluated over the probe
     *  morsel (dictionary-accelerated when possible) and mapped
     *  through the join expansion, keyed by node identity. */
    std::span<const std::int64_t>
    likeValues(const Expr &e) override
    {
        for (const auto &[node, vals] : likes_)
            if (node == &e)
                return vals;
        fatal("batch aggregate expression: unresolved LIKE over {}",
              e.col.column);
    }

    std::span<const std::int64_t>
    subqueryValues(const Expr &) override
    {
        fatal("batch aggregate expression: subquery references are "
              "predicate-only");
    }

  private:
    std::size_t n_ = 0;
    std::vector<std::pair<ColRef, std::span<const std::int64_t>>>
        refs_;
    std::vector<
        std::pair<const Expr *, std::span<const std::int64_t>>>
        likes_;
};

/** ColRef resolved for the batch probe: an index into the morsel's
 *  gathered probe columns, or a payload slot of an earlier join. */
struct BatchRef
{
    int side = ColRef::kProbe;
    std::size_t idx = 0;
};

PlanExecution
executeBatchImpl(const txn::Database &db, const QueryPlan &plan,
                 const ExecOptions &opts, WorkerPool *pool)
{
    const auto &probe_tbl = db.table(plan.probe.table);
    const auto &probe_store = probe_tbl.store();

    using Clock = std::chrono::steady_clock;
    const auto phaseNs = [](Clock::time_point a,
                            Clock::time_point b) {
        return std::chrono::duration<double, std::nano>(b - a)
            .count();
    };
    const auto t_start = Clock::now();

    // Scalar-subquery pre-pass: materialized through the parallel
    // morsel pipeline before the fan-out, then probed strictly
    // read-only by every worker's predicate chain.
    const auto subqueries =
        materializeSubqueriesBatch(db, plan, opts, pool);
    const auto t_subq = Clock::now();

    // Build phase: each join's build input streams through the
    // build-side scan, and the collected rows place into the join's
    // BuildTable — a key set for semi/anti joins, key -> payload
    // tuple ranges for inner joins, every key's tuples in serial scan
    // order so inner-join match expansion stays byte-identical to the
    // serial build. Built once here, then probed strictly read-only
    // by every worker.
    std::vector<BuildTable> builds;
    builds.reserve(plan.joins.size());
    for (const auto &join : plan.joins) {
        const bool inner = join.kind == JoinKind::Inner;
        std::vector<std::string> key_cols;
        for (const auto &key : join.keys)
            key_cols.push_back(key.first);
        const auto rows = collectBuildRows(
            db.table(join.build.table).store(), join.build, key_cols,
            inner ? join.payload : std::vector<std::string>{}, {}, opts,
            pool);
        const auto keyw = static_cast<std::uint32_t>(key_cols.size());
        builds.push_back(
            inner ? BuildTable::tupleRanges(
                        keyw,
                        static_cast<std::uint32_t>(join.payload.size()),
                        rows, pool)
                  : BuildTable::keySet(keyw, rows, pool));
    }
    const auto t_build = Clock::now();

    // Probe-side references: every referenced probe column is
    // gathered exactly once per morsel (per worker), shared across
    // join keys, group keys and aggregates. Only the slot -> column
    // assignment is shared; each worker owns its readers and
    // batches.
    std::vector<std::string> probe_cols;
    std::unordered_map<std::string, std::size_t> probe_slot;
    auto probeColumn = [&](const std::string &col) {
        const auto [it, fresh] =
            probe_slot.try_emplace(col, probe_cols.size());
        if (fresh)
            probe_cols.push_back(col);
        return it->second;
    };
    auto makeRef = [&](const ColRef &ref) {
        if (ref.side == ColRef::kProbe)
            return BatchRef{ColRef::kProbe,
                            probeColumn(ref.column)};
        const auto &payload =
            plan.joins[static_cast<std::size_t>(ref.side)].payload;
        return BatchRef{
            ref.side,
            static_cast<std::size_t>(
                std::find(payload.begin(), payload.end(),
                          ref.column) -
                payload.begin())};
    };
    std::vector<std::vector<BatchRef>> join_key_refs(
        plan.joins.size());
    for (std::size_t k = 0; k < plan.joins.size(); ++k)
        for (const auto &[build_col, ref] : plan.joins[k].keys) {
            (void)build_col;
            join_key_refs[k].push_back(makeRef(ref));
        }
    std::vector<BatchRef> group_refs;
    for (const auto &key : plan.groupBy)
        group_refs.push_back(makeRef(key));
    // Aggregate inputs: a plain column slot, or a constant-folded
    // expression with every referenced column resolved to its slot
    // (probe) or payload index (earlier inner joins).
    struct BatchAggInput
    {
        ExprPtr expr; ///< Null for the plain-column form.
        BatchRef ref; ///< Plain column (expr == nullptr).
        std::vector<std::pair<ColRef, BatchRef>> exprRefs;
        /** Probe-side LIKE leaves (by node identity) and their
         *  slots in the per-worker pre-evaluated vectors. */
        std::vector<const Expr *> likes;
        std::vector<std::size_t> likeSlots;
    };
    auto collectLikes = [](const Expr &e, auto &&self,
                           std::vector<const Expr *> &out) -> void {
        if (e.op == ExprOp::Like) {
            out.push_back(&e);
            return;
        }
        for (const auto &k : e.kids)
            self(*k, self, out);
    };
    std::vector<BatchAggInput> agg_inputs;
    std::vector<const Expr *> agg_like_nodes;
    std::vector<AggKind> kinds;
    for (const auto &agg : plan.aggregates) {
        kinds.push_back(agg.kind);
        BatchAggInput in;
        if (agg.expr) {
            in.expr = foldConstants(agg.expr);
            // Char LIKE targets resolve through pre-evaluated
            // vectors, not the gathered Int batches.
            forEachColumnRef(
                *in.expr,
                [&in, &makeRef](const ColRef &ref, bool is_char) {
                    if (is_char)
                        return;
                    for (const auto &[seen, slot] : in.exprRefs)
                        if (seen == ref)
                            return;
                    in.exprRefs.emplace_back(ref, makeRef(ref));
                });
            collectLikes(*in.expr, collectLikes, in.likes);
            for (const auto *l : in.likes) {
                in.likeSlots.push_back(agg_like_nodes.size());
                agg_like_nodes.push_back(l);
            }
        } else {
            in.ref = makeRef(agg.value);
        }
        agg_inputs.push_back(std::move(in));
    }

    // Join classification. Semi/anti joins keyed purely on probe
    // columns are *selection kernels*: each probes the morsel's keys
    // in bulk and compacts the selection like any other predicate,
    // so a plan whose joins are all of that shape still runs its
    // aggregation fused. Inner joins and payload-keyed joins go
    // through the batched match expansion.
    std::vector<char> probe_keyed(plan.joins.size(), 1);
    for (std::size_t k = 0; k < plan.joins.size(); ++k)
        for (const auto &ref : join_key_refs[k])
            if (ref.side != ColRef::kProbe)
                probe_keyed[k] = 0;
    std::vector<std::size_t> filter_joins, descend_joins;
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        if (plan.joins[k].kind != JoinKind::Inner && probe_keyed[k])
            filter_joins.push_back(k);
        else
            descend_joins.push_back(k);
    }

    // Columns still needed after the filter-join stage (descend join
    // keys, group keys, aggregate inputs): gathered over the final
    // selection only.
    std::vector<char> late(probe_cols.size(), 0);
    auto markLate = [&](const BatchRef &r) {
        if (r.side == ColRef::kProbe)
            late[r.idx] = 1;
    };
    for (const auto k : descend_joins)
        for (const auto &ref : join_key_refs[k])
            markLate(ref);
    for (const auto &ref : group_refs)
        markLate(ref);
    for (const auto &in : agg_inputs) {
        if (in.expr)
            for (const auto &[cref, bref] : in.exprRefs)
                markLate(bref);
        else
            markLate(in.ref);
    }
    std::vector<std::size_t> late_cols;
    for (std::size_t c = 0; c < probe_cols.size(); ++c)
        if (late[c])
            late_cols.push_back(c);

    const bool no_descend = descend_joins.empty();

    /**
     * Everything one worker touches while draining morsels: its own
     * readers, batches, selection, group fold and join-expansion
     * scratch. Workers never share mutable state; the build tables
     * and the plan context above are read-only during the fan-out.
     */
    struct WorkerState
    {
        WorkerState(const storage::TableStore &store,
                    const QueryPlan &plan,
                    const std::vector<BuildTable> *subs,
                    const std::vector<std::string> &cols,
                    const std::vector<AggKind> &kinds)
            : preds(store, plan.probe, &plan, subs),
              aggLikeCtx(store, nullptr, nullptr),
              fold(static_cast<std::uint32_t>(plan.groupBy.size()), kinds)
        {
            rd.reserve(cols.size());
            for (const auto &name : cols)
                rd.emplace_back(store, name);
            batches.resize(cols.size());
            bulkLocs.resize(plan.joins.size());
            etup.resize(plan.joins.size());
            etupNext.resize(plan.joins.size());
            gvals.resize(plan.groupBy.size());
            avals.resize(plan.aggregates.size());
            keyPtrs.resize(plan.groupBy.size());
            aggPtrs.resize(plan.aggregates.size());
        }

        BatchPredicates preds;
        std::vector<BatchColumnReader> rd; ///< By probe slot.
        std::vector<ColumnBatch> batches;  ///< By probe slot.
        SelectionVector sel;
        /** Probe-keyed descend joins' located keys per selection
         *  row. */
        std::vector<std::vector<std::uint64_t>> bulkLocs;
        /** Located keys of a filter join (per selection row) or of a
         *  payload-keyed descend join (per entry). */
        std::vector<std::uint64_t> locs;
        /** Payload-keyed descend join keys over the entries. */
        std::vector<std::vector<std::int64_t>> keyScratch;
        // Join match expansion: entry e is (selection index erow[e],
        // payload tuple etup[k][e] per expanded inner join k).
        std::vector<std::uint32_t> erow, erowNext;
        std::vector<std::vector<const std::int64_t *>> etup, etupNext;
        std::vector<std::size_t> activeTup; ///< Expanded inner joins.
        /** Group-key / aggregate columns the fold reads when they do
         *  not alias a gathered batch: gathered over the expanded
         *  entries, or an evaluated aggregate expression. */
        std::vector<std::vector<std::int64_t>> gvals, avals;
        /** Per-ref gathers feeding a post-join expression eval. */
        std::vector<std::vector<std::int64_t>> refScratch;
        /** Aggregate-LIKE machinery: the context evaluating each
         *  LIKE node over the morsel's final selection (dictionary-
         *  accelerated), the per-node 0/1 vectors (parallel to the
         *  selection), and the join-expansion remap scratch. */
        MorselExprContext aggLikeCtx;
        std::vector<std::vector<std::int64_t>> likeVals;
        std::vector<std::vector<std::int64_t>> likeExpand;
        RefVecExprContext exprCtx;
        /** The batch the fold reads: group-key and aggregate columns
         *  over the final selection or the expanded entries. */
        std::vector<std::span<const std::int64_t>> keyPtrs, aggPtrs;
        GroupFold fold;
        std::uint64_t visible = 0;
    };

    /**
     * Evaluate every aggregate LIKE node once over the morsel's
     * final selection (dictionary codes when the column is encoded,
     * raw bytes otherwise) into per-worker 0/1 vectors. The fused
     * pass uses them directly; the join-expansion path remaps them
     * through erow.
     */
    auto computeAggLikes = [&](WorkerState &st, const Morsel &m) {
        if (agg_like_nodes.empty())
            return;
        st.likeVals.resize(agg_like_nodes.size());
        st.aggLikeCtx.begin(m, st.sel);
        for (std::size_t j = 0; j < agg_like_nodes.size(); ++j) {
            const auto vals =
                st.aggLikeCtx.likeValues(*agg_like_nodes[j]);
            st.likeVals[j].assign(vals.begin(), vals.end());
        }
    };

    /**
     * Fold one batch of n entries into the worker's GroupFold: every
     * group key and aggregate input resolves to a column over the
     * entries — col(ref, scratch) per column reference, like(slot,
     * scratch) per aggregate LIKE vector — and expressions evaluate
     * column-at-a-time over those columns. The fused pass's columns
     * alias its gathered batches; after a join expansion they gather
     * through the entries into the scratch.
     */
    auto foldEntries = [&](WorkerState &st, std::size_t n, auto &&col,
                           auto &&like) {
        for (std::size_t g = 0; g < group_refs.size(); ++g)
            st.keyPtrs[g] = col(group_refs[g], st.gvals[g]);
        for (std::size_t a = 0; a < agg_inputs.size(); ++a) {
            const auto &in = agg_inputs[a];
            if (!in.expr) {
                st.aggPtrs[a] = col(in.ref, st.avals[a]);
                continue;
            }
            if (st.refScratch.size() < in.exprRefs.size())
                st.refScratch.resize(in.exprRefs.size());
            if (st.likeExpand.size() < in.likes.size())
                st.likeExpand.resize(in.likes.size());
            st.exprCtx.reset(n);
            for (std::size_t c = 0; c < in.exprRefs.size(); ++c)
                st.exprCtx.add(in.exprRefs[c].first,
                               col(in.exprRefs[c].second,
                                   st.refScratch[c]));
            for (std::size_t j = 0; j < in.likes.size(); ++j)
                st.exprCtx.addLike(
                    in.likes[j], like(in.likeSlots[j], st.likeExpand[j]));
            evalExprBatch(*in.expr, st.exprCtx, st.avals[a]);
            st.aggPtrs[a] = st.avals[a];
        }
        st.fold.fold(n, st.keyPtrs, st.aggPtrs);
    };

    auto processMorsel = [&](WorkerState &st, const Morsel &m) {
        visibleRows(probe_store, m, st.sel);
        st.visible += st.sel.size();
        st.preds.apply(m, st.sel);

        // Filter joins: locate the morsel's keys in the built key
        // sets in bulk and compact the selection in place.
        for (const auto k : filter_joins) {
            if (st.sel.empty())
                break;
            const auto &refs = join_key_refs[k];
            for (const auto &ref : refs)
                st.rd[ref.idx].gatherInts(m, st.sel.span(),
                                          st.batches[ref.idx]);
            builds[k].find(
                st.sel.size(),
                [&](std::size_t c) {
                    return std::span<const std::int64_t>(
                        st.batches[refs[c].idx].ints);
                },
                st.locs);
            const bool anti =
                plan.joins[k].kind == JoinKind::Anti;
            std::size_t n = 0;
            for (std::size_t i = 0; i < st.sel.size(); ++i) {
                st.sel.idx[n] = st.sel.idx[i];
                n += static_cast<std::size_t>(
                    builds[k].contains(st.locs[i]) != anti);
            }
            st.sel.idx.resize(n);
        }
        if (st.sel.empty())
            return;
        for (const auto c : late_cols)
            st.rd[c].gatherInts(m, st.sel.span(), st.batches[c]);
        computeAggLikes(st, m);

        if (no_descend) {
            // Fused filter+aggregate: every reference is probe-side,
            // so the fold reads the gathered batches in place.
            foldEntries(
                st, st.sel.size(),
                [&](const BatchRef &r, std::vector<std::int64_t> &) {
                    return std::span<const std::int64_t>(
                        st.batches[r.idx].ints);
                },
                [&](std::size_t slot, std::vector<std::int64_t> &) {
                    return std::span<const std::int64_t>(
                        st.likeVals[slot]);
                });
            return;
        }

        // Locate the pure-probe descend-join keys for the morsel.
        for (const auto k : descend_joins) {
            if (!probe_keyed[k])
                continue;
            const auto &refs = join_key_refs[k];
            builds[k].find(
                st.sel.size(),
                [&](std::size_t c) {
                    return std::span<const std::int64_t>(
                        st.batches[refs[c].idx].ints);
                },
                st.bulkLocs[k]);
        }

        // Batched match expansion: entries start as the surviving
        // selection; each join either compacts them (semi/anti) or
        // expands every entry into its matching payload tuples
        // (inner), in (row, tuple) order — exactly the order a
        // recursive per-row descent through the joins visits.
        auto &erow = st.erow;
        erow.resize(st.sel.size());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(st.sel.size()); ++i)
            erow[i] = i;
        st.activeTup.clear();

        for (const auto k : descend_joins) {
            const auto &side = builds[k];
            if (!probe_keyed[k]) {
                // Keys over earlier joins' payloads: gather them over
                // the entries, then locate in bulk.
                const auto &refs = join_key_refs[k];
                if (st.keyScratch.size() < refs.size())
                    st.keyScratch.resize(refs.size());
                for (std::size_t c = 0; c < refs.size(); ++c) {
                    const auto &r = refs[c];
                    auto &dst = st.keyScratch[c];
                    dst.resize(erow.size());
                    for (std::size_t e = 0; e < erow.size(); ++e)
                        dst[e] = r.side == ColRef::kProbe
                                     ? st.batches[r.idx].ints[erow[e]]
                                     : st.etup[static_cast<std::size_t>(
                                           r.side)][e][r.idx];
                }
                side.find(
                    erow.size(),
                    [&](std::size_t c) {
                        return std::span<const std::int64_t>(
                            st.keyScratch[c]);
                    },
                    st.locs);
            }
            auto locAt = [&](std::size_t e) {
                return probe_keyed[k] ? st.bulkLocs[k][erow[e]]
                                      : st.locs[e];
            };
            if (plan.joins[k].kind != JoinKind::Inner) {
                const bool anti =
                    plan.joins[k].kind == JoinKind::Anti;
                std::size_t n = 0;
                for (std::size_t e = 0; e < erow.size(); ++e) {
                    if (side.contains(locAt(e)) == anti)
                        continue;
                    erow[n] = erow[e];
                    for (const auto l : st.activeTup)
                        st.etup[l][n] = st.etup[l][e];
                    ++n;
                }
                erow.resize(n);
                for (const auto l : st.activeTup)
                    st.etup[l].resize(n);
            } else {
                const std::size_t payw = plan.joins[k].payload.size();
                st.erowNext.clear();
                for (const auto l : st.activeTup)
                    st.etupNext[l].clear();
                st.etupNext[k].clear();
                for (std::size_t e = 0; e < erow.size(); ++e) {
                    const auto match = side.matches(locAt(e));
                    for (std::uint64_t j = 0; j < match.count; ++j) {
                        st.erowNext.push_back(erow[e]);
                        for (const auto l : st.activeTup)
                            st.etupNext[l].push_back(st.etup[l][e]);
                        st.etupNext[k].push_back(
                            match.first +
                            static_cast<std::size_t>(j) * payw);
                    }
                }
                std::swap(erow, st.erowNext);
                for (const auto l : st.activeTup)
                    std::swap(st.etup[l], st.etupNext[l]);
                std::swap(st.etup[k], st.etupNext[k]);
                st.activeTup.push_back(k);
            }
            if (erow.empty())
                return;
        }

        // Fold the expanded entries: each column gathers through the
        // entries' selection rows or payload tuples, and each LIKE
        // vector, evaluated over the selection, through their rows.
        const std::size_t ne = erow.size();
        foldEntries(
            st, ne,
            [&](const BatchRef &r, std::vector<std::int64_t> &out) {
                out.resize(ne);
                if (r.side == ColRef::kProbe) {
                    const auto &src = st.batches[r.idx].ints;
                    for (std::size_t e = 0; e < ne; ++e)
                        out[e] = src[erow[e]];
                } else {
                    const auto &tup =
                        st.etup[static_cast<std::size_t>(r.side)];
                    for (std::size_t e = 0; e < ne; ++e)
                        out[e] = tup[e][r.idx];
                }
                return std::span<const std::int64_t>(out);
            },
            [&](std::size_t slot, std::vector<std::int64_t> &out) {
                const auto &src = st.likeVals[slot];
                out.resize(ne);
                for (std::size_t e = 0; e < ne; ++e)
                    out[e] = src[erow[e]];
                return std::span<const std::int64_t>(out);
            });
    };

    // Probe fan-out: each morsel of the probe table is one task,
    // claimed dynamically by the pool's workers; each worker drains
    // its morsels through its private state, and nothing below
    // depends on which worker ran which morsel. States are built
    // lazily on a worker's first claimed morsel — a pool given fewer
    // morsels than workers constructs no more reader sets than
    // morsels actually run.
    const auto morsels = scanMorsels(probe_store, opts.morselRows);
    const std::uint32_t nworkers = pool ? pool->workers() : 1;
    std::vector<std::optional<WorkerState>> states(nworkers);
    runTasks(pool, morsels.size(), [&](std::uint32_t w, std::size_t t) {
        if (!states[w])
            states[w].emplace(probe_store, plan, &subqueries,
                              probe_cols, kinds);
        processMorsel(*states[w], morsels[t]);
    });
    const auto t_probe = Clock::now();

    // CPU-side merge: every worker's fold window flushes into one of
    // the workers' group tables (an empty stand-in when no morsel
    // ran), so a plan whose groups all sat in windows merges nothing
    // more, and the tables merge partition-parallel into one. Every
    // fold is commutative (sum/min/max/count), and materialization
    // orders by (order-by keys, group key), so the result is
    // byte-identical for any worker count. Workers that never claimed
    // a morsel have no state to fold.
    std::vector<WorkerState *> engaged;
    for (auto &st : states)
        if (st)
            engaged.push_back(&*st);
    PlanExecution out;
    out.subqueryNs = phaseNs(t_start, t_subq);
    out.buildNs = phaseNs(t_subq, t_build);
    out.probeNs = phaseNs(t_build, t_probe);
    for (const auto *st : engaged)
        out.rowsVisible += st->visible;
    for (const auto &b : builds)
        out.stats.joinBuilds.push_back({b.rows(), b.denseSlots()});
    for (const auto &sub : subqueries)
        out.stats.subqueryBuilds.push_back(
            {sub.rows(), sub.denseSlots()});

    std::vector<GroupTable *> tables;
    for (auto *st : engaged)
        tables.push_back(&st->fold.table());
    GroupTable empty(static_cast<std::uint32_t>(plan.groupBy.size()),
                     plan.aggregates.size());
    if (tables.empty())
        tables.push_back(&empty);
    for (auto *st : engaged)
        st->fold.flush(*tables.front());
    GroupTable &groups = mergeGroupTables(
        tables, pool,
        [&kinds](GroupTable::Group into, const std::int64_t *from,
                 std::uint64_t from_count) {
            combineSlots(kinds, into, from, from_count);
        });

    std::vector<GroupView> views;
    views.reserve(groups.size());
    groups.forEach([&](const std::int64_t *key,
                       const std::int64_t *aggs, std::uint64_t count) {
        views.push_back(GroupView{key, aggs, count});
    });
    out.result = materializeViews(plan, std::move(views));
    out.mergeNs = phaseNs(t_probe, Clock::now());
    return out;
}

} // namespace

PlanExecution
executePlan(const txn::Database &db, const QueryPlan &plan,
            const ExecOptions &opts)
{
    validatePlan(plan);
    if (opts.morselRows == 0 ||
        (opts.morselRows & (opts.morselRows - 1)) != 0)
        fatal("executePlan: morselRows must be a power of two "
              "(got {})",
              opts.morselRows);
    WorkerPool *pool = opts.pool;
    std::optional<WorkerPool> local;
    // Every phase fans its morsels (and the build placements and
    // group merge) out over the pool.
    if (!pool) {
        const std::uint32_t w = opts.workers == 0
                                    ? WorkerPool::hardwareWorkers()
                                    : opts.workers;
        if (w > 1)
            pool = &local.emplace(w);
    }
    return executeBatchImpl(db, plan, opts, pool);
}

} // namespace pushtap::olap
