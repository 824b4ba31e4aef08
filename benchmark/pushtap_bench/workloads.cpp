#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "host_probe.hpp"
#include "htap/pushtap_db.hpp"
#include "support/reference_executor.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::bench {
namespace {

using workload::ChTable;

/** Setup repeats per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Failure messages kept per run. */
constexpr std::size_t kMaxErrors = 5;

double
toSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
toMs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/**
 * This process's peak RSS. Read from VmHWM, which starts afresh at
 * exec: getrusage's ru_maxrss carries over the RSS of the process
 * that forked this one (e.g. a run.py that has parsed large traces).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    fatal("no VmHWM in /proc/self/status");
}

/** Independent stream seeds derived from the one --seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return SplitMix64(seed ^ (stream * 0x9E3779B97F4A7C15ULL)).next();
}

/**
 * Data-region headroom for @p new_orders NewOrders and @p payments
 * Payments. Headroom is one fraction of every table's populated rows,
 * so the table that grows fastest relative to its size sets it: a
 * NewOrder appends one ORDERS, one NEWORDER and kLinesPerOrder
 * ORDERLINE rows, a Payment one HISTORY row.
 */
double
insertHeadroom(double scale, std::uint64_t new_orders,
               std::uint64_t payments)
{
    const auto rows = workload::chRowCounts(scale);
    const auto share = [&rows](ChTable t, std::uint64_t inserts) {
        return static_cast<double>(inserts) /
               static_cast<double>(rows.at(t));
    };
    const double need = std::max(
        {share(ChTable::Orders, new_orders),
         share(ChTable::NewOrder, new_orders),
         share(ChTable::OrderLine, new_orders * workload::kLinesPerOrder),
         share(ChTable::History, payments)});
    return need * 1.05 + 0.05;
}

/** Six-sigma bound on either kind's count among @p n 50/50 mixed
 *  transactions. */
std::uint64_t
mixedKindBound(std::uint64_t n)
{
    return n / 2 +
           static_cast<std::uint64_t>(3.0 * std::sqrt(static_cast<double>(n))) +
           16;
}

const std::vector<workload::ExecutableQuery> &
plans()
{
    return workload::chExecutablePlans();
}

void
noteError(RunRecord &rec, const std::string &msg)
{
    if (rec.errors.size() < kMaxErrors)
        rec.errors.push_back(msg);
}

/** Run @p fn as one attempted operation; a FatalError fails it. */
template <typename Fn>
bool
attempt(RunRecord &rec, Fn &&fn)
{
    ++rec.attempted;
    try {
        fn();
        return true;
    } catch (const FatalError &e) {
        ++rec.failed;
        noteError(rec, e.what());
        return false;
    }
}

bool
sameAnswer(const olap::QueryResult &got,
           const std::vector<testsupport::RefRow> &want)
{
    if (got.rows.size() != want.size())
        return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &g = got.rows[i];
        if (g.keys != want[i].keys || g.aggs != want[i].aggs ||
            g.count != want[i].count)
            return false;
    }
    return true;
}

/** Check @p got against the reference executor, which reads the
 *  newest committed versions of @p db. */
void
compareWithReference(txn::Database &db, std::size_t plan,
                     const olap::QueryResult &got, RunRecord &rec)
{
    ++rec.checked;
    bool ok = false;
    try {
        ok = sameAnswer(got,
                        testsupport::referenceExecute(db, plans()[plan].plan));
    } catch (const FatalError &e) {
        noteError(rec, e.what());
    }
    if (!ok) {
        ++rec.checkFailed;
        ++rec.failed;
        noteError(rec, strFormat("Q{} differs from the reference answer",
                                 plans()[plan].queryNo));
    }
}

/** Run @p fn as answer checking: its time goes to verifyS, and so
 *  out of any measured phase it interrupts. */
template <typename Fn>
void
verifyPhase(RunRecord &rec, Tracer *t, std::uint64_t req, Fn &&fn)
{
    Scope span(t, "verify", req);
    const auto checked = rec.checked;
    const auto failed = rec.checkFailed;
    const std::int64_t t0 = nowNs();
    fn();
    rec.verifyS += toSeconds(nowNs() - t0);
    span.close({{"checked", static_cast<double>(rec.checked - checked)},
                {"failed", static_cast<double>(rec.checkFailed - failed)}});
}

/**
 * Samples the host-speed reference at the start of a measured phase
 * and after each tenth of its operations, keeping the probes' time
 * out of the measurement.
 */
class ProbeSchedule
{
  public:
    static constexpr std::uint64_t kSamples = 10;

    ProbeSchedule(RunRecord &rec, std::uint64_t ops) : rec_(rec), ops_(ops)
    {
        sample();
    }

    /** Report that the first @p ops_done operations completed; true
     *  when a probe ran. */
    bool
    done(std::uint64_t ops_done)
    {
        bool sampled = false;
        while (next_ <= kSamples && ops_done * kSamples >= next_ * ops_) {
            sample();
            ++next_;
            sampled = true;
        }
        return sampled;
    }

    /** Time since the start, probes excluded. */
    double
    elapsedS() const
    {
        return toSeconds(nowNs() - start_) - (rec_.probeS - probe0_);
    }

  private:
    void
    sample()
    {
        static HostProbe probe;
        const std::int64_t t0 = nowNs();
        probe.sample();
        rec_.probeS += toSeconds(nowNs() - t0);
        rec_.hostRefMs = probe.refMs();
    }

    RunRecord &rec_;
    std::uint64_t ops_;
    std::uint64_t next_ = 1;
    double probe0_ = rec_.probeS;
    std::int64_t start_ = nowNs();
};

/** The 22 CH plans in a fresh seeded permutation per round. */
class PlanOrder
{
  public:
    explicit PlanOrder(std::uint64_t seed) : rng_(seed)
    {
        order_.resize(plans().size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        pos_ = order_.size();
    }

    /** Index into plans() of the next query. */
    std::size_t
    next()
    {
        if (pos_ == order_.size()) {
            for (std::size_t i = order_.size() - 1; i > 0; --i)
                std::swap(order_[i], order_[rng_.below(i + 1)]);
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    Rng rng_;
    std::vector<std::size_t> order_;
    std::size_t pos_;
};

/** One instance under test. Members are destroyed in reverse order,
 *  so the worker group goes before the models and database it uses. */
struct Instance
{
    std::unique_ptr<htap::PushtapDB> db;
    std::unique_ptr<format::BandwidthModel> bw;
    std::unique_ptr<dram::BatchTimingModel> timing;
    std::unique_ptr<txn::TxnWorkerGroup> group;
};

/** Counters of a measured phase's transaction stream. */
void
closeMeasure(Scope &span, const txn::TxnStats &before,
             const txn::TxnStats &after, double active_s,
             double host_ref_ms)
{
    const auto delta = [&](const char *part) {
        return after.cpu.get(part) - before.cpu.get(part);
    };
    span.close({{"active_ns", active_s * 1e9},
                {"txns", static_cast<double>(after.transactions -
                                             before.transactions)},
                {"versions", static_cast<double>(after.versionsCreated -
                                                 before.versionsCreated)},
                {"mem_lines", after.memLines - before.memLines},
                {"model.indexing", delta("indexing")},
                {"model.chain_traverse", delta("chain_traverse")},
                {"model.allocation", delta("allocation")},
                {"model.computation", delta("computation")},
                {"model.relayout", delta("relayout")},
                {"model.commit", delta("commit")},
                {"span_cost_ns", Tracer::spanCostNs()},
                {"ref_ms", host_ref_ms}});
}

class Workload
{
  public:
    explicit Workload(const RunConfig &cfg) : cfg_(cfg) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Sizing and seeds only; every execution knob keeps its
     *  default. */
    virtual htap::PushtapOptions options() const = 0;

    /** Set-up beyond the PushtapDB constructor. */
    virtual void attach(Instance &) {}

    /** One untraced round of the workload's own loop. */
    virtual void warmup(Instance &inst) = 0;

    virtual void measure(Instance &inst, RunRecord &rec) = 0;

    /** Answer checks that run after the measured phase. */
    virtual void verify(Instance &, RunRecord &) {}

  protected:
    htap::PushtapOptions
    baseOptions(double scale, double headroom) const
    {
        htap::PushtapOptions o;
        o.database.scale = scale;
        o.database.insertHeadroom = headroom;
        o.database.seed = deriveSeed(cfg_.seed, 1);
        o.txnSeed = deriveSeed(cfg_.seed, 2);
        return o;
    }

    std::uint64_t planSeed() const { return deriveSeed(cfg_.seed, 3); }

    /**
     * Count @p txns commits toward the facade's defragmentation
     * interval, the way PushtapDB::mixed/mixedParallel do; true when
     * a pass is due.
     */
    bool
    defragDue(const htap::PushtapDB &db, std::uint64_t txns)
    {
        const auto interval = db.options().defragInterval;
        if (interval == 0)
            return false;
        sinceDefrag_ += txns;
        if (sinceDefrag_ < interval)
            return false;
        sinceDefrag_ = 0;
        return true;
    }

    static void
    defragment(Instance &inst, Tracer *t, std::uint64_t req,
               Tracer::SpanId parent)
    {
        Scope span(t, "mvcc.defrag", req, parent);
        inst.db->defragment();
        span.close({{"rows_copied",
                     static_cast<double>(
                         inst.db->olap().lastDefragStats().rowsCopied)}});
    }

    /** Snapshot at @p ts, then run plan @p plan; false when either
     *  threw (counted as a failed operation). */
    static bool
    query(Instance &inst, RunRecord &rec, Tracer *t, std::uint64_t req,
          Tracer::SpanId parent, Timestamp ts, std::size_t plan,
          olap::QueryResult &res, olap::QueryReport &rep)
    {
        auto &olap = inst.db->olap();
        return attempt(rec, [&] {
            {
                Scope span(t, "mvcc.snapshot", req, parent);
                olap.prepareSnapshot(ts);
                span.close({{"versions",
                             static_cast<double>(
                                 olap.lastSnapshotStats().versionsScanned)}});
            }
            Scope span(t, "olap.run_query", req, parent);
            rep = olap.runQuery(plans()[plan].plan, &res);
            span.close(
                {{"q", static_cast<double>(plans()[plan].queryNo)},
                 {"rows", static_cast<double>(rep.rowsVisible)},
                 {"hit", rep.cacheHit ? 1.0 : 0.0},
                 {"inc_rows", static_cast<double>(rep.incrementalRows)},
                 {"optimized", rep.optimized ? 1.0 : 0.0},
                 {"pim_ns", rep.pimNs},
                 {"cpu_ns", rep.cpuNs},
                 {"consistency_ns", rep.consistencyNs},
                 {"blocked_ns", rep.cpuBlockedNs}});
        });
    }

    const RunConfig &cfg_;
    std::uint64_t sinceDefrag_ = 0;
};

/**
 * oltp: one client runs the 50/50 Payment/NewOrder mix back to back
 * at scale 0.001, with a defragmentation pass every defragInterval
 * transactions. Exercises the transaction engine, MVCC version
 * chains and defragmentation, and no OLAP at all.
 */
class Oltp final : public Workload
{
  public:
    static constexpr double kScale = 0.001;
    static constexpr double kTxnsPerSecond = 20'000;
    static constexpr std::uint64_t kMinTxns = 20'000;
    static constexpr std::uint64_t kWarmupTxns = 1'000;

    explicit Oltp(const RunConfig &cfg)
        : Workload(cfg),
          txns_(std::max(kMinTxns, static_cast<std::uint64_t>(
                                       kTxnsPerSecond * cfg.seconds)))
    {
    }

    htap::PushtapOptions
    options() const override
    {
        const auto kind = mixedKindBound(kWarmupTxns + txns_);
        return baseOptions(kScale, insertHeadroom(kScale, kind, kind));
    }

    void
    warmup(Instance &inst) override
    {
        for (std::uint64_t i = 0; i < kWarmupTxns; ++i) {
            if (pendingDefrag_)
                inst.db->defragment();
            inst.db->oltp().executeMixed();
            pendingDefrag_ = defragDue(*inst.db, 1);
        }
    }

    /**
     * Each transaction is timed from when it was due (the previous
     * one's end), so a defragmentation pass counts against the
     * transaction that waited behind it. All 22 plans are checked
     * once, just before the first pass, when the version chains are
     * longest; checking at the final frontier would cost more than
     * the run itself (ORDERLINE grows ~17x).
     */
    void
    measure(Instance &inst, RunRecord &rec) override
    {
        Tracer *t = cfg_.tracer;
        auto &engine = inst.db->oltp();
        const txn::TxnStats before = engine.stats();
        const double verify0 = rec.verifyS;
        rec.latencyMs.reserve(mixedKindBound(txns_));
        bool checked = false;

        Scope phase(t, "measure", 0);
        ProbeSchedule probes(rec, txns_);
        std::int64_t due = nowNs();
        for (std::uint64_t i = 0; i < txns_; ++i) {
            Scope root(t, "txn", i, Tracer::kRoot, due);
            if (pendingDefrag_)
                defragment(inst, t, i, root.id());
            const auto payments = engine.stats().payments;
            bool ok;
            {
                Scope span(t, "txn.execute", i, root.id());
                ok = attempt(rec, [&] { engine.executeMixed(); });
            }
            const std::int64_t done = nowNs();
            const bool payment = engine.stats().payments != payments;
            if (ok && !payment)
                rec.latencyMs.push_back(toMs(done - due));
            root.close({{"payment", payment ? 1.0 : 0.0},
                        {"sample", ok && !payment ? 1.0 : 0.0}});
            due = done;

            pendingDefrag_ = defragDue(*inst.db, 1);
            if (pendingDefrag_ && !checked) {
                checkAllPlans(inst, rec, t);
                checked = true;
                due = nowNs();
            }
            if (probes.done(i + 1))
                due = nowNs();
        }
        rec.ops = txns_;
        rec.measuredS = probes.elapsedS() - (rec.verifyS - verify0);
        const txn::TxnStats &after = engine.stats();
        rec.modelLatencyUs =
            (after.totalNs() - before.totalNs()) /
            static_cast<double>(after.transactions - before.transactions) /
            1e3;
        closeMeasure(phase, before, after, rec.measuredS, rec.hostRefMs);
        if (!checked)
            checkAllPlans(inst, rec, t);
    }

  private:
    static void
    checkAllPlans(Instance &inst, RunRecord &rec, Tracer *t)
    {
        verifyPhase(rec, t, 0, [&] {
            const Timestamp now = inst.db->database().now();
            for (std::size_t p = 0; p < plans().size(); ++p) {
                olap::QueryResult res;
                olap::QueryReport rep;
                if (query(inst, rec, nullptr, p, Tracer::kRoot, now, p,
                          res, rep))
                    compareWithReference(inst.db->database(), p, res, rec);
            }
        });
    }

    std::uint64_t txns_;
    bool pendingDefrag_ = false;
};

/**
 * olap_small / olap_large: rounds of the 22 CH plans in a seeded
 * order per round. Before each query one NewOrder commits, then the
 * query snapshots at the current timestamp, so every query sees a
 * frontier moved by exactly one small append-only commit.
 */
class Olap final : public Workload
{
  public:
    /** p95 needs at least 200 samples to keep 10 beyond it. */
    static constexpr std::uint64_t kMinRounds = 10;

    Olap(const RunConfig &cfg, double scale, double rounds_per_second)
        : Workload(cfg), scale_(scale),
          rounds_(std::max(kMinRounds,
                           static_cast<std::uint64_t>(std::llround(
                               rounds_per_second * cfg.seconds)))),
          order_(planSeed())
    {
    }

    htap::PushtapOptions
    options() const override
    {
        const auto new_orders = (rounds_ + 1) * plans().size();
        return baseOptions(scale_, insertHeadroom(scale_, new_orders, 0));
    }

    void
    warmup(Instance &inst) override
    {
        RunRecord scratch;
        for (std::size_t k = 0; k < plans().size(); ++k) {
            olap::QueryResult res;
            olap::QueryReport rep;
            step(inst, scratch, nullptr, k, res, rep);
        }
        if (scratch.failed)
            fatal("warm-up failed: {}", scratch.errors.front());
    }

    /**
     * Plan p's answer is checked once, in round p * rounds / 22, so
     * the 22 checks spread over the run. The clock is paused while
     * the reference executor runs.
     */
    void
    measure(Instance &inst, RunRecord &rec) override
    {
        Tracer *t = cfg_.tracer;
        const txn::TxnStats before = inst.db->oltp().stats();
        const double verify0 = rec.verifyS;
        const std::size_t n_plans = plans().size();
        rec.latencyMs.reserve(rounds_ * n_plans);
        double model_ns = 0.0;

        Scope phase(t, "measure", 0);
        ProbeSchedule probes(rec, rounds_ * n_plans);
        for (std::uint64_t r = 0; r < rounds_; ++r) {
            for (std::size_t k = 0; k < n_plans; ++k) {
                const std::uint64_t req = r * n_plans + k;
                olap::QueryResult res;
                olap::QueryReport rep;
                const std::size_t plan = step(inst, rec, t, req, res, rep);
                model_ns += rep.totalNs();
                if (plan * rounds_ / n_plans == r)
                    verifyPhase(rec, t, req, [&] {
                        compareWithReference(inst.db->database(), plan,
                                             res, rec);
                    });
                probes.done(req + 1);
            }
        }
        rec.ops = rounds_ * n_plans;
        rec.measuredS = probes.elapsedS() - (rec.verifyS - verify0);
        rec.modelLatencyUs = model_ns / static_cast<double>(rec.ops) / 1e3;
        closeMeasure(phase, before, inst.db->oltp().stats(), rec.measuredS,
                     rec.hostRefMs);
    }

  private:
    /**
     * One client step: commit a NewOrder (a defragmentation pass
     * follows when due), then snapshot at the new timestamp and run
     * the next plan. Records the query's latency; returns its plan.
     */
    std::size_t
    step(Instance &inst, RunRecord &rec, Tracer *t, std::uint64_t req,
         olap::QueryResult &res, olap::QueryReport &rep)
    {
        {
            Scope root(t, "txn", req);
            {
                Scope span(t, "txn.execute", req, root.id());
                attempt(rec, [&] { inst.db->oltp().executeNewOrder(); });
            }
            if (defragDue(*inst.db, 1))
                defragment(inst, t, req, root.id());
        }
        const std::size_t plan = order_.next();
        Scope root(t, "query", req);
        const std::int64_t t0 = nowNs();
        const bool ok = query(inst, rec, t, req, root.id(),
                              inst.db->database().now(), plan, res, rep);
        if (ok)
            rec.latencyMs.push_back(toMs(nowNs() - t0));
        root.close({{"sample", ok ? 1.0 : 0.0}});
        return plan;
    }

    double scale_;
    std::uint64_t rounds_;
    PlanOrder order_;
};

/**
 * htap: a TxnWorkerGroup of nproc-1 workers drains batches of 1,000
 * mixed transactions while one query client runs exactly 4 queries
 * per batch, each snapshotting at commitFrontier(). Batch-locked
 * pacing fixes the total work even though ORDERLINE grows ~5x.
 */
class Htap final : public Workload
{
  public:
    static constexpr double kScale = 0.002;
    static constexpr std::uint64_t kBatchTxns = 1'000;
    static constexpr int kQueriesPerBatch = 4;
    static constexpr double kBatchesPerSecond = 9.0;
    /** p95 needs at least 200 queries to keep 10 beyond it. */
    static constexpr std::uint64_t kMinBatches = 50;

    explicit Htap(const RunConfig &cfg)
        : Workload(cfg),
          batches_(std::max(kMinBatches,
                            static_cast<std::uint64_t>(std::llround(
                                kBatchesPerSecond * cfg.seconds)))),
          order_(planSeed()), sampled_(plans().size(), false)
    {
    }

    htap::PushtapOptions
    options() const override
    {
        const auto kind = mixedKindBound((batches_ + 1) * kBatchTxns);
        return baseOptions(kScale, insertHeadroom(kScale, kind, kind));
    }

    void
    attach(Instance &inst) override
    {
        const auto &o = inst.db->options();
        inst.bw = std::make_unique<format::BandwidthModel>(
            o.database.devices, o.olap.geom.interleaveGranularity,
            o.olap.geom.stripedLines);
        inst.timing = std::make_unique<dram::BatchTimingModel>(
            o.olap.geom, o.olap.timing);
        txn::TxnWorkerGroupOptions g;
        g.workers = std::max(1u, WorkerPool::hardwareWorkers() - 1);
        g.seed = o.txnSeed;
        inst.group = std::make_unique<txn::TxnWorkerGroup>(
            inst.db->database(), o.format, *inst.bw, *inst.timing, g);
    }

    void
    warmup(Instance &inst) override
    {
        RunRecord scratch;
        batch(inst, scratch, nullptr, 0);
        if (scratch.failed)
            fatal("warm-up failed: {}", scratch.errors.front());
    }

    void
    measure(Instance &inst, RunRecord &rec) override
    {
        Tracer *t = cfg_.tracer;
        const txn::TxnStats before = inst.group->stats();
        rec.latencyMs.reserve(batches_ * kQueriesPerBatch);
        measuring_ = true;

        Scope phase(t, "measure", 0);
        ProbeSchedule probes(rec, batches_);
        for (std::uint64_t b = 0; b < batches_; ++b) {
            batch(inst, rec, t, b);
            probes.done(b + 1);
        }
        rec.ops = batches_ * kBatchTxns;
        rec.measuredS = probes.elapsedS();
        rec.modelLatencyUs =
            modelNs_ / static_cast<double>(batches_ * kQueriesPerBatch) /
            1e3;
        closeMeasure(phase, before, inst.group->stats(), rec.measuredS,
                     rec.hostRefMs);
    }

    /**
     * Replays the same transaction stream serially on a fresh
     * instance (TpccEngine with one stream is bit-identical to the
     * group's schedule), stops at each sampled frontier and checks
     * the recorded answer there.
     */
    void
    verify(Instance &inst, RunRecord &rec) override
    {
        verifyPhase(rec, cfg_.tracer, 0, [&] {
            const auto opts = inst.db->options();
            inst.group.reset();
            inst.db.reset();
            std::sort(samples_.begin(), samples_.end(),
                      [](const Sample &a, const Sample &b) {
                          return a.frontier < b.frontier;
                      });
            htap::PushtapDB replay(opts);
            sinceDefrag_ = 0;
            for (const Sample &s : samples_) {
                while (replay.database().now() < s.frontier) {
                    replay.oltp().executeMixed();
                    if (defragDue(replay, 1))
                        replay.defragment();
                }
                compareWithReference(replay.database(), s.plan, s.answer,
                                     rec);
            }
        });
        if (samples_.size() != plans().size())
            noteError(rec, "htap sampled fewer answers than plans");
    }

  private:
    struct Sample
    {
        Timestamp frontier;
        std::size_t plan;
        olap::QueryResult answer;
    };

    /**
     * Plan p is sampled at its first query from measured query
     * (p % 2) * 11 on, so every sample falls in the first ~15
     * batches: past the first defragmentation pass, yet short enough
     * that the replay stays a small share of the run.
     */
    static constexpr std::uint64_t
    sampleFrom(std::size_t plan)
    {
        return (plan % 2) * 11;
    }

    /** One batch: start it, run the query client, wait, then
     *  defragment when the interval is due. */
    void
    batch(Instance &inst, RunRecord &rec, Tracer *t, std::uint64_t b)
    {
        auto &group = *inst.group;
        Scope root(t, "batch", b);
        {
            Scope span(t, "txn.schedule", b, root.id());
            group.start(kBatchTxns);
        }
        rec.attempted += kBatchTxns;
        for (int k = 0; k < kQueriesPerBatch; ++k) {
            const std::uint64_t req = b * kQueriesPerBatch + k;
            const std::size_t plan = order_.next();
            olap::QueryResult res;
            olap::QueryReport rep;
            Scope query_root(t, "query", req);
            const std::int64_t t0 = nowNs();
            const Timestamp f = group.commitFrontier();
            const bool ok =
                query(inst, rec, t, req, query_root.id(), f, plan, res, rep);
            const std::int64_t done = nowNs();
            query_root.close(
                {{"stale", static_cast<double>(group.commitFrontier() - f)},
                 {"sample", ok && measuring_ ? 1.0 : 0.0}});
            if (!ok || !measuring_)
                continue;
            rec.latencyMs.push_back(toMs(done - t0));
            modelNs_ += rep.totalNs();
            if (!sampled_[plan] && req >= sampleFrom(plan)) {
                sampled_[plan] = true;
                samples_.push_back(Sample{f, plan, std::move(res)});
            }
        }
        {
            Scope span(t, "txn.wait", b, root.id());
            group.finish();
        }
        if (defragDue(*inst.db, kBatchTxns))
            defragment(inst, t, b, root.id());
    }

    std::uint64_t batches_;
    PlanOrder order_;
    /** False during warm-up: no latency, model or answer samples. */
    bool measuring_ = false;
    double modelNs_ = 0.0;
    std::vector<bool> sampled_;
    std::vector<Sample> samples_;
};

std::unique_ptr<Workload>
makeWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "oltp")
        return std::make_unique<Oltp>(cfg);
    if (cfg.workload == "olap_small")
        return std::make_unique<Olap>(cfg, 0.001, 6.7);
    if (cfg.workload == "olap_large")
        return std::make_unique<Olap>(cfg, 0.005, 1.6);
    if (cfg.workload == "htap")
        return std::make_unique<Htap>(cfg);
    fatal("unknown workload '{}'", cfg.workload);
}

} // namespace

RunRecord
runWorkload(const RunConfig &cfg)
{
    Tracer *t = cfg.tracer;
    RunRecord rec;
    std::unique_ptr<Workload> w;
    std::unique_ptr<Instance> inst;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        inst.reset();
        w = makeWorkload(cfg);
        inst = std::make_unique<Instance>();
        const std::int64_t t0 = nowNs();
        {
            Scope span(t, "setup.populate", rep);
            inst->db = std::make_unique<htap::PushtapDB>(w->options());
            w->attach(*inst);
        }
        {
            Scope span(t, "warmup", rep);
            w->warmup(*inst);
        }
        rec.setupS.push_back(toSeconds(nowNs() - t0));
    }
    w->measure(*inst, rec);
    rec.peakRssMb = peakRssMb();
    w->verify(*inst, rec);
    return rec;
}

} // namespace pushtap::bench
