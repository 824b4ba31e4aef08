#include "htap/pushtap_db.hpp"

#include <cstdint>
#include <memory>

#include "mvcc/defragmenter.hpp"
#include "olap/optimizer.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::htap {

PushtapDB::PushtapDB(const PushtapOptions &opts) : opts_(opts)
{
    db_ = std::make_unique<txn::Database>(opts_.database);
    bw_ = std::make_unique<format::BandwidthModel>(
        opts_.database.devices,
        opts_.olap.geom.interleaveGranularity,
        opts_.olap.geom.stripedLines);
    timing_ = std::make_unique<dram::BatchTimingModel>(
        opts_.olap.geom, opts_.olap.timing);
    oltp_ = std::make_unique<txn::TpccEngine>(
        *db_, opts_.format, *bw_, *timing_, opts_.txnSeed);
    olap_ = std::make_unique<olap::OlapEngine>(*db_, opts_.olap);
}

TimeNs
PushtapDB::runDefragPass()
{
    sinceDefrag_ = 0;
    const TimeNs t =
        olap_->runDefragmentation(mvcc::DefragStrategy::Hybrid);
    defragPauseNs_ += t;
    return t;
}

void
PushtapDB::maybeDefrag()
{
    if (opts_.defragInterval == 0)
        return;
    if (++sinceDefrag_ >= opts_.defragInterval)
        runDefragPass();
}

void
PushtapDB::payments(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        oltp_->executePayment();
        maybeDefrag();
    }
}

void
PushtapDB::newOrders(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        oltp_->executeNewOrder();
        maybeDefrag();
    }
}

void
PushtapDB::mixed(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        oltp_->executeMixed();
        maybeDefrag();
    }
}

olap::QueryReport
PushtapDB::runQuery(const olap::QueryPlan &plan,
                    olap::QueryResult *result)
{
    olap_->prepareSnapshot(db_->now());
    return olap_->runQuery(plan, result);
}

olap::QueryReport
PushtapDB::runQuery(int ch_query_no, olap::QueryResult *result)
{
    return runQuery(*workload::executableQueryPlan(ch_query_no),
                    result);
}

std::string
PushtapDB::explainQuery(const olap::QueryPlan &plan)
{
    olap_->prepareSnapshot(db_->now());
    const auto oq = olap_->optimizePlan(plan);
    return olap::describePlan(plan, oq);
}

std::string
PushtapDB::explainQuery(int ch_query_no)
{
    return explainQuery(*workload::executableQueryPlan(ch_query_no));
}

TimeNs
PushtapDB::defragment()
{
    return runDefragPass();
}

} // namespace pushtap::htap
