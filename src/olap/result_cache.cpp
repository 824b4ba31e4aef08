#include "olap/result_cache.hpp"

namespace pushtap::olap {

std::vector<workload::ChTable>
planFootprint(const QueryPlan &plan)
{
    std::vector<workload::ChTable> tables;
    tables.push_back(plan.probe.table);
    for (const auto &join : plan.joins)
        tables.push_back(join.build.table);
    for (const auto &sub : plan.subqueries)
        tables.push_back(sub.source.table);
    return tables;
}

bool
incrementalCapable(const QueryPlan &plan)
{
    for (const auto &join : plan.joins)
        if (join.kind == JoinKind::Anti)
            return false;
    return true;
}

ResultCache::Entry *
ResultCache::find(const std::string &fingerprint)
{
    const auto it = entries_.find(fingerprint);
    return it == entries_.end() ? nullptr : &it->second;
}

ResultCache::Entry &
ResultCache::upsert(const std::string &fingerprint)
{
    return entries_[fingerprint];
}

} // namespace pushtap::olap
