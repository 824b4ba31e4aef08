#include "workload/query_catalog.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pushtap::workload {

const std::vector<ExecutableQuery> &
chExecutablePlans()
{
    static const std::vector<ExecutableQuery> plans = [] {
        namespace p = olap::plans;
        std::vector<ExecutableQuery> v;
        v.push_back({1, p::q1()});
        v.push_back({2, p::q2()});
        v.push_back({3, p::q3()});
        v.push_back({4, p::q4()});
        v.push_back({5, p::q5()});
        v.push_back({6, p::q6()});
        v.push_back({7, p::q7()});
        v.push_back({8, p::q8()});
        v.push_back({9, p::q9()});
        v.push_back({10, p::q10()});
        v.push_back({11, p::q11()});
        v.push_back({12, p::q12()});
        v.push_back({13, p::q13()});
        v.push_back({14, p::q14()});
        v.push_back({15, p::q15()});
        v.push_back({16, p::q16()});
        v.push_back({17, p::q17()});
        v.push_back({18, p::q18()});
        v.push_back({19, p::q19()});
        v.push_back({20, p::q20()});
        v.push_back({21, p::q21()});
        v.push_back({22, p::q22()});
        return v;
    }();
    return plans;
}

const olap::QueryPlan *
executableQueryPlan(int query_no)
{
    if (query_no < 1 || query_no > 22)
        fatal("executableQueryPlan: Q{} is outside the CH-benCHmark "
              "catalog (valid queries: Q1..Q22, all executable)",
              query_no);
    return &chExecutablePlans()[static_cast<std::size_t>(query_no - 1)]
                .plan;
}

std::map<std::pair<ChTable, std::string>, std::uint32_t>
scanFrequencies(int n_queries)
{
    if (n_queries < 0 || n_queries > 22)
        fatal("scanFrequencies: subset Q1-Q{} is out of range "
              "(valid subsets: 0 for none through 22 for the full "
              "CH-benCHmark catalog)",
              n_queries);
    std::map<std::pair<ChTable, std::string>, std::uint32_t> freq;
    for (const auto &q : chExecutablePlans()) {
        if (q.queryNo > n_queries)
            break;
        for (const auto &col : olap::touchedColumns(q.plan))
            ++freq[col];
    }
    return freq;
}

std::size_t
markKeyColumns(std::vector<format::TableSchema> &schemas,
               int n_queries)
{
    const auto freq = scanFrequencies(n_queries);
    std::size_t marked = 0;
    for (auto &schema : schemas) {
        std::vector<std::string> keys;
        for (const auto &[key, n] : freq) {
            (void)n;
            if (chTableName(key.first) == schema.name() &&
                schema.hasColumn(key.second))
                keys.push_back(key.second);
        }
        schema.setKeyColumns(keys);
        marked += keys.size();
    }
    return marked;
}

std::map<std::pair<ChTable, std::string>, std::uint32_t>
htapBenchScanFrequencies()
{
    // The HTAPBench analytical mix concentrates on ORDERS +
    // ORDERLINE + CUSTOMER aggregates.
    using T = ChTable;
    std::map<std::pair<ChTable, std::string>, std::uint32_t> freq;
    auto add = [&freq](ChTable t, const std::string &c,
                       std::uint32_t n) {
        freq[{t, c}] = n;
    };
    add(T::OrderLine, "ol_amount", 8);
    add(T::OrderLine, "ol_delivery_d", 6);
    add(T::OrderLine, "ol_quantity", 4);
    add(T::OrderLine, "ol_i_id", 4);
    add(T::OrderLine, "ol_o_id", 5);
    add(T::Orders, "o_id", 6);
    add(T::Orders, "o_entry_d", 5);
    add(T::Orders, "o_c_id", 4);
    add(T::Orders, "o_totalprice", 4);
    add(T::Customer, "c_id", 4);
    add(T::Customer, "c_balance", 2);
    add(T::Customer, "c_nationkey", 2);
    add(T::Item, "i_id", 3);
    add(T::Item, "i_price", 2);
    add(T::Stock, "s_i_id", 2);
    add(T::Stock, "s_quantity", 2);
    return freq;
}

} // namespace pushtap::workload
