#include "workload/ch_schema.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/log.hpp"

namespace pushtap::workload {

using format::ColType;
using format::Column;
using format::TableSchema;

const char *
chTableName(ChTable t)
{
    switch (t) {
      case ChTable::Warehouse: return "warehouse";
      case ChTable::District: return "district";
      case ChTable::Customer: return "customer";
      case ChTable::History: return "history";
      case ChTable::NewOrder: return "neworder";
      case ChTable::Orders: return "orders";
      case ChTable::OrderLine: return "orderline";
      case ChTable::Item: return "item";
      case ChTable::Stock: return "stock";
    }
    return "unknown";
}

TableSchema
chTableSchema(ChTable t)
{
    switch (t) {
      case ChTable::Warehouse:
        return TableSchema(
            "warehouse",
            {
                {"w_id", 2, ColType::Int, false},
                {"w_name", 10, ColType::Char, false},
                {"w_street_1", 20, ColType::Char, false},
                {"w_street_2", 20, ColType::Char, false},
                {"w_city", 20, ColType::Char, false},
                {"w_state", 2, ColType::Char, false},
                {"w_zip", 9, ColType::Char, false},
                {"w_tax", 4, ColType::Int, false},
                {"w_ytd", 8, ColType::Int, false},
            });
      case ChTable::District:
        return TableSchema(
            "district",
            {
                {"d_id", 1, ColType::Int, false},
                {"d_w_id", 2, ColType::Int, false},
                {"d_name", 10, ColType::Char, false},
                {"d_street_1", 20, ColType::Char, false},
                {"d_street_2", 20, ColType::Char, false},
                {"d_city", 20, ColType::Char, false},
                {"d_state", 2, ColType::Char, false},
                {"d_zip", 9, ColType::Char, false},
                {"d_tax", 4, ColType::Int, false},
                {"d_ytd", 8, ColType::Int, false},
                {"d_next_o_id", 4, ColType::Int, false},
            });
      case ChTable::Customer:
        return TableSchema(
            "customer",
            {
                {"c_id", 4, ColType::Int, false},
                {"c_d_id", 1, ColType::Int, false},
                {"c_w_id", 2, ColType::Int, false},
                {"c_first", 16, ColType::Char, false},
                {"c_middle", 2, ColType::Char, false},
                {"c_last", 16, ColType::Char, false},
                {"c_street_1", 20, ColType::Char, false},
                {"c_street_2", 20, ColType::Char, false},
                {"c_city", 20, ColType::Char, false},
                {"c_state", 2, ColType::Char, false},
                {"c_zip", 9, ColType::Char, false},
                {"c_phone", 16, ColType::Char, false},
                {"c_since", 8, ColType::Int, false},
                {"c_credit", 2, ColType::Char, false},
                {"c_credit_lim", 8, ColType::Int, false},
                {"c_discount", 4, ColType::Int, false},
                {"c_balance", 8, ColType::Int, false},
                {"c_ytd_payment", 8, ColType::Int, false},
                {"c_payment_cnt", 2, ColType::Int, false},
                {"c_delivery_cnt", 2, ColType::Int, false},
                {"c_data", 152, ColType::Char, false},
            });
      case ChTable::History:
        return TableSchema(
            "history",
            {
                {"h_c_id", 4, ColType::Int, false},
                {"h_c_d_id", 1, ColType::Int, false},
                {"h_c_w_id", 2, ColType::Int, false},
                {"h_d_id", 1, ColType::Int, false},
                {"h_w_id", 2, ColType::Int, false},
                {"h_date", 8, ColType::Int, false},
                {"h_amount", 4, ColType::Int, false},
                {"h_data", 24, ColType::Char, false},
            });
      case ChTable::NewOrder:
        return TableSchema(
            "neworder",
            {
                {"no_o_id", 4, ColType::Int, false},
                {"no_d_id", 1, ColType::Int, false},
                {"no_w_id", 2, ColType::Int, false},
            });
      case ChTable::Orders:
        return TableSchema(
            "orders",
            {
                {"o_id", 4, ColType::Int, false},
                {"o_d_id", 1, ColType::Int, false},
                {"o_w_id", 2, ColType::Int, false},
                {"o_c_id", 4, ColType::Int, false},
                {"o_entry_d", 8, ColType::Int, false},
                {"o_carrier_id", 1, ColType::Int, false},
                {"o_ol_cnt", 1, ColType::Int, false},
                {"o_all_local", 1, ColType::Int, false},
            });
      case ChTable::OrderLine:
        return TableSchema(
            "orderline",
            {
                {"ol_o_id", 4, ColType::Int, false},
                {"ol_d_id", 1, ColType::Int, false},
                {"ol_w_id", 2, ColType::Int, false},
                {"ol_number", 1, ColType::Int, false},
                {"ol_i_id", 4, ColType::Int, false},
                {"ol_supply_w_id", 2, ColType::Int, false},
                {"ol_delivery_d", 8, ColType::Int, false},
                {"ol_quantity", 2, ColType::Int, false},
                {"ol_amount", 8, ColType::Int, false},
                {"ol_dist_info", 24, ColType::Char, false},
            });
      case ChTable::Item:
        return TableSchema(
            "item",
            {
                {"i_id", 4, ColType::Int, false},
                {"i_im_id", 4, ColType::Int, false},
                {"i_name", 24, ColType::Char, false},
                {"i_price", 4, ColType::Int, false},
                {"i_data", 50, ColType::Char, false},
            });
      case ChTable::Stock:
        return TableSchema(
            "stock",
            {
                {"s_i_id", 4, ColType::Int, false},
                {"s_w_id", 2, ColType::Int, false},
                {"s_quantity", 2, ColType::Int, false},
                {"s_dist_01", 24, ColType::Char, false},
                {"s_dist_02", 24, ColType::Char, false},
                {"s_dist_03", 24, ColType::Char, false},
                {"s_dist_04", 24, ColType::Char, false},
                {"s_dist_05", 24, ColType::Char, false},
                {"s_dist_06", 24, ColType::Char, false},
                {"s_dist_07", 24, ColType::Char, false},
                {"s_dist_08", 24, ColType::Char, false},
                {"s_dist_09", 24, ColType::Char, false},
                {"s_dist_10", 24, ColType::Char, false},
                {"s_ytd", 4, ColType::Int, false},
                {"s_order_cnt", 2, ColType::Int, false},
                {"s_remote_cnt", 2, ColType::Int, false},
                {"s_data", 50, ColType::Char, false},
            });
    }
    fatal("unknown CH table");
}

std::vector<TableSchema>
chBenchmarkSchemas()
{
    std::vector<TableSchema> out;
    for (std::size_t i = 0; i < kChTableCount; ++i)
        out.push_back(chTableSchema(static_cast<ChTable>(i)));
    return out;
}

std::map<ChTable, std::uint64_t>
chRowCounts(double scale)
{
    if (scale <= 0.0)
        fatal("chRowCounts: scale {} must be positive", scale);
    auto n = [scale](double rows) {
        const auto v = static_cast<std::uint64_t>(rows * scale);
        return v > 0 ? v : 1;
    };
    std::map<ChTable, std::uint64_t> counts;
    // Section 7.1 row counts; warehouses/districts derived from the
    // 3000-customers-per-district TPC-C ratio (10 districts per
    // warehouse always, so composite keys stay dense at any scale).
    counts[ChTable::Customer] = n(6e6);
    counts[ChTable::Warehouse] = n(200);
    counts[ChTable::District] = counts[ChTable::Warehouse] * 10;
    counts[ChTable::History] = n(6e6);
    counts[ChTable::NewOrder] = n(60e6);
    counts[ChTable::Orders] = n(6e6);
    counts[ChTable::OrderLine] = n(60e6);
    counts[ChTable::Item] = n(20e6);
    counts[ChTable::Stock] = n(20e6);
    return counts;
}

std::vector<TableSchema>
htapBenchSchemas()
{
    // HTAPBench keeps the TPC-C core and widens the analytics-facing
    // columns; we extend ORDERS with TPC-H-style o_totalprice /
    // o_orderpriority and CUSTOMER with segment info.
    auto schemas = chBenchmarkSchemas();
    for (auto &s : schemas) {
        if (s.name() == "orders") {
            std::vector<Column> cols = s.columns();
            cols.push_back({"o_totalprice", 8, ColType::Int, false});
            cols.push_back(
                {"o_orderpriority", 15, ColType::Char, false});
            s = TableSchema("orders", cols);
        } else if (s.name() == "customer") {
            std::vector<Column> cols = s.columns();
            cols.push_back({"c_mktsegment", 10, ColType::Char, false});
            cols.push_back({"c_nationkey", 4, ColType::Int, false});
            s = TableSchema("customer", cols);
        }
    }
    return schemas;
}

} // namespace pushtap::workload
