#ifndef TPART_WORKLOAD_TPCC_H_
#define TPART_WORKLOAD_TPCC_H_

#include <cstdint>

#include "workload/workload.h"

namespace tpart {

/// TPC-C (§6.1.1): warehouse-centric order management. "Its data are
/// known to be partitionable based on warehouses because each transaction
/// has only 10% probability to access the data in more than one
/// warehouse" — the easy-to-partition contrast workload for Fig. 5(a).
///
/// From-scratch implementation of the New-Order and Payment transactions
/// over WAREHOUSE / DISTRICT / CUSTOMER / STOCK / ORDER / NEW_ORDER /
/// ORDER_LINE / HISTORY. The read-only ITEM catalog is treated as
/// replicated (prices travel in the procedure parameters), the standard
/// deterministic-database simplification. Order ids are pre-assigned by
/// the generator, which tracks the per-district sequence the committed
/// execution will produce — this keeps write sets fully declared before
/// execution, as determinism requires.
struct TpccOptions {
  std::size_t num_machines = 4;
  std::uint32_t warehouses_per_machine = 2;
  std::uint32_t districts_per_warehouse = 10;
  std::uint32_t customers_per_district = 300;   // spec: 3000
  std::uint32_t num_items = 10'000;             // spec: 100000
  std::size_t num_txns = 10'000;
  /// Transaction mix. Fractions are cumulative-normalised; anything left
  /// over goes to Payment. The spec mix is roughly 45/43/4/4/4.
  double new_order_fraction = 0.45;
  double delivery_fraction = 0.04;
  double order_status_fraction = 0.04;
  double stock_level_fraction = 0.04;
  /// Recent orders a Stock-Level transaction examines (spec: 20; scaled).
  int stock_level_orders = 4;
  /// Per-order-line probability of a remote supplying warehouse (spec:
  /// 0.01, yielding ~10% multi-warehouse New-Orders).
  double remote_item_prob = 0.01;
  /// Probability a Payment pays through a remote warehouse's customer
  /// (spec: 0.15).
  double remote_payment_prob = 0.15;
  /// New-Order logic-abort probability (spec: 1% invalid item).
  double abort_prob = 0.01;
  std::uint64_t seed = 1;
};

Workload MakeTpccWorkload(const TpccOptions& options);

inline constexpr ProcId kTpccNewOrder = 200;
inline constexpr ProcId kTpccPayment = 201;
inline constexpr ProcId kTpccDelivery = 202;
inline constexpr ProcId kTpccOrderStatus = 203;
inline constexpr ProcId kTpccStockLevel = 204;

/// TPC-C table ids (the high bits of each ObjectKey).
enum TpccTable : TableId {
  kTpccWarehouse = 0,
  kTpccDistrict = 1,
  kTpccCustomer = 2,
  kTpccStock = 3,
  kTpccOrder = 4,
  kTpccNewOrderTbl = 5,
  kTpccOrderLine = 6,
  kTpccHistory = 7,
};

}  // namespace tpart

#endif  // TPART_WORKLOAD_TPCC_H_
