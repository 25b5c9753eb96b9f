#include "workload/tpcc.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/logging.h"
#include "common/random.h"

namespace tpart {

namespace {

// ---- Key construction ------------------------------------------------
// All key spaces embed the warehouse in the high bits so the
// warehouse-based partition map can route any table's key.

constexpr std::uint64_t kDistrictsPerW = 10;
constexpr std::uint64_t kMaxCustomersPerDistrict = 1 << 12;
constexpr std::uint64_t kMaxItems = 1 << 20;
constexpr std::uint64_t kMaxOrdersPerDistrict = 1 << 22;
constexpr std::uint64_t kMaxLinesPerOrder = 16;

ObjectKey WarehouseKey(std::uint64_t w) {
  return MakeObjectKey(kTpccWarehouse, w);
}
ObjectKey DistrictKey(std::uint64_t w, std::uint64_t d) {
  return MakeObjectKey(kTpccDistrict, w * kDistrictsPerW + d);
}
ObjectKey CustomerKey(std::uint64_t w, std::uint64_t d, std::uint64_t c) {
  return MakeObjectKey(
      kTpccCustomer,
      (w * kDistrictsPerW + d) * kMaxCustomersPerDistrict + c);
}
ObjectKey StockKey(std::uint64_t w, std::uint64_t i) {
  return MakeObjectKey(kTpccStock, w * kMaxItems + i);
}
ObjectKey OrderKey(std::uint64_t w, std::uint64_t d, std::uint64_t o) {
  return MakeObjectKey(
      kTpccOrder, (w * kDistrictsPerW + d) * kMaxOrdersPerDistrict + o);
}
ObjectKey NewOrderKey(std::uint64_t w, std::uint64_t d, std::uint64_t o) {
  return MakeObjectKey(
      kTpccNewOrderTbl,
      (w * kDistrictsPerW + d) * kMaxOrdersPerDistrict + o);
}
ObjectKey OrderLineKey(std::uint64_t w, std::uint64_t d, std::uint64_t o,
                       std::uint64_t line) {
  return MakeObjectKey(
      kTpccOrderLine,
      ((w * kDistrictsPerW + d) * kMaxOrdersPerDistrict + o) *
              kMaxLinesPerOrder +
          line);
}
ObjectKey HistoryKey(std::uint64_t w, std::uint64_t seq) {
  return MakeObjectKey(kTpccHistory, w * (1ULL << 28) + seq);
}

// Warehouse of any TPC-C key (inverse of the constructions above).
std::uint64_t WarehouseOf(ObjectKey key) {
  const std::uint64_t pk = PrimaryKeyOf(key);
  switch (TableOf(key)) {
    case kTpccWarehouse:
      return pk;
    case kTpccDistrict:
      return pk / kDistrictsPerW;
    case kTpccCustomer:
      return pk / kMaxCustomersPerDistrict / kDistrictsPerW;
    case kTpccStock:
      return pk / kMaxItems;
    case kTpccOrder:
    case kTpccNewOrderTbl:
      return pk / kMaxOrdersPerDistrict / kDistrictsPerW;
    case kTpccOrderLine:
      return pk / kMaxLinesPerOrder / kMaxOrdersPerDistrict / kDistrictsPerW;
    case kTpccHistory:
      return pk >> 28;
    default:
      return 0;
  }
}

/// Warehouse-based data partitioning: machine = warehouse % machines —
/// the "good" partitioning TPC-C admits (§6.1.1).
class TpccPartitionMap : public DataPartitionMap {
 public:
  explicit TpccPartitionMap(std::size_t num_machines)
      : num_machines_(num_machines) {}
  MachineId Locate(ObjectKey key) const override {
    return static_cast<MachineId>(WarehouseOf(key) % num_machines_);
  }
  std::size_t num_partitions() const override { return num_machines_; }

 private:
  std::size_t num_machines_;
};

// ---- Stored procedures -----------------------------------------------
// Record layouts:
//   WAREHOUSE  [ytd]
//   DISTRICT   [next_o_id, ytd]
//   CUSTOMER   [balance, ytd_payment, payment_cnt]
//   STOCK      [quantity, ytd, order_cnt, remote_cnt]
//   ORDER      [c_id, ol_cnt, all_local]
//   NEW_ORDER  [1]
//   ORDER_LINE [item, supply_w, qty, amount]
//   HISTORY    [amount]

// New-Order params: [w, d, c, o_id, abort_flag, ol_cnt,
//                    (item, supply_w, qty, price) * ol_cnt]
Status NewOrderProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto w = static_cast<std::uint64_t>(p[0]);
  const auto d = static_cast<std::uint64_t>(p[1]);
  const auto c = static_cast<std::uint64_t>(p[2]);
  const auto o_id = static_cast<std::uint64_t>(p[3]);
  const bool abort_flag = p[4] != 0;
  const auto ol_cnt = static_cast<std::size_t>(p[5]);

  TPART_ASSIGN_OR_RETURN(Record district, ctx.Get(DistrictKey(w, d)));
  TPART_ASSIGN_OR_RETURN(Record customer, ctx.Get(CustomerKey(w, d, c)));
  (void)customer;

  if (abort_flag) {
    // TPC-C: ~1% of New-Orders roll back on an unused item id. This is a
    // logic abort — the only abort kind in a deterministic system (§2.1).
    return Status::Aborted("invalid item");
  }

  std::int64_t total = 0;
  bool all_local = true;
  for (std::size_t l = 0; l < ol_cnt; ++l) {
    const auto item = static_cast<std::uint64_t>(p[6 + 4 * l]);
    const auto supply_w = static_cast<std::uint64_t>(p[7 + 4 * l]);
    const std::int64_t qty = p[8 + 4 * l];
    const std::int64_t price = p[9 + 4 * l];
    if (supply_w != w) all_local = false;

    TPART_ASSIGN_OR_RETURN(Record stock, ctx.Get(StockKey(supply_w, item)));
    std::int64_t quantity = stock.field(0);
    quantity = quantity - qty >= 10 ? quantity - qty : quantity - qty + 91;
    stock.set_field(0, quantity);
    stock.add_to_field(1, qty);
    stock.add_to_field(2, 1);
    if (supply_w != w) stock.add_to_field(3, 1);
    TPART_RETURN_IF_ERROR(ctx.Put(StockKey(supply_w, item), std::move(stock)));

    const std::int64_t amount = qty * price;
    total += amount;
    TPART_RETURN_IF_ERROR(
        ctx.Put(OrderLineKey(w, d, o_id, l),
                Record{static_cast<std::int64_t>(item),
                       static_cast<std::int64_t>(supply_w), qty, amount}));
  }

  district.set_field(0, static_cast<std::int64_t>(o_id) + 1);
  TPART_RETURN_IF_ERROR(ctx.Put(DistrictKey(w, d), std::move(district)));
  TPART_RETURN_IF_ERROR(
      ctx.Put(OrderKey(w, d, o_id),
              Record{static_cast<std::int64_t>(c),
                     static_cast<std::int64_t>(ol_cnt),
                     all_local ? 1 : 0}));
  TPART_RETURN_IF_ERROR(ctx.Put(NewOrderKey(w, d, o_id), Record{1}));
  ctx.EmitOutput(total);
  return Status::Ok();
}

// Delivery params (one district per request, simplified from the spec's
// all-10-districts batch): [w, d, o_id, carrier, c, ol_cnt]
// Consumes the oldest undelivered order: deletes its NEW_ORDER row (an
// Absent write — exercised through every engine), stamps the carrier on
// ORDER, and credits the customer with the order's total.
Status DeliveryProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto w = static_cast<std::uint64_t>(p[0]);
  const auto d = static_cast<std::uint64_t>(p[1]);
  const auto o_id = static_cast<std::uint64_t>(p[2]);
  const std::int64_t carrier = p[3];
  const auto c = static_cast<std::uint64_t>(p[4]);
  const auto ol_cnt = static_cast<std::size_t>(p[5]);

  TPART_ASSIGN_OR_RETURN(Record new_order, ctx.Get(NewOrderKey(w, d, o_id)));
  if (new_order.is_absent()) {
    // Already delivered (can only happen under a buggy generator).
    return Status::Aborted("no such undelivered order");
  }
  TPART_ASSIGN_OR_RETURN(Record order, ctx.Get(OrderKey(w, d, o_id)));
  std::int64_t total = 0;
  for (std::size_t l = 0; l < ol_cnt; ++l) {
    TPART_ASSIGN_OR_RETURN(Record line, ctx.Get(OrderLineKey(w, d, o_id, l)));
    total += line.field(3);
  }
  TPART_ASSIGN_OR_RETURN(Record customer, ctx.Get(CustomerKey(w, d, c)));

  TPART_RETURN_IF_ERROR(
      ctx.Put(NewOrderKey(w, d, o_id), Record::Absent()));  // delete
  order = Record{order.field(0), order.field(1), order.field(2), carrier};
  TPART_RETURN_IF_ERROR(ctx.Put(OrderKey(w, d, o_id), std::move(order)));
  customer.add_to_field(0, total);
  TPART_RETURN_IF_ERROR(ctx.Put(CustomerKey(w, d, c), std::move(customer)));
  ctx.EmitOutput(total);
  return Status::Ok();
}

// Order-Status params: [w, d, c, o_id, ol_cnt] — read-only.
Status OrderStatusProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto w = static_cast<std::uint64_t>(p[0]);
  const auto d = static_cast<std::uint64_t>(p[1]);
  const auto c = static_cast<std::uint64_t>(p[2]);
  const auto o_id = static_cast<std::uint64_t>(p[3]);
  const auto ol_cnt = static_cast<std::size_t>(p[4]);

  TPART_ASSIGN_OR_RETURN(Record customer, ctx.Get(CustomerKey(w, d, c)));
  ctx.EmitOutput(customer.field(0));  // balance
  TPART_ASSIGN_OR_RETURN(Record order, ctx.Get(OrderKey(w, d, o_id)));
  ctx.EmitOutput(order.field(1));  // line count
  std::int64_t total = 0;
  for (std::size_t l = 0; l < ol_cnt; ++l) {
    TPART_ASSIGN_OR_RETURN(Record line, ctx.Get(OrderLineKey(w, d, o_id, l)));
    total += line.field(3);
  }
  ctx.EmitOutput(total);
  return Status::Ok();
}

// Stock-Level params: [w, d, threshold, n_orders,
//                      (o_id, ol_cnt, (item, supply)*ol_cnt) * n_orders]
// Counts distinct recent stocks below the threshold — read-only with a
// wide footprint over order lines and stock rows.
Status StockLevelProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto w = static_cast<std::uint64_t>(p[0]);
  const auto d = static_cast<std::uint64_t>(p[1]);
  const std::int64_t threshold = p[2];
  const auto n_orders = static_cast<std::size_t>(p[3]);

  TPART_ASSIGN_OR_RETURN(Record district, ctx.Get(DistrictKey(w, d)));
  (void)district;
  std::int64_t low = 0;
  std::size_t idx = 4;
  std::vector<ObjectKey> counted;
  for (std::size_t o = 0; o < n_orders; ++o) {
    const auto o_id = static_cast<std::uint64_t>(p[idx++]);
    const auto ol_cnt = static_cast<std::size_t>(p[idx++]);
    for (std::size_t l = 0; l < ol_cnt; ++l) {
      const auto item = static_cast<std::uint64_t>(p[idx++]);
      const auto supply = static_cast<std::uint64_t>(p[idx++]);
      TPART_ASSIGN_OR_RETURN(Record line,
                             ctx.Get(OrderLineKey(w, d, o_id, l)));
      (void)line;
      const ObjectKey sk = StockKey(supply, item);
      if (std::find(counted.begin(), counted.end(), sk) != counted.end()) {
        continue;  // distinct stocks only
      }
      counted.push_back(sk);
      TPART_ASSIGN_OR_RETURN(Record stock, ctx.Get(sk));
      if (stock.field(0) < threshold) ++low;
    }
  }
  ctx.EmitOutput(low);
  return Status::Ok();
}

// Payment params: [w, d, c_w, c_d, c, amount, h_seq]
Status PaymentProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto w = static_cast<std::uint64_t>(p[0]);
  const auto d = static_cast<std::uint64_t>(p[1]);
  const auto c_w = static_cast<std::uint64_t>(p[2]);
  const auto c_d = static_cast<std::uint64_t>(p[3]);
  const auto c = static_cast<std::uint64_t>(p[4]);
  const std::int64_t amount = p[5];
  const auto h_seq = static_cast<std::uint64_t>(p[6]);

  TPART_ASSIGN_OR_RETURN(Record warehouse, ctx.Get(WarehouseKey(w)));
  warehouse.add_to_field(0, amount);
  TPART_RETURN_IF_ERROR(ctx.Put(WarehouseKey(w), std::move(warehouse)));

  TPART_ASSIGN_OR_RETURN(Record district, ctx.Get(DistrictKey(w, d)));
  district.add_to_field(1, amount);
  TPART_RETURN_IF_ERROR(ctx.Put(DistrictKey(w, d), std::move(district)));

  TPART_ASSIGN_OR_RETURN(Record customer,
                         ctx.Get(CustomerKey(c_w, c_d, c)));
  customer.add_to_field(0, -amount);
  customer.add_to_field(1, amount);
  customer.add_to_field(2, 1);
  ctx.EmitOutput(customer.field(0));
  TPART_RETURN_IF_ERROR(
      ctx.Put(CustomerKey(c_w, c_d, c), std::move(customer)));

  TPART_RETURN_IF_ERROR(ctx.Put(HistoryKey(w, h_seq), Record{amount}));
  return Status::Ok();
}

}  // namespace

Workload MakeTpccWorkload(const TpccOptions& o) {
  TPART_CHECK(o.num_machines >= 1);
  TPART_CHECK(o.customers_per_district <= kMaxCustomersPerDistrict);
  TPART_CHECK(o.num_items <= kMaxItems);
  const std::uint64_t num_warehouses =
      static_cast<std::uint64_t>(o.num_machines) * o.warehouses_per_machine;

  Workload w;
  w.name = "tpcc";
  w.num_machines = o.num_machines;
  w.partition_map = std::make_shared<TpccPartitionMap>(o.num_machines);

  w.procedures = std::make_shared<ProcedureRegistry>();
  w.procedures->Register(kTpccNewOrder, "new-order", NewOrderProc);
  w.procedures->Register(kTpccPayment, "payment", PaymentProc);
  w.procedures->Register(kTpccDelivery, "delivery", DeliveryProc);
  w.procedures->Register(kTpccOrderStatus, "order-status", OrderStatusProc);
  w.procedures->Register(kTpccStockLevel, "stock-level", StockLevelProc);

  const TpccOptions opts = o;
  w.loader = [opts, num_warehouses](PartitionedStore& store) {
    for (std::uint64_t wh = 0; wh < num_warehouses; ++wh) {
      store.Upsert(WarehouseKey(wh), Record{0});
      for (std::uint64_t d = 0; d < opts.districts_per_warehouse; ++d) {
        store.Upsert(DistrictKey(wh, d), Record{1, 0});
        for (std::uint64_t c = 0; c < opts.customers_per_district; ++c) {
          store.Upsert(CustomerKey(wh, d, c), Record{0, 0, 0});
        }
      }
      for (std::uint64_t i = 0; i < opts.num_items; ++i) {
        store.Upsert(StockKey(wh, i), Record{50, 0, 0, 0});
      }
    }
  };

  Rng rng(o.seed);
  // The generator tracks the committed next_o_id per district so order
  // ids in the trace match the ids execution will assign, plus enough
  // order metadata to parameterise Delivery / Order-Status / Stock-Level
  // with fully declared read/write sets.
  std::unordered_map<std::uint64_t, std::uint64_t> next_o_id;
  std::unordered_map<std::uint64_t, std::uint64_t> next_h_seq;
  struct PastOrder {
    std::uint64_t o_id;
    std::uint64_t customer;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lines;  // item,supply
  };
  std::unordered_map<std::uint64_t, std::deque<PastOrder>> undelivered;
  std::unordered_map<std::uint64_t, std::deque<PastOrder>> recent;
  std::unordered_map<std::uint64_t, PastOrder> last_order_of_customer;

  w.requests.reserve(o.num_txns);
  for (std::size_t t = 0; t < o.num_txns; ++t) {
    const std::uint64_t wh = rng.NextBelow(num_warehouses);
    const std::uint64_t d = rng.NextBelow(o.districts_per_warehouse);
    const std::uint64_t district_key_idx = wh * kDistrictsPerW + d;
    TxnSpec spec;

    double pick = rng.NextDouble();
    enum class Kind { kNewOrder, kPayment, kDelivery, kStatus, kStock };
    Kind kind = Kind::kPayment;
    if (pick < o.new_order_fraction) {
      kind = Kind::kNewOrder;
    } else if ((pick -= o.new_order_fraction) < o.delivery_fraction) {
      kind = Kind::kDelivery;
    } else if ((pick -= o.delivery_fraction) < o.order_status_fraction) {
      kind = Kind::kStatus;
    } else if ((pick -= o.order_status_fraction) < o.stock_level_fraction) {
      kind = Kind::kStock;
    }
    // Order-dependent transactions degrade to Payment when the district
    // has no eligible orders yet (deterministic fallback).
    if (kind == Kind::kDelivery && undelivered[district_key_idx].empty()) {
      kind = Kind::kPayment;
    }
    if (kind == Kind::kStock && recent[district_key_idx].empty()) {
      kind = Kind::kPayment;
    }

    if (kind == Kind::kDelivery) {
      PastOrder po = undelivered[district_key_idx].front();
      undelivered[district_key_idx].pop_front();
      spec.proc = kTpccDelivery;
      spec.params = {static_cast<std::int64_t>(wh),
                     static_cast<std::int64_t>(d),
                     static_cast<std::int64_t>(po.o_id),
                     1 + static_cast<std::int64_t>(rng.NextBelow(10)),
                     static_cast<std::int64_t>(po.customer),
                     static_cast<std::int64_t>(po.lines.size())};
      spec.rw.reads = {NewOrderKey(wh, d, po.o_id), OrderKey(wh, d, po.o_id),
                       CustomerKey(wh, d, po.customer)};
      for (std::size_t l = 0; l < po.lines.size(); ++l) {
        spec.rw.reads.push_back(OrderLineKey(wh, d, po.o_id, l));
      }
      spec.rw.writes = {NewOrderKey(wh, d, po.o_id), OrderKey(wh, d, po.o_id),
                        CustomerKey(wh, d, po.customer)};
      spec.rw.Normalize();
      w.requests.push_back(std::move(spec));
      continue;
    }
    if (kind == Kind::kStatus) {
      // Any customer that has ordered; fall back to Payment otherwise.
      const std::uint64_t c = rng.NextBelow(o.customers_per_district);
      auto it = last_order_of_customer.find(
          (district_key_idx << 20) | c);
      if (it == last_order_of_customer.end()) {
        kind = Kind::kPayment;
      } else {
        const PastOrder& po = it->second;
        spec.proc = kTpccOrderStatus;
        spec.params = {static_cast<std::int64_t>(wh),
                       static_cast<std::int64_t>(d),
                       static_cast<std::int64_t>(c),
                       static_cast<std::int64_t>(po.o_id),
                       static_cast<std::int64_t>(po.lines.size())};
        spec.rw.reads = {CustomerKey(wh, d, c), OrderKey(wh, d, po.o_id)};
        for (std::size_t l = 0; l < po.lines.size(); ++l) {
          spec.rw.reads.push_back(OrderLineKey(wh, d, po.o_id, l));
        }
        spec.rw.Normalize();
        w.requests.push_back(std::move(spec));
        continue;
      }
    }
    if (kind == Kind::kStock) {
      const auto& rec = recent[district_key_idx];
      const auto n = std::min<std::size_t>(
          rec.size(), static_cast<std::size_t>(o.stock_level_orders));
      spec.proc = kTpccStockLevel;
      spec.params = {static_cast<std::int64_t>(wh),
                     static_cast<std::int64_t>(d),
                     10 + static_cast<std::int64_t>(rng.NextBelow(11)),
                     static_cast<std::int64_t>(n)};
      spec.rw.reads = {DistrictKey(wh, d)};
      for (std::size_t i = rec.size() - n; i < rec.size(); ++i) {
        const PastOrder& po = rec[i];
        spec.params.push_back(static_cast<std::int64_t>(po.o_id));
        spec.params.push_back(static_cast<std::int64_t>(po.lines.size()));
        for (std::size_t l = 0; l < po.lines.size(); ++l) {
          const auto [item, supply] = po.lines[l];
          spec.params.push_back(static_cast<std::int64_t>(item));
          spec.params.push_back(static_cast<std::int64_t>(supply));
          spec.rw.reads.push_back(OrderLineKey(wh, d, po.o_id, l));
          spec.rw.reads.push_back(StockKey(supply, item));
        }
      }
      spec.rw.Normalize();
      w.requests.push_back(std::move(spec));
      continue;
    }

    if (kind == Kind::kNewOrder) {
      const std::uint64_t c = rng.NextBelow(o.customers_per_district);
      const bool abort_flag = rng.NextBool(o.abort_prob);
      const std::uint64_t district_idx = wh * kDistrictsPerW + d;
      const std::uint64_t o_id = 1 + next_o_id[district_idx];
      if (!abort_flag) ++next_o_id[district_idx];
      const std::size_t ol_cnt = 5 + rng.NextBelow(11);  // 5..15

      spec.proc = kTpccNewOrder;
      spec.params = {static_cast<std::int64_t>(wh),
                     static_cast<std::int64_t>(d),
                     static_cast<std::int64_t>(c),
                     static_cast<std::int64_t>(o_id),
                     abort_flag ? 1 : 0,
                     static_cast<std::int64_t>(ol_cnt)};
      spec.rw.reads = {WarehouseKey(wh), DistrictKey(wh, d),
                       CustomerKey(wh, d, c)};
      spec.rw.writes = {DistrictKey(wh, d), OrderKey(wh, d, o_id),
                        NewOrderKey(wh, d, o_id)};
      PastOrder po;
      po.o_id = o_id;
      po.customer = c;
      for (std::size_t l = 0; l < ol_cnt; ++l) {
        const std::uint64_t item = rng.NextBelow(o.num_items);
        std::uint64_t supply = wh;
        if (num_warehouses > 1 && rng.NextBool(o.remote_item_prob)) {
          supply = rng.NextBelow(num_warehouses - 1);
          if (supply >= wh) ++supply;
        }
        const std::int64_t qty = 1 + static_cast<std::int64_t>(
                                         rng.NextBelow(10));
        const std::int64_t price =
            1 + static_cast<std::int64_t>(rng.NextBelow(100));
        spec.params.push_back(static_cast<std::int64_t>(item));
        spec.params.push_back(static_cast<std::int64_t>(supply));
        spec.params.push_back(qty);
        spec.params.push_back(price);
        spec.rw.reads.push_back(StockKey(supply, item));
        spec.rw.writes.push_back(StockKey(supply, item));
        spec.rw.writes.push_back(OrderLineKey(wh, d, o_id, l));
        po.lines.emplace_back(item, supply);
      }
      if (!abort_flag) {
        undelivered[district_idx].push_back(po);
        auto& rec = recent[district_idx];
        rec.push_back(po);
        if (rec.size() > static_cast<std::size_t>(o.stock_level_orders)) {
          rec.pop_front();
        }
        last_order_of_customer[(district_idx << 20) | c] = std::move(po);
      }
    } else {
      std::uint64_t c_w = wh;
      std::uint64_t c_d = d;
      if (num_warehouses > 1 && rng.NextBool(o.remote_payment_prob)) {
        c_w = rng.NextBelow(num_warehouses - 1);
        if (c_w >= wh) ++c_w;
        c_d = rng.NextBelow(o.districts_per_warehouse);
      }
      const std::uint64_t c = rng.NextBelow(o.customers_per_district);
      const std::int64_t amount =
          1 + static_cast<std::int64_t>(rng.NextBelow(5000));
      const std::uint64_t h_seq = next_h_seq[wh]++;

      spec.proc = kTpccPayment;
      spec.params = {static_cast<std::int64_t>(wh),
                     static_cast<std::int64_t>(d),
                     static_cast<std::int64_t>(c_w),
                     static_cast<std::int64_t>(c_d),
                     static_cast<std::int64_t>(c),
                     amount,
                     static_cast<std::int64_t>(h_seq)};
      spec.rw.reads = {WarehouseKey(wh), DistrictKey(wh, d),
                       CustomerKey(c_w, c_d, c)};
      spec.rw.writes = {WarehouseKey(wh), DistrictKey(wh, d),
                        CustomerKey(c_w, c_d, c), HistoryKey(wh, h_seq)};
    }
    spec.rw.Normalize();
    w.requests.push_back(std::move(spec));
  }
  return w;
}

}  // namespace tpart
