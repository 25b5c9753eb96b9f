#include "workload/tpce.h"

#include <deque>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"

namespace tpart {

namespace {

ObjectKey CustomerKey(std::uint64_t c) {
  return MakeObjectKey(kTpceCustomer, c);
}
ObjectKey AccountKey(std::uint64_t a) { return MakeObjectKey(kTpceAccount, a); }
ObjectKey BrokerKey(std::uint64_t b) { return MakeObjectKey(kTpceBroker, b); }
ObjectKey SecurityKey(std::uint64_t s) {
  return MakeObjectKey(kTpceSecurity, s);
}
ObjectKey LastTradeKey(std::uint64_t s) {
  return MakeObjectKey(kTpceLastTrade, s);
}
ObjectKey TradeKey(std::uint64_t t) { return MakeObjectKey(kTpceTrade, t); }
ObjectKey TradeHistoryKey(std::uint64_t t) {
  return MakeObjectKey(kTpceTradeHistory, t);
}
ObjectKey HoldingKey(std::uint64_t account, std::uint64_t security,
                     std::uint64_t num_securities) {
  return MakeObjectKey(kTpceHolding, account * num_securities + security);
}

// Record layouts:
//   CUSTOMER   [tier]
//   ACCOUNT    [balance, trade_cnt]
//   BROKER     [commission_ytd, trade_cnt]
//   SECURITY   [issue]         (read-only here)
//   LAST_TRADE [price, volume]
//   TRADE      [account, security, qty, price, status]  status 0=pending
//   TRADE_HISTORY [trade, status]
//   HOLDING_SUMMARY [qty]

// Trade-Order params: [c, acct, broker, sec, trade_id, qty, n_securities,
//                       n_quotes, quote_sec...]
// Reads widely (customer profile, account, broker, security, quoted
// market data) but only *inserts* — TPC-C-E's order path does not settle
// money; contended updates happen at Trade-Result.
Status TradeOrderProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto c = static_cast<std::uint64_t>(p[0]);
  const auto acct = static_cast<std::uint64_t>(p[1]);
  const auto broker = static_cast<std::uint64_t>(p[2]);
  const auto sec = static_cast<std::uint64_t>(p[3]);
  const auto trade = static_cast<std::uint64_t>(p[4]);
  const std::int64_t qty = p[5];
  const auto nsec = static_cast<std::uint64_t>(p[6]);
  const auto n_quotes = static_cast<std::size_t>(p[7]);

  TPART_ASSIGN_OR_RETURN(Record customer, ctx.Get(CustomerKey(c)));
  (void)customer;
  TPART_ASSIGN_OR_RETURN(Record account, ctx.Get(AccountKey(acct)));
  (void)account;
  TPART_ASSIGN_OR_RETURN(Record security, ctx.Get(SecurityKey(sec)));
  (void)security;
  TPART_ASSIGN_OR_RETURN(Record last_trade, ctx.Get(LastTradeKey(sec)));
  TPART_ASSIGN_OR_RETURN(Record broker_rec, ctx.Get(BrokerKey(broker)));
  (void)broker_rec;
  std::int64_t quote_sum = 0;
  for (std::size_t i = 0; i < n_quotes; ++i) {
    const auto q = static_cast<std::uint64_t>(p[8 + i]);
    TPART_ASSIGN_OR_RETURN(Record quote, ctx.Get(LastTradeKey(q)));
    quote_sum += quote.field(0);
  }

  const std::int64_t price = last_trade.field(0);
  TPART_RETURN_IF_ERROR(
      ctx.Put(TradeKey(trade),
              Record{static_cast<std::int64_t>(acct),
                     static_cast<std::int64_t>(sec), qty, price, 0}));
  TPART_RETURN_IF_ERROR(
      ctx.Put(TradeHistoryKey(trade),
              Record{static_cast<std::int64_t>(trade), 0}));
  (void)nsec;
  ctx.EmitOutput(price * qty + quote_sum);
  return Status::Ok();
}

// Trade-Result params: [trade_id, acct, sec, broker, n_securities]
Status TradeResultProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const auto trade = static_cast<std::uint64_t>(p[0]);
  const auto acct = static_cast<std::uint64_t>(p[1]);
  const auto sec = static_cast<std::uint64_t>(p[2]);
  const auto broker = static_cast<std::uint64_t>(p[3]);
  const auto nsec = static_cast<std::uint64_t>(p[4]);

  TPART_ASSIGN_OR_RETURN(Record trade_rec, ctx.Get(TradeKey(trade)));
  TPART_ASSIGN_OR_RETURN(Record account, ctx.Get(AccountKey(acct)));
  TPART_ASSIGN_OR_RETURN(Record last_trade, ctx.Get(LastTradeKey(sec)));
  TPART_ASSIGN_OR_RETURN(Record holding,
                         ctx.Get(HoldingKey(acct, sec, nsec)));
  TPART_ASSIGN_OR_RETURN(Record broker_rec, ctx.Get(BrokerKey(broker)));

  const std::int64_t qty = trade_rec.field(2);
  const std::int64_t price = trade_rec.field(3);
  trade_rec.set_field(4, 1);  // settled
  TPART_RETURN_IF_ERROR(ctx.Put(TradeKey(trade), std::move(trade_rec)));

  account.add_to_field(0, -(qty * price));
  TPART_RETURN_IF_ERROR(ctx.Put(AccountKey(acct), std::move(account)));

  last_trade.set_field(0, price + (qty % 3) - 1);  // drift the quote
  last_trade.add_to_field(1, qty);
  TPART_RETURN_IF_ERROR(ctx.Put(LastTradeKey(sec), std::move(last_trade)));

  if (holding.is_absent()) holding = Record{0};
  holding.add_to_field(0, qty);
  TPART_RETURN_IF_ERROR(
      ctx.Put(HoldingKey(acct, sec, nsec), std::move(holding)));

  broker_rec.add_to_field(0, qty * price / 100);
  TPART_RETURN_IF_ERROR(ctx.Put(BrokerKey(broker), std::move(broker_rec)));
  ctx.EmitOutput(qty * price);
  return Status::Ok();
}

}  // namespace

Workload MakeTpceWorkload(const TpceOptions& o) {
  TPART_CHECK(o.num_machines >= 1);
  const std::uint64_t customers =
      o.customers_per_machine * o.num_machines;
  const std::uint64_t securities =
      o.securities_per_machine * o.num_machines;
  const std::uint64_t accounts = customers * o.accounts_per_customer;
  const std::uint64_t brokers =
      std::max<std::uint64_t>(1, customers / o.customers_per_broker);

  Workload w;
  w.name = "tpce";
  w.num_machines = o.num_machines;
  // "We partition each table horizontally based on the hash value of the
  // primary key of each record" (§6.1.2).
  w.partition_map = std::make_shared<HashPartitionMap>(o.num_machines);

  w.procedures = std::make_shared<ProcedureRegistry>();
  w.procedures->Register(kTpceTradeOrder, "trade-order", TradeOrderProc);
  w.procedures->Register(kTpceTradeResult, "trade-result", TradeResultProc);

  const std::uint64_t nsec = securities;
  w.loader = [customers, securities, accounts, brokers,
              nsec](PartitionedStore& store) {
    for (std::uint64_t c = 0; c < customers; ++c) {
      store.Upsert(CustomerKey(c), Record{static_cast<std::int64_t>(c % 3)});
    }
    for (std::uint64_t a = 0; a < accounts; ++a) {
      store.Upsert(AccountKey(a), Record{100'000, 0});
    }
    for (std::uint64_t b = 0; b < brokers; ++b) {
      store.Upsert(BrokerKey(b), Record{0, 0});
    }
    for (std::uint64_t s = 0; s < securities; ++s) {
      store.Upsert(SecurityKey(s), Record{static_cast<std::int64_t>(s % 7)});
      store.Upsert(LastTradeKey(s),
                   Record{50 + static_cast<std::int64_t>(s % 100), 0});
    }
    (void)nsec;
  };

  Rng rng(o.seed);
  ZipfGenerator customer_zipf(customers, o.customer_zipf_theta);
  ZipfGenerator security_zipf(securities, o.security_zipf_theta);

  struct PendingTrade {
    std::uint64_t trade, acct, sec, broker;
  };
  std::deque<PendingTrade> pending;
  std::uint64_t next_trade_id = 1;

  w.requests.reserve(o.num_txns);
  for (std::size_t t = 0; t < o.num_txns; ++t) {
    TxnSpec spec;
    const bool do_order =
        pending.empty() || rng.NextBool(o.trade_order_fraction);
    if (do_order) {
      const std::uint64_t c = customer_zipf.Next(rng);
      const std::uint64_t acct =
          c * o.accounts_per_customer + rng.NextBelow(o.accounts_per_customer);
      const std::uint64_t broker = c / o.customers_per_broker % brokers;
      const std::uint64_t sec = security_zipf.Next(rng);
      const std::uint64_t trade = next_trade_id++;
      const std::int64_t qty =
          10 * (1 + static_cast<std::int64_t>(rng.NextBelow(10)));

      spec.proc = kTpceTradeOrder;
      spec.params = {static_cast<std::int64_t>(c),
                     static_cast<std::int64_t>(acct),
                     static_cast<std::int64_t>(broker),
                     static_cast<std::int64_t>(sec),
                     static_cast<std::int64_t>(trade),
                     qty,
                     static_cast<std::int64_t>(securities),
                     o.market_scan_quotes};
      spec.rw.reads = {CustomerKey(c), AccountKey(acct), BrokerKey(broker),
                       SecurityKey(sec), LastTradeKey(sec)};
      for (int q = 0; q < o.market_scan_quotes; ++q) {
        const std::uint64_t qs = security_zipf.Next(rng);
        spec.params.push_back(static_cast<std::int64_t>(qs));
        spec.rw.reads.push_back(LastTradeKey(qs));
      }
      spec.rw.writes = {TradeKey(trade), TradeHistoryKey(trade)};
      pending.push_back(PendingTrade{trade, acct, sec, broker});
    } else {
      const PendingTrade pt = pending.front();
      pending.pop_front();
      spec.proc = kTpceTradeResult;
      spec.params = {static_cast<std::int64_t>(pt.trade),
                     static_cast<std::int64_t>(pt.acct),
                     static_cast<std::int64_t>(pt.sec),
                     static_cast<std::int64_t>(pt.broker),
                     static_cast<std::int64_t>(securities)};
      spec.rw.reads = {TradeKey(pt.trade), AccountKey(pt.acct),
                       LastTradeKey(pt.sec),
                       HoldingKey(pt.acct, pt.sec, securities),
                       BrokerKey(pt.broker)};
      spec.rw.writes = {TradeKey(pt.trade), AccountKey(pt.acct),
                        LastTradeKey(pt.sec),
                        HoldingKey(pt.acct, pt.sec, securities),
                        BrokerKey(pt.broker)};
    }
    spec.rw.Normalize();
    w.requests.push_back(std::move(spec));
  }
  return w;
}

}  // namespace tpart
