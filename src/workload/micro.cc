#include "workload/micro.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "txn/rw_set.h"

namespace tpart {

namespace {

constexpr TableId kMicroTable = 0;

// Parameter layout shared by the generator (which derives the declared
// read/write sets) and the stored procedure (which replays the same keys):
// [delta, R, r_1..r_R, W, w_1..w_W].
std::vector<std::int64_t> EncodeParams(std::int64_t delta,
                                       const std::vector<ObjectKey>& reads,
                                       const std::vector<ObjectKey>& writes) {
  std::vector<std::int64_t> p;
  p.reserve(3 + reads.size() + writes.size());
  p.push_back(delta);
  p.push_back(static_cast<std::int64_t>(reads.size()));
  for (const ObjectKey k : reads) p.push_back(static_cast<std::int64_t>(k));
  p.push_back(static_cast<std::int64_t>(writes.size()));
  for (const ObjectKey k : writes) p.push_back(static_cast<std::int64_t>(k));
  return p;
}

Status MicroProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const std::int64_t delta = p[0];
  const auto nreads = static_cast<std::size_t>(p[1]);
  std::int64_t sum = 0;
  // Read phase: "a read-only transaction reads a constant 10 records".
  std::vector<std::pair<ObjectKey, Record>> values;
  values.reserve(nreads);
  for (std::size_t i = 0; i < nreads; ++i) {
    const auto key = static_cast<ObjectKey>(p[2 + i]);
    Result<Record> r = ctx.Get(key);
    if (!r.ok()) return r.status();
    sum += r->field(0);
    values.emplace_back(key, std::move(r).value());
  }
  ctx.EmitOutput(sum);
  // Write phase: "after reading 10 records, randomly writes back 5 of
  // them" (the 5 were chosen by the generator).
  const std::size_t woff = 2 + nreads;
  const auto nwrites = static_cast<std::size_t>(p[woff]);
  for (std::size_t i = 0; i < nwrites; ++i) {
    const auto key = static_cast<ObjectKey>(p[woff + 1 + i]);
    Record rec;
    for (const auto& [k, v] : values) {
      if (k == key) {
        rec = v;
        break;
      }
    }
    rec.add_to_field(0, delta);
    rec.add_to_field(1, 1);  // update counter
    TPART_RETURN_IF_ERROR(ctx.Put(key, std::move(rec)));
  }
  return Status::Ok();
}

}  // namespace

Workload MakeMicroWorkload(const MicroOptions& o) {
  TPART_CHECK(o.num_machines >= 1);
  TPART_CHECK(o.records_per_machine >= 2);
  const std::uint64_t hot = std::min<std::uint64_t>(
      o.hot_set_size, o.records_per_machine / 2);
  const std::uint64_t cold = o.records_per_machine - hot;

  Workload w;
  w.name = "micro";
  w.num_machines = o.num_machines;
  w.partition_map = std::make_shared<RangePartitionMap>(
      o.num_machines, o.records_per_machine);

  w.procedures = std::make_shared<ProcedureRegistry>();
  w.procedures->Register(kMicroProc, "micro", MicroProc);

  const std::size_t record_bytes = o.record_bytes;
  const std::size_t num_machines = o.num_machines;
  const std::uint64_t rpm = o.records_per_machine;
  w.loader = [num_machines, rpm, record_bytes](PartitionedStore& store) {
    for (std::size_t m = 0; m < num_machines; ++m) {
      for (std::uint64_t i = 0; i < rpm; ++i) {
        const std::uint64_t pk = m * rpm + i;
        Record rec(2, record_bytes > 16 ? record_bytes - 16 : 0);
        rec.set_field(0, static_cast<std::int64_t>(pk % 1000));
        store.Upsert(MakeObjectKey(kMicroTable, pk), std::move(rec));
      }
    }
  };

  // Skewed transactions target machines "numbered in the first one-fifth".
  const std::size_t skew_targets =
      std::max<std::size_t>(1, (o.num_machines + 4) / 5);

  Rng rng(o.seed);
  w.requests.reserve(o.num_txns);
  for (std::size_t t = 0; t < o.num_txns; ++t) {
    const auto home =
        static_cast<std::uint64_t>(rng.NextBelow(o.num_machines));
    const bool is_rw = rng.NextBool(o.read_write_rate);
    const bool is_dist =
        o.num_machines > 1 && rng.NextBool(o.distributed_rate);
    const bool is_skewed = rng.NextBool(o.skewed_rate);

    auto key_on = [&](std::uint64_t machine, bool hot_record) {
      const std::uint64_t offset =
          hot_record ? rng.NextBelow(hot) : hot + rng.NextBelow(cold);
      return MakeObjectKey(kMicroTable, machine * rpm + offset);
    };
    auto remote_machine = [&]() {
      // "A skewed transaction has 50% probability of accessing remote
      // records on machines that are numbered in the first one-fifth."
      if (is_skewed && rng.NextBool(0.5)) {
        return static_cast<std::uint64_t>(rng.NextBelow(skew_targets));
      }
      std::uint64_t m = rng.NextBelow(o.num_machines - 1);
      if (m >= home) ++m;  // any machine but home
      return m;
    };

    std::unordered_set<ObjectKey> chosen;
    std::vector<ObjectKey> reads;
    const int n_cold = o.records_per_txn - 1;
    const int n_remote =
        is_dist ? std::min(o.remote_records, n_cold) : 0;
    // 1 hot record from the home machine.
    while (true) {
      const ObjectKey k = key_on(home, /*hot_record=*/true);
      if (chosen.insert(k).second) {
        reads.push_back(k);
        break;
      }
    }
    for (int i = 0; i < n_cold; ++i) {
      const bool remote = i < n_remote;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const std::uint64_t m = remote ? remote_machine() : home;
        const ObjectKey k = key_on(m, /*hot_record=*/false);
        if (chosen.insert(k).second) {
          reads.push_back(k);
          break;
        }
      }
    }

    std::vector<ObjectKey> writes;
    if (is_rw) {
      // Choose `write_records` distinct indices among the reads.
      std::vector<std::size_t> idx(reads.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      for (std::size_t i = idx.size(); i > 1; --i) {
        std::swap(idx[i - 1], idx[rng.NextBelow(i)]);
      }
      const auto nw = std::min<std::size_t>(
          static_cast<std::size_t>(o.write_records), reads.size());
      for (std::size_t i = 0; i < nw; ++i) writes.push_back(reads[idx[i]]);
    }

    TxnSpec spec;
    spec.proc = kMicroProc;
    spec.params = EncodeParams(
        static_cast<std::int64_t>(rng.NextBelow(100)) + 1, reads, writes);
    spec.rw.reads = reads;
    spec.rw.writes = writes;
    spec.rw.Normalize();
    w.requests.push_back(std::move(spec));
  }
  return w;
}

}  // namespace tpart
