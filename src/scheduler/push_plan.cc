#include "scheduler/push_plan.h"

#include <sstream>
#include <tuple>

namespace tpart {

namespace {
const char* KindName(ReadSourceKind kind) {
  switch (kind) {
    case ReadSourceKind::kStorage:
      return "storage";
    case ReadSourceKind::kPush:
      return "push";
    case ReadSourceKind::kLocalVersion:
      return "local";
    case ReadSourceKind::kCacheLocal:
      return "cache";
    case ReadSourceKind::kCacheRemote:
      return "cache-remote";
  }
  return "?";
}
}  // namespace

std::string TxnPlan::ToString() const {
  std::ostringstream out;
  out << "T" << txn << "@M" << machine << ":";
  for (const auto& r : reads) {
    out << " R(" << r.key << "," << KindName(r.kind) << ",v" << r.src_txn
        << ")";
    if (r.invalidate_entry) out << "!";
  }
  for (const auto& p : pushes) {
    out << " Push(" << p.key << "->T" << p.dst_txn << "@M" << p.dst_machine
        << ")";
  }
  for (const auto& l : local_versions) {
    out << " Local(" << l.key << "->T" << l.dst_txn << ")";
  }
  for (const auto& c : cache_publishes) {
    out << " Cache(" << c.key << ",sink" << c.epoch << ")";
  }
  for (const auto& w : write_backs) {
    out << " WB(" << w.key << "->M" << w.home << (w.make_sticky ? ",sticky" : "")
        << ")";
  }
  return out.str();
}

std::size_t SinkPlan::NumDistributed() const {
  std::size_t n = 0;
  for (const auto& p : txns) {
    bool distributed = false;
    for (const auto& r : p.reads) {
      if (r.kind == ReadSourceKind::kPush ||
          r.kind == ReadSourceKind::kCacheRemote ||
          (r.kind == ReadSourceKind::kStorage &&
           r.src_machine != p.machine)) {
        distributed = true;
        break;
      }
    }
    if (distributed) ++n;
  }
  return n;
}

bool operator==(const ReadStep& a, const ReadStep& b) {
  return std::tie(a.key, a.kind, a.src_txn, a.src_machine, a.cache_epoch,
                  a.storage_min_epoch, a.invalidate_entry, a.sticky_hint,
                  a.provider_txn, a.entry_total_reads) ==
         std::tie(b.key, b.kind, b.src_txn, b.src_machine, b.cache_epoch,
                  b.storage_min_epoch, b.invalidate_entry, b.sticky_hint,
                  b.provider_txn, b.entry_total_reads);
}

bool operator==(const PushStep& a, const PushStep& b) {
  return std::tie(a.key, a.dst_txn, a.dst_machine, a.version_txn) ==
         std::tie(b.key, b.dst_txn, b.dst_machine, b.version_txn);
}

bool operator==(const LocalVersionStep& a, const LocalVersionStep& b) {
  return std::tie(a.key, a.dst_txn, a.version_txn) ==
         std::tie(b.key, b.dst_txn, b.version_txn);
}

bool operator==(const CachePublishStep& a, const CachePublishStep& b) {
  return std::tie(a.key, a.epoch) == std::tie(b.key, b.epoch);
}

bool operator==(const WriteBackStep& a, const WriteBackStep& b) {
  return std::tie(a.key, a.home, a.version_txn, a.make_sticky,
                  a.readers_to_await, a.replaces_version) ==
         std::tie(b.key, b.home, b.version_txn, b.make_sticky,
                  b.readers_to_await, b.replaces_version);
}

bool operator==(const TxnPlan& a, const TxnPlan& b) {
  return a.txn == b.txn && a.machine == b.machine &&
         a.num_reads == b.num_reads && a.num_writes == b.num_writes &&
         a.reads == b.reads && a.pushes == b.pushes &&
         a.local_versions == b.local_versions &&
         a.cache_publishes == b.cache_publishes &&
         a.write_backs == b.write_backs;
}

bool SinkPlan::operator==(const SinkPlan& other) const {
  return epoch == other.epoch && txns == other.txns;
}

}  // namespace tpart
