#include "runtime/channel.h"

namespace tpart {

bool operator==(const Message& a, const Message& b) {
  return a.type == b.type && a.key == b.key && a.version == b.version &&
         a.replaces == b.replaces && a.dst_txn == b.dst_txn &&
         a.value == b.value && a.invalidate == b.invalidate &&
         a.total_reads == b.total_reads && a.awaits == b.awaits &&
         a.sticky == b.sticky && a.epoch == b.epoch &&
         a.reply_to == b.reply_to && a.req_id == b.req_id &&
         a.txn == b.txn &&
         a.plan_bytes == b.plan_bytes && a.specs == b.specs &&
         a.trace_ctx == b.trace_ctx && a.term == b.term;
}

std::size_t ApproxMessageBytes(const Message& m) {
  std::size_t bytes = sizeof(Message);
  bytes += m.value.SizeBytes();
  bytes += m.plan_bytes.size();
  for (const TxnSpec& spec : m.specs) {
    bytes += sizeof(TxnSpec) + spec.params.size() * sizeof(spec.params[0]);
  }
  return bytes;
}

}  // namespace tpart
