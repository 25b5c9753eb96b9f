#ifndef TPART_RUNTIME_CHANNEL_H_
#define TPART_RUNTIME_CHANNEL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include <string>

#include "common/status.h"
#include "common/types.h"
#include "storage/record.h"
#include "txn/txn.h"

namespace tpart {

/// Inter-machine message. One variant struct keeps the wire format
/// explicit and cheap to log for recovery (§5.4); net/wire.h defines the
/// binary serialization used by the real transports.
struct Message {
  enum class Type {
    /// Forward-push of a version entry <key, version, dst_txn> (§3.4).
    kPushVersion,
    /// Remote cache pull request for epoch entry <key, version>.
    kCacheReadReq,
    kCacheReadResp,
    /// Remote storage read of the version tagged `version`.
    kStorageReadReq,
    kStorageReadResp,
    /// Apply a write-back at the record's home.
    kWriteBackApply,
    /// Self-notification: the local executor published an epoch entry;
    /// parked remote pulls may now be served.
    kLocalPublish,
    /// Streaming dissemination (§3.3/§5.2): one sinking round's full push
    /// plan (`plan_bytes` = EncodeSinkPlan output) plus the specs of its
    /// transactions; every machine receives every round and executes only
    /// its own slice.
    kSinkPlan,
    /// Streaming dissemination: no more plans will arrive; `epoch` carries
    /// the last emitted sinking round (0 when the stream was empty).
    kPlanStreamEnd,
    /// Failure-detector probe: the watchdog stamps a monotonically
    /// increasing sequence number in `req_id`; a live machine's service
    /// thread records it (Machine::heartbeat_seen). A crashed machine
    /// drops probes, so its recorded sequence stalls — that stall, held
    /// past the deadline, is the failure signal.
    kHeartbeat,
    /// Internal checkpoint fence: the executor posts it through its own
    /// inbound queue at a quiescent epoch boundary; when the service
    /// thread dispatches it, every earlier logged message has been fully
    /// applied, so the machine captures its checkpoint there. Never
    /// crosses the wire.
    kCheckpointBarrier,
    /// Elastic membership (src/elastic): control plane -> source machine,
    /// at a quiesced sink-epoch barrier. `plan_bytes` lists the moved
    /// keys, `dst_txn` the target machine, `req_id` the migration stream
    /// id, `epoch` the cut epoch. The source captures the keys' partition
    /// image, ships it to the target, and drops the keys locally.
    kMigrateBegin,
    /// One chunk of an encoded PartitionImage: `plan_bytes` the chunk,
    /// `epoch` the chunk index, `txn` the total chunk count, `req_id` the
    /// stream id. The target dedupes by (stream, chunk index), so
    /// transport-level duplicates deliver exactly once.
    kPartitionImage,
    /// End of a migration stream: `key` carries the FNV checksum of the
    /// whole encoded image, `txn` the chunk count, `version` the number of
    /// key entries. The target verifies and installs atomically.
    kMigrateCommit,
    /// Local-only service fence: posted directly into a machine's inbound
    /// queue by the migration barrier; when dispatched, every message
    /// delivered before it has been applied. Never crosses the wire.
    kServiceFence,
    /// Coordinator replication (§2.1 Zab, DESIGN §4i): leader -> standby
    /// replication of one sequenced batch. `req_id` is the log index,
    /// `txn` the batch id, `epoch` the leader's term, `specs` the batch's
    /// transactions (ids already assigned by the sequencer).
    kLogAppend,
    /// Coordinator replication ack, multiplexed by `key`:
    ///   0 = append ack (standby -> leader; `req_id` echoes the log index),
    ///   1 = claim ack  (replica -> new leader; `req_id` = replica log len),
    ///   2 = watermark  (machine -> leader; `epoch` = highest contiguous
    ///       sink round enqueued by that machine, `req_id` echoes probe).
    kLogAck,
    /// Leadership claim / watermark probe. Replica -> replica: `txn` is the
    /// claimant replica index, `req_id` its committed-log length, `epoch`
    /// the new term (Zab election: longest log wins, ties -> lower id).
    /// Leader -> machine (`reply_to` set): a watermark probe; the machine
    /// answers with a kLogAck(key=2) to `reply_to`.
    kLeaderClaim,
    /// Stop the service loop. Must stay the last enumerator: the wire
    /// decoder rejects any type byte beyond it (net/wire.cc).
    kShutdown,
  };

  Type type = Type::kShutdown;
  ObjectKey key = 0;
  TxnId version = kInvalidTxnId;
  /// kWriteBackApply: storage version the write-back replaces.
  TxnId replaces = kInvalidTxnId;
  TxnId dst_txn = kInvalidTxnId;
  Record value;
  bool invalidate = false;
  std::uint32_t total_reads = 0;
  std::uint32_t awaits = 0;
  bool sticky = false;
  SinkEpoch epoch = 0;
  MachineId reply_to = kInvalidMachine;
  std::uint64_t req_id = 0;
  TxnId txn = kInvalidTxnId;
  /// kSinkPlan: the round's plan, already wire-encoded (EncodeSinkPlan) so
  /// the scheduler serializes once per round, not once per destination.
  std::string plan_bytes;
  /// kSinkPlan: specs of the plan's (non-dummy) transactions, in plan order.
  std::vector<TxnSpec> specs;
  /// Per-transaction causal-timeline context (obs/trace_context.h packs
  /// it): sampled-txn flag + origin machine + coordinator term, riding
  /// every frame so the receiving side can stitch cross-machine async
  /// spans without global state. 0 = no context (1 varint byte on the
  /// wire).
  std::uint64_t trace_ctx = 0;
  /// Coordinator-term fence: the term of the leader that issued this
  /// plan/round/migration control message. Machines and standbys track
  /// the highest term seen and reject control traffic from lower terms
  /// — a revived "zombie" ex-leader cannot corrupt the stream with its
  /// stale in-flight plans. 0 = unfenced (data-plane traffic and legacy
  /// frames; 1 varint byte on the wire).
  std::uint64_t term = 0;
  /// Recovery re-delivery marker: set on messages re-injected from the
  /// network log or a checkpoint image during Machine::Recover(), so they
  /// are not logged a second time. Local-only (never wire-encoded, not
  /// part of equality).
  bool redelivery = false;
};

/// Field-wise equality (wire round-trip tests, transport verification).
bool operator==(const Message& a, const Message& b);

/// Rough in-memory footprint of a message, for log/window byte
/// accounting (not the wire size).
std::size_t ApproxMessageBytes(const Message& m);

/// MPSC blocking queue — each machine's inbound FIFO, the "network"
/// between machines for the direct in-memory transport, and the
/// byte-packet conveyor inside the serialized in-process transport
/// (net/packet_network.h). A capacity of 0 means unbounded; a bounded
/// queue blocks senders when full, which is how the transports exert
/// backpressure.
///
/// Elements live in a power-of-two circular buffer that doubles when full
/// and never shrinks, so once a queue has reached its working depth a
/// Send/Receive pair allocates nothing.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues `msg`; blocks while a bounded queue is at capacity.
  /// Returns true when the send had to wait (a backpressure event).
  bool Send(T msg) {
    bool waited = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (capacity_ > 0 && size_ >= capacity_) {
        waited = true;
        space_cv_.wait(lock, [&] { return size_ < capacity_; });
      }
      if (size_ == buf_.size()) Grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(msg);
      if (++size_ > high_water_) high_water_ = size_;
    }
    cv_.notify_one();
    return waited;
  }

  /// Blocks for the next message.
  T Receive() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return size_ > 0; });
    return PopAndUnlock(lock);
  }

  /// Deadline-aware variant: waits at most `timeout` for a message and
  /// returns kUnavailable on expiry, so a dead producer surfaces as a
  /// reported error instead of a hang. A timeout of zero waits forever
  /// (identical to Receive()). The deadline is computed once up front and
  /// every re-wait targets the *remaining* time — a stream of spurious
  /// wakeups (or stolen wakeups under heavy fan-in) cannot stretch the
  /// total wait past the requested timeout.
  [[nodiscard]] Result<T> ReceiveFor(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] { return size_ > 0; };
    if (timeout.count() <= 0) {
      cv_.wait(lock, ready);
    } else {
      const auto deadline = std::chrono::steady_clock::now() + timeout;
      if (!cv_.wait_until(lock, deadline, ready)) {
        return Status::Unavailable("channel receive timed out");
      }
    }
    return PopAndUnlock(lock);
  }

  /// Non-blocking variant.
  std::optional<T> TryReceive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (size_ == 0) return std::nullopt;
    return PopAndUnlock(lock);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Largest queue depth ever observed.
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  /// Takes the head element (requires size_ > 0), then releases `lock`
  /// and wakes one sender blocked on a full bounded queue.
  T PopAndUnlock(std::unique_lock<std::mutex>& lock) {
    T msg = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    lock.unlock();
    space_cv_.notify_one();
    return msg;
  }

  /// Doubles the buffer, unwrapping the live elements to its front.
  void Grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable space_cv_;
  std::vector<T> buf_;    // capacity a power of two once non-empty
  std::size_t head_ = 0;  // index of the oldest element
  std::size_t size_ = 0;
  std::size_t capacity_;
  std::size_t high_water_ = 0;
};

/// The machine-facing message queue (unbounded, as before).
using Channel = BlockingQueue<Message>;

}  // namespace tpart

#endif  // TPART_RUNTIME_CHANNEL_H_
