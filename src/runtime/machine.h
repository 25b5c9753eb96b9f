#ifndef TPART_RUNTIME_MACHINE_H_
#define TPART_RUNTIME_MACHINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/cache_area.h"
#include "runtime/channel.h"
#include "runtime/machine_checkpoint.h"
#include "runtime/storage_service.h"
#include "scheduler/push_plan.h"
#include "storage/kv_store.h"
#include "txn/procedure.h"
#include "txn/txn.h"

namespace tpart {

/// One machine of the threaded runtime: an executor thread running the
/// machine's slice of each sinking round in total order, and a service
/// thread handling inbound messages (pushes, pulls, storage requests,
/// write-backs). The §2.1 Calvin baseline runs only in the simulator
/// (sim/calvin_sim.h).
///
/// Recovery support (§5.4): the machine logs the requests assigned to it
/// (after partitioning) and every inbound value-bearing message
/// (generalising the PUSH-log); ReplayLogs() replays them, in-run
/// (Recover) and offline (ReplayMachine in runtime/recovery.h).
class Machine {
 public:
  using SendFn = std::function<void(MachineId, Message)>;
  /// Batched fan-out: one call carries every (destination, message) pair
  /// of an executor's publish phase; the cluster routes it to
  /// Transport::SendBatch so serialized transports coalesce each
  /// destination's share into one wire frame.
  /// The vector is borrowed executor scratch: implementations move the
  /// messages out but must leave the vector (and its capacity) behind.
  using SendBatchFn =
      std::function<void(std::vector<std::pair<MachineId, Message>>&)>;

  /// Each machine runs one executor thread that takes its plans in total
  /// (FIFO) order. The version-based CC
  /// (reads wait for exact versions) already makes T-Part results
  /// independent of execution interleaving; FIFO order is what makes
  /// crash points and checkpoint barriers deterministic.
  /// `send` carries single messages (read requests, responses, control
  /// replies); `send_batch` carries each executed plan's publish phase
  /// (pushes and remote write-backs) in one call. Read requests never
  /// ride a batch — the executor blocks on their responses.
  Machine(MachineId id, std::size_t num_machines, KvStore* store,
          const ProcedureRegistry* registry, SendFn send,
          SendBatchFn send_batch, SinkEpoch sticky_ttl = 2);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- Work intake ----------------------------------------------------
  struct PlanItem {
    TxnPlan plan;
    TxnSpec spec;
  };
  /// No more work will arrive; the executor drains and exits. (Work
  /// arrives as kSinkPlan/kPlanStreamEnd messages through Deliver.)
  void FinishEnqueue();

  // ---- Streaming intake (kSinkPlan/kPlanStreamEnd over the transport) --
  /// Bounds the number of sinking rounds in flight at this machine
  /// (disseminated but not fully executed); must be > 0. Must be set
  /// before StartTPart().
  void set_epoch_queue_capacity(std::size_t capacity) {
    epoch_queue_capacity_ = capacity;
  }
  /// Called by the dissemination stage before shipping a round here;
  /// blocks while `capacity` rounds are in flight — this is how execution
  /// backpressures the scheduler. A credit that never frees (the machine
  /// died and nobody recovers it) surfaces as kTimedOut after `timeout`
  /// instead of hanging dissemination forever.
  enum class CreditGrant { kGranted, kGrantedAfterWait, kTimedOut };
  CreditGrant AcquireEpochCreditFor(std::chrono::microseconds timeout);
  /// Deepest the in-flight-round window ever got.
  std::size_t epoch_queue_high_water() const;
  /// Rounds currently in flight (disseminated but not fully executed) —
  /// the live sampler's per-machine depth gauge.
  std::size_t epochs_in_flight() const;
  /// Deepest the inbound service FIFO ever got (pipeline depth gauge).
  std::size_t inbound_queue_high_water() const { return inbound_.high_water(); }

  /// Invoked (from an executor thread) with each transaction's id as its
  /// result is recorded — admission-to-commit latency tracking. Set before
  /// StartTPart(); clear (nullptr) after JoinExecutor().
  void set_commit_hook(std::function<void(TxnId)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Causal-timeline sampling stride (--txn-sample=1/N): transactions with
  /// id % every == 0 emit async trace events at receive/execute so their
  /// end-to-end timeline stitches across machines (obs/trace_context.h).
  /// 0 disables. Set before Start*().
  void set_txn_sample(std::uint64_t every) { txn_sample_ = every; }

  void StartTPart();
  /// Joins the executor thread (service keeps running until Stop()).
  void JoinExecutor();
  /// Stops the service thread and releases all waiters.
  void Stop();

  /// Network intake (called by the cluster router).
  void Deliver(Message msg) { inbound_.Send(std::move(msg)); }

  /// Disables the §5.4 request/network logs (recovery becomes impossible
  /// but long streaming runs keep memory bounded). Default on.
  void set_log_recording(bool on) { log_recording_ = on; }

  /// Bounds every executor-side wait (response, credit, local storage
  /// read); must be > 0. On expiry the machine aborts with
  /// a stall diagnostic instead of hanging. Must be set before Start*().
  void set_stall_timeout(std::chrono::microseconds timeout) {
    stall_timeout_ = timeout;
  }

  // ---- Crash injection & in-run recovery (§5.4 made live) -------------
  /// Deterministic crash-stop trigger; at most one of the fields is
  /// honoured per point. FIFO execution makes the crash point, and hence
  /// the replay, deterministic.
  struct CrashPoint {
    /// Crash once sinking round `at_epoch` has fully executed here.
    SinkEpoch at_epoch = 0;
    /// Crash once this many plans have executed (may be mid-round).
    std::uint64_t after_txns = 0;
    /// Crash the executor at startup, before any plan runs (the epoch-0
    /// edge: the machine dies before the first sink round ships).
    bool at_start = false;
    bool armed() const {
      return at_epoch != 0 || after_txns != 0 || at_start;
    }
  };
  /// Arms the next crash trigger. May be called repeatedly before
  /// StartTPart() to queue a sequence of crash points (the chaos matrix:
  /// each fires after the previous crash's recovery); an `at_start`
  /// point must be the first queued.
  void ArmCrash(CrashPoint point);

  /// Arms straggler mode: the service thread sleeps `delay_us` before
  /// processing a heartbeat, at most once per `period_us` — responses
  /// arrive near the detector deadline without ever fully stalling, so a
  /// correct detector must NOT declare this machine failed. Call before
  /// StartTPart().
  void ArmStraggler(std::uint64_t delay_us, std::uint64_t period_us);
  /// True from the crash-stop until recovery completes.
  bool crashed() const;
  std::chrono::steady_clock::time_point crash_time() const;
  /// First sinking round whose execution was lost; the cluster re-ships
  /// rounds from here after Recover().
  SinkEpoch resume_epoch() const;

  /// Rebuilds this machine in-run after a crash-stop: wipes all volatile
  /// state, restores the partition via `restore_partition` (checkpoint),
  /// runs ReplayLogs() on its own checkpoint and logs, re-delivers any
  /// traffic that arrived while down, and re-executes on a fresh executor
  /// thread with outbound traffic suppressed for replayed plans. Blocks
  /// until the replayed suffix has re-executed (the caller then re-ships
  /// lost rounds — never before, or live rounds would race the replay's
  /// credit accounting). Returns the number of replayed plans. Watchdog
  /// thread only.
  [[nodiscard]] std::size_t Recover(
      const std::function<void()>& restore_partition);
  /// Joins the executor spawned by Recover() (no-op if none). Call after
  /// the run's normal JoinExecutor() round.
  void JoinRecoveredExecutor();

  /// Sequence number of the latest kHeartbeat processed (0 before any);
  /// stalls while the machine is down — the failure detector's signal.
  std::uint64_t heartbeat_seen() const {
    return heartbeat_seen_.load(std::memory_order_acquire);
  }
  /// Plans executed so far (live + replayed).
  std::uint64_t executed_plans() const {
    return executed_plans_.load(std::memory_order_relaxed);
  }
  /// One-line snapshot of queue depths, stream progress and credit state
  /// for stall reports.
  std::string StallDiagnostic() const;
  /// Installs a cluster-level context provider whose output is appended
  /// to every StallDiagnostic() (per-link retry backlog, resend-window
  /// depth, failure-detector suspicion levels). Must be thread-safe; the
  /// cluster clears it (nullptr) before the run frame unwinds.
  void set_diagnostic_context(std::function<std::string()> context) {
    diagnostic_context_ = std::move(context);
  }

  // ---- Coordinator-term fencing (DESIGN §4j) --------------------------
  /// Highest coordinator term this machine has witnessed on any inbound
  /// message (0 before the first stamped message). Stream and migration
  /// control traffic carrying an older term is dropped — a deposed
  /// zombie leader cannot truncate or fork the new term's stream.
  std::uint64_t fence_term() const {
    return fence_term_.load(std::memory_order_acquire);
  }
  /// Stale-term control messages dropped by the fence.
  std::uint64_t fenced_messages() const {
    return fenced_messages_.load(std::memory_order_relaxed);
  }
  /// First half of the fault-path drain of a doomed run (detected
  /// failure, no recovery): from now on the executor records an empty
  /// result for each plan instead of running its procedure, because the
  /// values it gathers may be shutdown placeholders. Call it on every
  /// machine of the run before any machine's AbortPendingWaits(): a
  /// released storage read answers its remote reader with
  /// Record::Absent(), and that reader must already be draining.
  void BeginDrain() { draining_.store(true, std::memory_order_release); }
  /// Second half: BeginDrain(), then releases every blocked wait with its
  /// shutdown value so the run drains instead of hanging. The machine
  /// keeps running; results are garbage and the caller reports the
  /// failure Status.
  void AbortPendingWaits();

  // ---- Results & state ------------------------------------------------
  MachineId id() const { return id_; }
  std::vector<TxnResult> TakeResults();
  KvStore& store() { return *store_; }
  CacheArea& cache() { return cache_; }
  StorageService& storage() { return storage_; }

  // ---- Recovery logs --------------------------------------------------
  struct RequestLogEntry {
    SinkEpoch epoch;
    PlanItem item;
  };
  const std::vector<RequestLogEntry>& request_log() const {
    return request_log_;
  }
  const std::vector<Message>& network_log() const { return network_log_; }

  /// §5.4 local replay — the one routine behind both in-run Recover() and
  /// offline ReplayMachine(). In order:
  ///  1. when `checkpoint` has been captured (non-null, epoch() > 0),
  ///     restores its volatile images: results, cache area, and storage
  ///     version discipline (parked remote reads answer through SendOut);
  ///  2. queues `request_log` as replay work units, grouped by sinking
  ///     round in txn order. Replay units suppress outbound traffic,
  ///     re-logging and the commit hook;
  ///  3. calls `reopen` (when set) — Recover() flips the machine out of
  ///     kDown here, after the work is queued and before traffic flows;
  ///  4. re-injects the checkpoint's parked pulls, then `network_log`,
  ///     marked `redelivery` so they are not logged twice.
  /// The partition data is the caller's job
  /// (MachineCheckpoint::ReloadPartition); the executor must not be
  /// running. Returns the number of queued replay plans.
  std::size_t ReplayLogs(const MachineCheckpoint* checkpoint,
                         std::vector<RequestLogEntry> request_log,
                         std::vector<Message> network_log,
                         const std::function<void()>& reopen = nullptr);

  // ---- Periodic checkpointing & log truncation ------------------------
  /// Attaches the machine's durable checkpoint image and the capture
  /// cadence: every `every` sink epochs the executor pauses at a drained
  /// epoch boundary, posts a kCheckpointBarrier through its own inbound
  /// queue, and the service thread captures `image` when it dispatches
  /// the barrier — at that point every earlier logged message is fully
  /// applied, so both §5.4 logs truncate to empty and subsequent traffic
  /// forms the replay suffix. `every` = 0 disables periodic captures
  /// (the image still serves as the load-time checkpoint). T-Part only.
  /// Call before StartTPart().
  void ConfigureCheckpoint(MachineCheckpoint* image, SinkEpoch every);

  /// High-water byte sizes of the §5.4 logs — the log-growth signal
  /// checkpoint truncation exists to bound.
  std::size_t request_log_bytes_peak() const;
  std::size_t network_log_bytes_peak() const;

  // ---- Elastic migration (src/elastic) --------------------------------
  /// Per-machine migration counters; the cluster merges them into
  /// MigrationStats.
  struct MigrationCounters {
    std::uint64_t keys_moved_out = 0;
    std::uint64_t keys_moved_in = 0;
    std::uint64_t records_moved = 0;
    std::uint64_t bytes_shipped = 0;
    std::uint64_t chunks_shipped = 0;
    std::uint64_t duplicate_chunks_dropped = 0;
    std::uint64_t images_sent = 0;
    std::uint64_t images_installed = 0;
  };

  /// Migration-barrier quiesce: blocks until every disseminated round has
  /// fully executed here (all epoch credits released — this also rides
  /// out a crash + recovery + re-ship cycle, whose re-executed rounds
  /// release the stuck credits). kUnavailable on timeout.
  [[nodiscard]] Status WaitStreamDrained(std::chrono::microseconds timeout);

  /// Posts a local kServiceFence through the inbound queue (never via the
  /// transport — it is not a wire message) and blocks until the service
  /// thread dispatches it; every message delivered before the call has
  /// then been fully applied. kUnavailable on timeout.
  [[nodiscard]] Status FenceService(std::chrono::microseconds timeout);

  /// Control-plane checkpoint at the migration cut: captures the attached
  /// checkpoint image at `epoch` exactly like a cadence capture,
  /// truncating both §5.4 logs — so a later crash can never replay
  /// pre-cut traffic that resurrects moved-away keys. Call only while the
  /// machine is quiescent (stream drained + service fenced) and live;
  /// requires ConfigureCheckpoint.
  void ForceCheckpoint(SinkEpoch epoch);

  /// True once this machine, as migration source for `stream`, captured
  /// and shipped its partition image and dropped the moved keys.
  bool MigrationSourceDone(std::uint64_t stream) const;
  /// True once this machine, as migration target for `stream`, verified
  /// the image checksum and installed every entry.
  bool MigrationInstalled(std::uint64_t stream) const;
  MigrationCounters migration_counters() const;

 private:
  struct EpochWork {
    SinkEpoch epoch = 0;
    std::vector<PlanItem> items;
  };

  /// Machine lifecycle for crash injection. kDown: the service thread
  /// stashes (does not process) inbound traffic and the executor has
  /// exited. kRecovering: processing resumed; genuinely new traffic is
  /// logged again (a later crash must be able to replay it), while
  /// messages re-injected from the logs carry Message::redelivery and
  /// are not logged twice.
  enum class RunState { kLive, kDown, kRecovering };

  /// `initial` is true only for the StartTPart() executor; an `at_start`
  /// crash point fires there, never in a recovery executor.
  void TPartWorkerLoop(bool initial);
  void ServiceLoop();
  void Dispatch(Message msg);
  void ExecutePlan(SinkEpoch epoch, const PlanItem& item, bool is_replay);
  /// Releases every blocked wait (cache, storage, responses, credits) with
  /// its shutdown value; Stop() and AbortPendingWaits() share it.
  void ReleaseWaits();
  void SendOut(MachineId to, Message msg);
  /// Flushes one publish phase's staged messages through send_batch_.
  void SendOutBatch(std::vector<std::pair<MachineId, Message>>& msgs);
  void CrashStop(SinkEpoch resume);

  // Checkpoint internals: the executor fences (RunCheckpointBarrier,
  // blocking until the capture finished), the service thread captures
  // (CaptureCheckpoint, on dispatching the barrier message).
  void RunCheckpointBarrier(SinkEpoch epoch);
  void CaptureCheckpoint(SinkEpoch epoch);

  /// Appends one inbound message to the §5.4 network log (byte-counted).
  void LogNetworkMessage(const Message& msg);

  // Elastic-migration internals (service thread). Their messages are
  // never network-logged: migration state crosses machines exactly once,
  // and the post-migration forced checkpoint owns its durability.
  void HandleMigrateBegin(Message msg);
  void HandleImageChunk(Message msg);
  void HandleMigrateCommit(Message msg);
  void InstallMigration(std::uint64_t stream);

  // Streaming intake internals (service thread only, except credit
  // release which executors trigger).
  void HandleSinkPlan(Message msg);
  void EnqueueStreamEpoch(SinkEpoch epoch, std::vector<PlanItem> items);
  /// Returns true when the round fully drained (its credit was released).
  bool OnPlanItemDone(SinkEpoch epoch);
  /// Marks one plan item of `epoch` done and returns true when the round
  /// fully drained — WITHOUT releasing the round's credit. The executor's
  /// crash-trigger path uses this to defer the release until after
  /// CrashStop: a migration barrier waking on the credit must already see
  /// the machine down, or it would start extracting the partition while
  /// recovery replay still reads it.
  bool MarkPlanItemDone(SinkEpoch epoch);
  void ReleaseEpochCredit();

  // Awaits a response delivered by the service thread for `req_id`.
  Record AwaitResponse(std::uint64_t req_id);

  MachineId id_;
  std::size_t num_machines_;
  KvStore* store_;
  const ProcedureRegistry* registry_;
  SendFn send_;
  SendBatchFn send_batch_;

  CacheArea cache_;
  StorageService storage_;
  /// Inbound message queue. Producers — peer service threads (direct
  /// transport), the network receiver, the control plane, and our own
  /// executor's self-sends — never block: it is unbounded because the
  /// direct transport delivers synchronously from peer service threads,
  /// so a bounded queue could deadlock a cycle of full machines.
  BlockingQueue<Message> inbound_;

  // Executor work queue. T-Part work is flattened to per-plan units
  // consumed in total order by the executor; `replay` marks §5.4
  // recovery re-execution (outbound suppressed, not re-logged).
  struct WorkUnit {
    SinkEpoch epoch = 0;
    PlanItem item;
    bool replay = false;
  };
  mutable std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<WorkUnit> tpart_work_;
  bool finished_enqueue_ = false;
  mutable std::mutex log_mu_;

  // Streaming intake: reliable transports may deliver rounds out of
  // order, but the executor relies on FIFO epoch order (a popped
  // plan may only await versions produced by already-popped or remote
  // plans), so rounds are reordered and enqueued strictly from 1.
  // Guarded by stream_mu_: written by the service thread, wiped and read
  // by the recovery path on the watchdog thread.
  mutable std::mutex stream_mu_;
  std::map<SinkEpoch, std::vector<PlanItem>> pending_stream_plans_;
  SinkEpoch next_stream_epoch_ = 1;
  SinkEpoch stream_final_epoch_ = 0;
  bool stream_end_seen_ = false;
  /// Rounds dropped as duplicates (re-shipments the machine had already
  /// executed or buffered).
  std::uint64_t duplicate_rounds_dropped_ = 0;
  /// After a mid-round crash, the resume round is re-shipped whole; the
  /// plans in it that were already logged (hence replayed) are skipped.
  SinkEpoch recovered_partial_epoch_ = 0;
  std::unordered_set<TxnId> recovered_partial_txns_;

  // Epoch flow-control credits: rounds disseminated but not fully
  // executed here. epoch_outstanding_ (under work_mu_) counts each
  // in-flight round's unfinished plans; the credit window is its own
  // lock so executors releasing never contend with intake.
  std::unordered_map<SinkEpoch, std::size_t> epoch_outstanding_;
  std::size_t epoch_queue_capacity_ = 4;
  mutable std::mutex credit_mu_;
  std::condition_variable credit_cv_;
  std::size_t epochs_in_flight_ = 0;
  std::size_t epoch_high_water_ = 0;
  bool credit_shutdown_ = false;

  std::function<void(TxnId)> commit_hook_;

  // Request/response plumbing for remote pulls & storage reads.
  std::mutex resp_mu_;
  std::condition_variable resp_cv_;
  std::unordered_map<std::uint64_t, Record> responses_;
  bool resp_shutdown_ = false;

  // Parked remote cache pulls: (key, version) -> pending requests.
  // Guarded by stream_mu_ (service thread + recovery wipe).
  std::map<std::pair<ObjectKey, TxnId>, std::vector<Message>> parked_pulls_;

  std::vector<TxnResult> results_;
  std::mutex results_mu_;

  // §5.4 logs; log_mu_ guards both (executor appends request entries,
  // the service thread appends network entries, recovery reads both,
  // checkpoint capture truncates both). Byte counters track the live
  // footprint; peaks survive truncation.
  std::vector<RequestLogEntry> request_log_;
  std::vector<Message> network_log_;
  bool log_recording_ = true;
  std::size_t request_log_bytes_ = 0;
  std::size_t network_log_bytes_ = 0;
  std::size_t request_log_bytes_peak_ = 0;
  std::size_t network_log_bytes_peak_ = 0;

  // ---- Periodic checkpointing -----------------------------------------
  MachineCheckpoint* checkpoint_ = nullptr;
  SinkEpoch checkpoint_every_ = 0;
  SinkEpoch next_checkpoint_epoch_ = 0;
  // Barrier handshake between the executor (waits) and the service
  // thread (captures, then signals).
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_waiting_ = false;
  bool ckpt_done_ = false;
  SinkEpoch ckpt_epoch_ = 0;

  // ---- Crash / recovery state -----------------------------------------
  // run_state_ is an atomic for lock-free reads on hot paths but is only
  // *written* under crash_mu_, so the service thread's stash-or-dispatch
  // decision (taken under crash_mu_) can never race a state flip — no
  // message is ever stranded in the stash after recovery reopens the
  // machine.
  std::atomic<RunState> run_state_{RunState::kLive};
  mutable std::mutex crash_mu_;
  std::condition_variable crash_cv_;
  /// Queued crash points, fired front-to-back (CrashStop pops the front
  /// and re-arms when more remain — the chaos matrix's repeat crashes).
  std::deque<CrashPoint> crash_points_;
  std::atomic<bool> crash_armed_{false};
  std::chrono::steady_clock::time_point crash_time_{};
  SinkEpoch resume_epoch_ = 0;
  /// Traffic received while down; crash-stop semantics say these were
  /// never received — re-injecting them at recovery models the peers'
  /// reliable transport retransmitting. Guarded by crash_mu_.
  std::vector<Message> down_stash_;
  /// Replayed plans not yet re-executed; recovery completes (state back
  /// to kLive) when it hits zero.
  std::atomic<std::size_t> replay_remaining_{0};
  std::thread recovery_executor_;

  // ---- Elastic migration state ----------------------------------------
  // Inbound image assembly, keyed by migration stream id. Chunks may
  // arrive out of order and the commit may overtake trailing chunks on a
  // faulty transport; installation fires from whichever message completes
  // the set.
  struct InboundImage {
    std::map<std::uint64_t, std::string> chunks;  // by chunk index
    bool commit_seen = false;
    std::uint64_t expect_chunks = 0;
    std::uint64_t expect_entries = 0;
    std::uint32_t checksum = 0;
  };
  mutable std::mutex migrate_mu_;
  std::unordered_map<std::uint64_t, InboundImage> inbound_images_;
  std::unordered_set<std::uint64_t> migration_source_done_;
  std::unordered_set<std::uint64_t> migration_installed_;
  MigrationCounters migration_counters_;

  // Service-fence handshake (FenceService <-> service thread).
  mutable std::mutex fence_mu_;
  std::condition_variable fence_cv_;
  std::uint64_t fence_posted_ = 0;
  std::uint64_t fence_seen_ = 0;

  // Straggler mode (service thread only): sleep before a heartbeat, at
  // most once per period, so responses skirt the detector deadline.
  std::uint64_t straggle_delay_us_ = 0;
  std::uint64_t straggle_period_us_ = 0;
  std::chrono::steady_clock::time_point last_straggle_{};

  std::atomic<std::uint64_t> heartbeat_seen_{0};
  std::atomic<std::uint64_t> executed_plans_{0};
  // Coordinator-term fence (DESIGN §4j): highest term witnessed on any
  // inbound message, and the count of stale-term control messages
  // dropped. Monotonic knowledge — recovery deliberately leaves it
  // intact (a rebuilt machine must keep rejecting its deposed leader).
  std::atomic<std::uint64_t> fence_term_{0};
  std::atomic<std::uint64_t> fenced_messages_{0};
  /// Cluster-supplied extra diagnostics (link backlog, resend-window
  /// depth, suspicion levels) appended to StallDiagnostic().
  std::function<std::string()> diagnostic_context_;
  /// Timeline sampling stride (set_txn_sample); read on the execute path.
  std::uint64_t txn_sample_ = 0;
  std::chrono::microseconds stall_timeout_{120'000'000};
  /// Set by BeginDrain(): the run was declared failed. Executors
  /// drain their queues without running procedures (gathered values are
  /// shutdown placeholders, not real records).
  std::atomic<bool> draining_{false};

  std::thread executor_;
  std::thread service_;
  std::atomic<bool> service_running_{false};
};

}  // namespace tpart

#endif  // TPART_RUNTIME_MACHINE_H_
