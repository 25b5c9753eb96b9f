#ifndef TPART_SCHEDULER_TPART_SCHEDULER_H_
#define TPART_SCHEDULER_TPART_SCHEDULER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "elastic/elastic_map.h"
#include "partition/partitioner.h"
#include "scheduler/push_plan.h"
#include "sequencer/batch.h"
#include "storage/data_partition.h"
#include "tgraph/tgraph.h"

namespace tpart {

/// The T-Part scheduler (§3): consumes the totally ordered request
/// stream, maintains the T-graph, continuously (re)partitions it, and
/// periodically sinks the earliest transactions into push plans.
///
/// Every scheduler in a cluster runs the same code over the same total
/// order, so all schedulers emit identical plans without communicating
/// (§3.3); each machine then executes only its own slice of each plan.
class TPartScheduler {
 public:
  struct Options {
    /// Sinking trigger (§3.3). A sink fires whenever the number of unsunk
    /// transactions reaches 2 * sink_size, sinking the earliest
    /// sink_size; the unsunk window thus oscillates in
    /// [sink_size, 2 * sink_size) (Fig. 4(c): "normally, the number of
    /// unsunk transactions ... is under 200" with sink size 100).
    std::size_t sink_size = 100;
    /// T-graph modelling options (weights, principles, G-Store mode).
    TGraph::Options graph;
    /// Apply the §4.3 plan optimisation after each sinking round.
    bool optimize_plans = true;
    /// Elastic membership: when set, the scheduler owns advancing this
    /// map through its registered MembershipSteps. The step with
    /// cut_epoch E is applied at the top of sink round E + 1 — i.e.
    /// rounds 1..E address the old membership, rounds E+1.. the new one —
    /// by filling hot-key overrides (kHotKey policy), publishing the new
    /// map version, and re-homing the T-graph. Since every scheduler in
    /// the cluster sees the same total order and the same schedule, all
    /// of them flip at the same round and keep emitting identical plans.
    std::shared_ptr<ElasticPartitionMap> elastic;
    /// Track per-key access counts even with no pending hot-key
    /// migration step (the live sampler's hot-key gauge reads them via
    /// HottestKey()). Off by default: the hash traffic is per access.
    bool track_key_frequencies = false;
  };

  /// `partitioner` defaults to the streaming greedy of Algorithm 1 when
  /// null.
  TPartScheduler(Options options,
                 std::shared_ptr<const DataPartitionMap> data_map,
                 std::shared_ptr<GraphPartitioner> partitioner = nullptr);

  /// Feeds one sequenced transaction; returns any plans produced by sink
  /// rounds it triggered.
  std::vector<SinkPlan> OnTxn(const TxnSpec& spec);

  /// Feeds a whole ordered batch.
  std::vector<SinkPlan> OnBatch(const TxnBatch& batch);

  /// Sinks everything still unsunk (end of stream), in sink_size rounds.
  std::vector<SinkPlan> Drain();

  const TGraph& graph() const { return graph_; }
  TGraph& mutable_graph() { return graph_; }
  const Options& options() const { return options_; }

  // --- Statistics -----------------------------------------------------
  std::uint64_t num_sink_rounds() const { return next_epoch_ - 1; }
  std::uint64_t num_pushes_eliminated() const { return pushes_eliminated_; }
  /// Wall-clock seconds spent partitioning + sinking (the Fig. 7
  /// "Schedule" component and the §5.1 timing claim).
  double scheduling_seconds() const { return scheduling_seconds_; }
  /// Peak unsunk T-graph size observed (Fig. 4(c)).
  std::size_t max_tgraph_size() const { return max_tgraph_size_; }
  /// The most-accessed key so far and its share of all tracked accesses
  /// (ties break toward the smaller key, so the answer is deterministic).
  /// {0, 0.0} until frequency tracking has seen an access — enabled by a
  /// pending hot-key migration step or track_key_frequencies.
  std::pair<ObjectKey, double> HottestKey() const;

 private:
  std::vector<SinkPlan> MaybeSink();
  SinkPlan SinkRound(std::size_t count);
  void MaybeApplyMembershipStep();
  void TrackFrequencies(const TxnSpec& spec);

  Options options_;
  TGraph graph_;
  std::shared_ptr<GraphPartitioner> partitioner_;
  SinkEpoch next_epoch_ = 1;
  std::uint64_t pushes_eliminated_ = 0;
  double scheduling_seconds_ = 0.0;
  std::size_t max_tgraph_size_ = 0;
  std::size_t applied_steps_ = 0;
  /// Access counts per key, fed from the total order — the hot-key
  /// migration policy's input. Deterministic across schedulers because
  /// the stream is.
  std::unordered_map<ObjectKey, std::uint64_t> key_freq_;
};

}  // namespace tpart

#endif  // TPART_SCHEDULER_TPART_SCHEDULER_H_
