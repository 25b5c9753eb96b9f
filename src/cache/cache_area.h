#ifndef TPART_CACHE_CACHE_AREA_H_
#define TPART_CACHE_CACHE_AREA_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "storage/record.h"

namespace tpart {

/// The executor's key-value cache area (§3.4, §5.2), "implemented above
/// the buffer manager of the storage engine" to hold objects written by
/// earlier local transactions or pushed from remote machines.
///
/// Two of §5.2's entry families live here:
///  * version entries <obj, source txn, destination txn> — one per
///    forward-push / local hand-off, read exactly once and invalidated by
///    that read;
///  * epoch entries <obj, sink#> (here additionally tagged with the
///    version txn) — published for transactions sunk in later rounds,
///    freed after all planned reads have been served.
/// The third, sticky entries serving "immediate storage reads after
/// write", is kept at the record's home by StorageService (has_sticky /
/// sticky_expire per key).
///
/// Internally synchronized: local executor threads and the network
/// receiver both touch it, and readers block until the wanted version
/// materialises — this *is* the version-based deterministic concurrency
/// control ("the transaction stalls if the object is not available in
/// memory yet", §3.4).
class CacheArea {
 public:
  /// Stores a version entry <key, version, dst> and wakes waiters.
  void PutVersion(ObjectKey key, TxnId version, TxnId dst, Record value);

  /// Blocks until entry <key, version, dst> exists, then consumes it.
  /// Returns nullopt only after Shutdown().
  std::optional<Record> AwaitVersion(ObjectKey key, TxnId version, TxnId dst);

  /// Non-blocking probe of a version entry (does not consume).
  bool HasVersion(ObjectKey key, TxnId version, TxnId dst) const;

  /// Publishes epoch entry <key, version> (the paper's <obj, sink#>).
  void PublishEpochEntry(ObjectKey key, TxnId version, SinkEpoch epoch,
                         Record value);

  /// Blocks until epoch entry <key, version> exists and serves one read.
  /// When `invalidate` is set, this read also announces the entry's final
  /// read count `total_reads`; the entry is freed once that many reads
  /// (including earlier and still-outstanding ones) have been served.
  /// Returns nullopt only after Shutdown().
  std::optional<Record> AwaitEpochEntry(ObjectKey key, TxnId version,
                                        bool invalidate,
                                        std::uint32_t total_reads);

  /// Non-blocking variant for service threads (remote pulls are parked by
  /// the machine until the entry appears). Serves one read when present.
  std::optional<Record> TryEpochEntry(ObjectKey key, TxnId version,
                                      bool invalidate,
                                      std::uint32_t total_reads);

  /// Releases every blocked reader (they observe nullopt). Used on
  /// machine shutdown / simulated failure.
  void Shutdown();

  /// Crash-recovery wipe: drops all entries (a crash loses the volatile
  /// cache area) and re-opens the cache after a Shutdown(). The peak
  /// counter is deliberately kept.
  void Reset();

  /// Checkpoint image of the cache: every live version and epoch entry,
  /// in deterministic (key-sorted) order. Captured at a quiescent
  /// epoch boundary so a truncated-log replay can resume with exactly the
  /// entries the suffix expects to find.
  struct Image {
    struct VersionEntryImage {
      ObjectKey key;
      TxnId version;
      TxnId dst;
      Record value;
    };
    struct EpochEntryImage {
      ObjectKey key;
      TxnId version;
      Record value;
      SinkEpoch epoch;
      std::uint32_t reads_served;
      std::uint32_t total_reads;
    };
    std::vector<VersionEntryImage> versions;
    std::vector<EpochEntryImage> epochs;
  };

  /// Copies the full live state into an Image (caller must ensure no
  /// concurrent blocked readers are relying on entries being consumed —
  /// i.e. capture only at a drained epoch boundary).
  Image Capture() const;

  /// Replaces the cache contents with `image` and re-opens the cache.
  /// The peak counter is kept, mirroring Reset().
  void Restore(const Image& image);

  // --- Introspection ---------------------------------------------------
  std::size_t num_version_entries() const;
  std::size_t num_epoch_entries() const;
  /// High-water mark of live (version + epoch) entries; the §5.2 claim is
  /// that this stays proportional to the assigned working set.
  std::size_t peak_entries() const { return peak_entries_; }

 private:
  struct EpochEntry {
    Record value;
    SinkEpoch epoch = 0;
    std::uint32_t reads_served = 0;
    // 0 until the invalidating read announces the total.
    std::uint32_t total_reads = 0;
  };

  void NotePeakLocked() {
    const std::size_t live = versions_.size() + epochs_.size();
    if (live > peak_entries_) peak_entries_ = live;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;

  // Open-addressing tables (common/flat_map.h): entry churn on the
  // executor hot path stops allocating a tree node per entry. Capture()
  // sorts its output, preserving the deterministic checkpoint image the
  // ordered maps used to provide.
  FlatMap<std::tuple<ObjectKey, TxnId, TxnId>, Record> versions_;
  FlatMap<std::pair<ObjectKey, TxnId>, EpochEntry> epochs_;

  std::size_t peak_entries_ = 0;
};

}  // namespace tpart

#endif  // TPART_CACHE_CACHE_AREA_H_
