#ifndef TRIQ_ENGINE_JOURNAL_H_
#define TRIQ_ENGINE_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"

namespace triq {

/// When journal appends reach the disk (the durability/throughput
/// trade-off, as in every WAL):
///  * kNever  — rely on the OS page cache; a machine crash may lose the
///    unsynced suffix (a process crash loses nothing: writes are
///    unbuffered).
///  * kBatch  — fsync every `journal_batch_interval` appends and at
///    every checkpoint (the default).
///  * kAlways — fsync after every record.
enum class JournalFsync { kNever, kBatch, kAlways };

/// Monotonic counters of one journal's activity (snapshot copy).
struct JournalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t checkpoints = 0;
};

/// The engine's write-ahead journal: an append-only redo log of every
/// session mutation, written *before* the mutation applies, so a
/// crashed process rebuilds its pristine base bit for bit by replaying
/// the log (see Engine::Open).
///
/// On-disk layout:
///   header: magic "TRIQJRNL", u32 version, u64 epoch
///   records: [u32 payload_len][u32 crc32(payload)][payload]
///   payload: u8 op, then per field u32 length + bytes
/// All integers little-endian. Recovery scans records and truncates the
/// file at the first torn or checksum-failing one: a crash mid-append
/// loses at most the record being written (which never applied — the
/// append happens first).
///
/// Checkpointing (compaction): Checkpoint() atomically replaces
/// `<path>.ckpt` with the full session image (rules text + base fact
/// dump) via write-tmp/fsync/rename, then resets the journal to an
/// empty file of the next *epoch*. The epoch stitches the pair
/// together crash-safely: a journal one epoch behind its checkpoint is
/// the leftover of a reset interrupted between the rename and the
/// truncate, and its (pre-checkpoint) records are discarded instead of
/// replayed twice.
///
/// Failpoints (see common/failpoint.h): "journal.write.short" (torn
/// append, error return), "journal.write.crash" (torn append, _Exit),
/// "journal.sync.crash" (_Exit after a durable append),
/// "journal.fsync.fail" (fsync error), "journal.checkpoint.crash"
/// (_Exit with a torn checkpoint tmp), "journal.reset.crash" (_Exit
/// after the checkpoint rename, before the journal reset).
///
/// Thread safety: the file state is guarded by an internal mutex, so
/// Append/Sync/Checkpoint are safe to call from any thread (the engine
/// additionally serializes them under its writer mutex, so the lock is
/// uncontended in practice). stats() is lock-free.
class Journal {
 public:
  enum class Op : uint8_t {
    kAddTriple = 1,      // fields: subject, predicate, object
    kLoadTurtle = 2,     // fields: turtle text
    kLoadFactsBlob = 3,  // fields: engine-dict flag ("1"/"0"), fact-dump bytes
    kAttachRules = 4,    // fields: program text (datalog syntax)
    kMaterialize = 5,    // no fields
  };

  struct Record {
    Op op;
    std::vector<std::string> fields;
  };

  /// Everything recovery found: the latest checkpoint image (if any)
  /// and the journal-tail records to replay on top of it, in append
  /// order. `truncated_bytes` counts torn bytes dropped from the tail;
  /// `stale_records_dropped` counts pre-checkpoint records discarded by
  /// the epoch reconciliation.
  struct Recovery {
    bool has_checkpoint = false;
    bool checkpoint_materialized = false;
    std::string checkpoint_rules;
    std::string checkpoint_blob;
    std::vector<Record> records;
    uint64_t truncated_bytes = 0;
    uint64_t stale_records_dropped = 0;
  };

  /// Opens (creating if absent) the journal at `path`: loads the
  /// checkpoint, reconciles epochs, truncates the tail at the first
  /// corrupt record, and returns the journal positioned for appending.
  /// A checksum-failing checkpoint file is unrecoverable (DataLoss) —
  /// the atomic rename guarantees a crashed checkpoint write never
  /// replaces a good one, so corruption there is real bit rot.
  static Result<std::unique_ptr<Journal>> Open(const std::string& path,
                                               JournalFsync fsync,
                                               size_t batch_interval,
                                               Recovery* recovery);

  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record (unbuffered write) and applies the fsync
  /// policy. A record whose payload would not fit its u32 length field
  /// is refused with InvalidArgument before anything is written. A
  /// failed or torn append returns DataLoss. Either way the caller must
  /// not apply the mutation it was journaling. The torn tail is rewound
  /// (truncated back to the last good record) so later appends stay
  /// replayable; if even the rewind fails the journal declares itself
  /// broken and every further append returns DataLoss.
  Status Append(Op op, const std::vector<std::string>& fields);

  /// Forces an fsync regardless of policy (drain/shutdown path).
  Status Sync();

  /// Atomically installs `<path>.ckpt` = {rules, blob, materialized}
  /// and resets the journal to an empty next-epoch file (see class
  /// comment). The reset is always fsynced. Rules or a blob too long
  /// for their u32 length fields are refused with InvalidArgument, and
  /// the old checkpoint and journal stay as they were.
  Status Checkpoint(const std::string& rules, const std::string& blob,
                    bool materialized);

  /// The one length check of both formats: OK when `size` bytes fit a
  /// u32 length field, else InvalidArgument naming `what`. Append and
  /// Checkpoint run it on every length before they write anything.
  static Status CheckLength(uint64_t size, const char* what);

  JournalStats stats() const;
  const std::string& path() const { return path_; }

 private:
  Journal(std::string path, int fd, uint64_t epoch, uint64_t end_offset,
          JournalFsync fsync, size_t batch_interval);

  Status WriteAll(const char* data, size_t size) TRIQ_REQUIRES(mu_);
  /// Rewinds a failed append's torn tail; marks the journal broken when
  /// even that fails. Returns `status` for tail-call convenience.
  Status AbandonAppend(Status status) TRIQ_REQUIRES(mu_);
  /// Sync() body for callers already holding mu_ (the Append policies).
  Status SyncLocked() TRIQ_REQUIRES(mu_);

  std::string path_;
  mutable Mutex mu_;
  int fd_ TRIQ_GUARDED_BY(mu_);
  uint64_t epoch_ TRIQ_GUARDED_BY(mu_);
  // File offset just past the last good record.
  uint64_t end_offset_ TRIQ_GUARDED_BY(mu_);
  bool broken_ TRIQ_GUARDED_BY(mu_) = false;
  JournalFsync fsync_;
  size_t batch_interval_;
  size_t appends_since_sync_ TRIQ_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

}  // namespace triq

#endif  // TRIQ_ENGINE_JOURNAL_H_
