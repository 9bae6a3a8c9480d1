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
/// On-disk layout (one file):
///   header: magic "TRIQJRNL", u32 version (2), u64 image_end
///   records: [u32 payload_len][u32 crc32(payload)][payload]
///   payload: u8 op, then per field u32 length + bytes
/// All integers little-endian. The records before offset `image_end`
/// are the image the last checkpoint wrote; the tail after it holds the
/// records appended since. Recovery reads both in order and truncates
/// the file at the first torn or checksum-failing tail record: a crash
/// mid-append loses at most the record being written (which never
/// applied — the append happens first). A bad record inside the image
/// is DataLoss, never a truncation: the image was fsynced before the
/// rename that installed it, so its damage is bit rot.
///
/// Checkpointing (compaction): Checkpoint() rewrites the whole file as
/// a header plus the image records, framed exactly as Append frames
/// them: it writes `<path>.ckpt.tmp`, fsyncs it, renames it over
/// `<path>` and fsyncs the directory. The rename is the one commit
/// point: a crash before it leaves the old file, a crash after it the
/// new one, and either replays to the same session. A fresh journal is
/// installed the same way with an empty image, so `<path>` never holds
/// a partial header.
///
/// Failpoints (see common/failpoint.h): "journal.write.short" (torn
/// append, error return), "journal.write.crash" (torn append, _Exit),
/// "journal.sync.crash" (_Exit after a durable append),
/// "journal.fsync.fail" (fsync error), "journal.checkpoint.crash"
/// (_Exit with a torn tmp file, before the rename),
/// "journal.reset.crash" (_Exit right after the rename). Writing a
/// checkpoint's image evaluates no append failpoint, and installing a
/// fresh journal evaluates none at all, so each op of a workload meets
/// each crash point at most once.
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

  /// Everything recovery found: the records to replay, the image's
  /// first and then the tail's, in append order. `truncated_bytes`
  /// counts torn bytes dropped from the tail.
  struct Recovery {
    std::vector<Record> records;
    uint64_t truncated_bytes = 0;
  };

  /// Opens the journal at `path`, truncates its tail at the first
  /// corrupt record, and returns it positioned for appending. An absent
  /// or empty file becomes a fresh journal. Any other file that does
  /// not begin with a complete version-2 header, and any damage inside
  /// the image, fails with DataLoss naming the path and leaves the file
  /// byte-identical.
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

  /// Atomically replaces the file with `image` and an empty tail (see
  /// the class comment); appends then go to the new file. Always
  /// fsynced. A record too long for its u32 length field is refused
  /// with InvalidArgument, and the old file stays as it was.
  Status Checkpoint(const std::vector<Record>& image);

  /// The one length check of the format: OK when `size` bytes fit a u32
  /// length field, else InvalidArgument naming `what`. Append and
  /// Checkpoint run it on every record before they write anything.
  static Status CheckLength(uint64_t size, const char* what);

  JournalStats stats() const;
  const std::string& path() const { return path_; }

 private:
  Journal(std::string path, JournalFsync fsync, size_t batch_interval);

  /// Writes `file` (a header and its image) to `<path>.ckpt.tmp`,
  /// fsyncs it, renames it over `<path>`, adopts it for appending and
  /// fsyncs the directory. `checkpoint` arms the two checkpoint crash
  /// failpoints.
  Status Install(const std::string& file, bool checkpoint) TRIQ_REQUIRES(mu_);
  /// Rewinds a failed append's torn tail; marks the journal broken when
  /// even that fails. Returns `status` for tail-call convenience.
  Status AbandonAppend(Status status) TRIQ_REQUIRES(mu_);
  /// Sync() body for callers already holding mu_ (the Append policies).
  Status SyncLocked() TRIQ_REQUIRES(mu_);

  std::string path_;
  mutable Mutex mu_;
  int fd_ TRIQ_GUARDED_BY(mu_) = -1;
  // File offset just past the last good record.
  uint64_t end_offset_ TRIQ_GUARDED_BY(mu_) = 0;
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
