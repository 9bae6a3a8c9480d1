#include "engine/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace triq {

namespace {

constexpr char kJournalMagic[8] = {'T', 'R', 'I', 'Q', 'J', 'R', 'N', 'L'};
constexpr char kCkptMagic[8] = {'T', 'R', 'I', 'Q', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;
// magic + version + epoch.
constexpr size_t kHeaderSize = 8 + 4 + 8;

void PutU32(std::string* out, uint32_t v) {
  const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                     static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::DataLoss(what + " " + path + ": " + std::strerror(errno));
}

/// Reads a whole file; returns false only when it does not exist.
Result<bool> ReadFile(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    return IoError("cannot open", path);
  }
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return IoError("cannot read", path);
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

std::string JournalHeader(uint64_t epoch) {
  std::string header(kJournalMagic, sizeof(kJournalMagic));
  PutU32(&header, kVersion);
  PutU64(&header, epoch);
  return header;
}

/// Parses record frames from `bytes` starting after the header. Stops
/// at the first torn/corrupt frame; `*valid_end` is the offset of the
/// last frame that checked out.
void ParseRecords(const std::string& bytes, std::vector<Journal::Record>* out,
                  size_t* valid_end) {
  size_t pos = kHeaderSize;
  *valid_end = pos;
  while (pos + 8 <= bytes.size()) {
    const uint32_t len = GetU32(bytes.data() + pos);
    const uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (len < 1 || pos + 8 + len > bytes.size()) return;  // torn frame
    const char* payload = bytes.data() + pos + 8;
    if (Crc32(payload, len) != crc) return;  // bit rot / torn write
    Journal::Record record;
    record.op = static_cast<Journal::Op>(static_cast<uint8_t>(payload[0]));
    size_t field_pos = 1;
    bool well_formed = true;
    while (field_pos < len) {
      if (field_pos + 4 > len) {
        well_formed = false;
        break;
      }
      const uint32_t field_len = GetU32(payload + field_pos);
      field_pos += 4;
      if (field_pos + field_len > len) {
        well_formed = false;
        break;
      }
      record.fields.emplace_back(payload + field_pos, field_len);
      field_pos += field_len;
    }
    // A CRC-valid but structurally broken frame means a buggy writer;
    // treat it like a tear — replaying garbage is worse than stopping.
    if (!well_formed) return;
    out->push_back(std::move(record));
    pos += 8 + len;
    *valid_end = pos;
  }
}

Status LoadCheckpoint(const std::string& ckpt_path, Journal::Recovery* out,
                      uint64_t* epoch) {
  std::string bytes;
  TRIQ_ASSIGN_OR_RETURN(bool exists, ReadFile(ckpt_path, &bytes));
  *epoch = 0;
  if (!exists) return Status::OK();
  // magic + version + epoch + materialized + rules_len + blob_len + crc.
  constexpr size_t kMin = 8 + 4 + 8 + 4 + 4 + 4 + 4;
  if (bytes.size() < kMin ||
      std::memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::DataLoss("journal checkpoint " + ckpt_path +
                            ": bad magic or truncated");
  }
  const size_t body = bytes.size() - 4;
  if (Crc32(bytes.data(), body) != GetU32(bytes.data() + body)) {
    return Status::DataLoss("journal checkpoint " + ckpt_path +
                            ": checksum mismatch");
  }
  size_t pos = 8;
  const uint32_t version = GetU32(bytes.data() + pos);
  pos += 4;
  if (version != kVersion) {
    return Status::DataLoss("journal checkpoint " + ckpt_path +
                            ": unsupported version");
  }
  *epoch = GetU64(bytes.data() + pos);
  pos += 8;
  out->checkpoint_materialized = GetU32(bytes.data() + pos) != 0;
  pos += 4;
  const uint32_t rules_len = GetU32(bytes.data() + pos);
  pos += 4;
  if (rules_len > body - pos - 4) {
    return Status::DataLoss("journal checkpoint " + ckpt_path +
                            ": rules length out of range");
  }
  out->checkpoint_rules.assign(bytes.data() + pos, rules_len);
  pos += rules_len;
  const uint32_t blob_len = GetU32(bytes.data() + pos);
  pos += 4;
  if (blob_len != body - pos) {
    return Status::DataLoss("journal checkpoint " + ckpt_path +
                            ": blob length out of range");
  }
  out->checkpoint_blob.assign(bytes.data() + pos, blob_len);
  out->has_checkpoint = true;
  return Status::OK();
}

}  // namespace

Journal::Journal(std::string path, int fd, uint64_t epoch, uint64_t end_offset,
                 JournalFsync fsync, size_t batch_interval)
    : path_(std::move(path)),
      fd_(fd),
      epoch_(epoch),
      end_offset_(end_offset),
      fsync_(fsync),
      batch_interval_(batch_interval == 0 ? 1 : batch_interval) {}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<Journal>> Journal::Open(const std::string& path,
                                               JournalFsync fsync,
                                               size_t batch_interval,
                                               Recovery* recovery) {
  *recovery = Recovery{};
  uint64_t ckpt_epoch = 0;
  TRIQ_RETURN_IF_ERROR(LoadCheckpoint(path + ".ckpt", recovery, &ckpt_epoch));

  std::string bytes;
  TRIQ_ASSIGN_OR_RETURN(bool exists, ReadFile(path, &bytes));
  (void)exists;

  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot open", path);
  auto journal = std::unique_ptr<Journal>(
      new Journal(path, fd, ckpt_epoch, kHeaderSize, fsync, batch_interval));
  // Uncontended: the journal is not shared until Open returns, but the
  // analysis (rightly) wants the file state touched under its lock.
  MutexLock lock(journal->mu_);

  // Decide what the on-disk tail means. A torn header only happens when
  // a crash interrupted file creation or a checkpoint reset — both
  // leave no live records — so it resets cleanly to the checkpoint
  // epoch.
  bool reset = false;
  uint64_t journal_epoch = ckpt_epoch;
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0 ||
      GetU32(bytes.data() + 8) != kVersion) {
    recovery->truncated_bytes += bytes.size();
    reset = true;
  } else {
    journal_epoch = GetU64(bytes.data() + 12);
    if (journal_epoch == ckpt_epoch) {
      size_t valid_end = kHeaderSize;
      ParseRecords(bytes, &recovery->records, &valid_end);
      recovery->truncated_bytes += bytes.size() - valid_end;
      if (valid_end < bytes.size()) {
        if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
          return IoError("cannot truncate", path);
        }
      }
      journal->end_offset_ = valid_end;
    } else if (journal_epoch + 1 == ckpt_epoch) {
      // Crash between the checkpoint rename and the journal reset: the
      // checkpoint already contains everything these records applied.
      std::vector<Record> stale;
      size_t valid_end = kHeaderSize;
      ParseRecords(bytes, &stale, &valid_end);
      recovery->stale_records_dropped = stale.size();
      reset = true;
    } else {
      return Status::DataLoss(
          "journal " + path + " (epoch " + std::to_string(journal_epoch) +
          ") does not match its checkpoint (epoch " +
          std::to_string(ckpt_epoch) + "); was the .ckpt file replaced?");
    }
  }

  if (reset) {
    if (::ftruncate(fd, 0) != 0) return IoError("cannot truncate", path);
    if (::lseek(fd, 0, SEEK_SET) < 0) return IoError("cannot seek", path);
    const std::string header = JournalHeader(ckpt_epoch);
    TRIQ_RETURN_IF_ERROR(journal->WriteAll(header.data(), header.size()));
    if (::fsync(fd) != 0) return IoError("cannot fsync", path);
  } else if (::lseek(fd, 0, SEEK_END) < 0) {
    return IoError("cannot seek", path);
  }
  return journal;
}

Status Journal::WriteAll(const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("cannot write", path_);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Journal::CheckLength(uint64_t size, const char* what) {
  if (size <= UINT32_MAX) return Status::OK();
  return Status::InvalidArgument(std::string("journal ") + what + " of " +
                                 std::to_string(size) +
                                 " bytes exceeds the 4 GiB format limit");
}

Status Journal::Append(Op op, const std::vector<std::string>& fields) {
  // The payload's length bounds every field's, so one check covers the
  // frame and its fields.
  uint64_t payload_size = 1;
  for (const std::string& field : fields) payload_size += 4 + field.size();
  TRIQ_RETURN_IF_ERROR(CheckLength(payload_size, "record"));
  std::string payload(1, static_cast<char>(op));
  for (const std::string& field : fields) {
    PutU32(&payload, static_cast<uint32_t>(field.size()));
    payload += field;
  }
  std::string frame;
  frame.reserve(payload.size() + 8);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;

  MutexLock lock(mu_);
  if (broken_) {
    return Status::DataLoss("journal " + path_ +
                            ": broken by an earlier failed append");
  }
  // Torn-write injection: half the frame reaches the disk, exactly what
  // a crash mid-append leaves behind. The short variant reports the
  // error (and the tail is rewound like any failed append); the crash
  // variant *is* the crash (recovery tests fork first).
  if (FailpointHit("journal.write.short")) {
    TRIQ_IGNORE_STATUS(WriteAll(frame.data(), frame.size() / 2));
    return AbandonAppend(Status::DataLoss(
        "failpoint journal.write.short: torn append to " + path_));
  }
  if (FailpointHit("journal.write.crash")) {
    TRIQ_IGNORE_STATUS(WriteAll(frame.data(), frame.size() / 2));
    (void)::fsync(fd_);
    std::_Exit(42);
  }
  Status written = WriteAll(frame.data(), frame.size());
  if (!written.ok()) return AbandonAppend(std::move(written));
  end_offset_ += frame.size();
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (FailpointHit("journal.sync.crash")) {
    (void)::fsync(fd_);
    std::_Exit(42);
  }
  if (fsync_ == JournalFsync::kAlways) return SyncLocked();
  if (fsync_ == JournalFsync::kBatch &&
      ++appends_since_sync_ >= batch_interval_) {
    return SyncLocked();
  }
  return Status::OK();
}

Status Journal::AbandonAppend(Status status) {
  // The torn frame would otherwise sit at the tail and hide every later
  // append from replay (recovery stops at the first bad frame).
  if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(end_offset_), SEEK_SET) < 0) {
    broken_ = true;
  }
  return status;
}

Status Journal::Sync() {
  MutexLock lock(mu_);
  return SyncLocked();
}

Status Journal::SyncLocked() {
  TRIQ_FAILPOINT_RETURN(
      "journal.fsync.fail",
      Status::DataLoss("failpoint journal.fsync.fail: fsync of " + path_ +
                       " failed"));
  if (::fsync(fd_) != 0) return IoError("cannot fsync", path_);
  appends_since_sync_ = 0;
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Journal::Checkpoint(const std::string& rules, const std::string& blob,
                           bool materialized) {
  TRIQ_RETURN_IF_ERROR(CheckLength(rules.size(), "checkpoint rules"));
  TRIQ_RETURN_IF_ERROR(CheckLength(blob.size(), "checkpoint blob"));
  MutexLock lock(mu_);
  // The caller journals the triggering record before calling this, so a
  // crash anywhere in here recovers to a correct state: before the
  // rename, the old checkpoint + full journal replay; after it, the new
  // checkpoint (the epoch mismatch discards the now-stale records).
  std::string image(kCkptMagic, sizeof(kCkptMagic));
  PutU32(&image, kVersion);
  PutU64(&image, epoch_ + 1);
  PutU32(&image, materialized ? 1 : 0);
  PutU32(&image, static_cast<uint32_t>(rules.size()));
  image += rules;
  PutU32(&image, static_cast<uint32_t>(blob.size()));
  image += blob;
  PutU32(&image, Crc32(image.data(), image.size()));

  const std::string ckpt_path = path_ + ".ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  int tmp_fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return IoError("cannot open", tmp_path);
  if (FailpointHit("journal.checkpoint.crash")) {
    // Torn tmp file: never renamed, so recovery ignores it entirely.
    (void)::write(tmp_fd, image.data(), image.size() / 2);
    (void)::fsync(tmp_fd);
    std::_Exit(42);
  }
  size_t written = 0;
  while (written < image.size()) {
    ssize_t n = ::write(tmp_fd, image.data() + written, image.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(tmp_fd);
      return IoError("cannot write", tmp_path);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(tmp_fd) != 0) {
    ::close(tmp_fd);
    return IoError("cannot fsync", tmp_path);
  }
  ::close(tmp_fd);
  if (::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    return IoError("cannot rename", tmp_path);
  }
  if (FailpointHit("journal.reset.crash")) std::_Exit(42);

  // Reset the journal to the new epoch. Always synced: the checkpoint
  // claims durability for everything before it.
  if (::ftruncate(fd_, 0) != 0) return IoError("cannot truncate", path_);
  if (::lseek(fd_, 0, SEEK_SET) < 0) return IoError("cannot seek", path_);
  ++epoch_;
  const std::string header = JournalHeader(epoch_);
  TRIQ_RETURN_IF_ERROR(WriteAll(header.data(), header.size()));
  if (::fsync(fd_) != 0) return IoError("cannot fsync", path_);
  end_offset_ = kHeaderSize;
  appends_since_sync_ = 0;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

JournalStats Journal::stats() const {
  JournalStats out;
  out.records_appended = records_appended_.load(std::memory_order_relaxed);
  out.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  out.syncs = syncs_.load(std::memory_order_relaxed);
  out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace triq
