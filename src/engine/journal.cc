#include "engine/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace triq {

namespace {

constexpr char kJournalMagic[8] = {'T', 'R', 'I', 'Q', 'J', 'R', 'N', 'L'};
constexpr uint32_t kVersion = 2;
// magic + version + image_end.
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

/// Reads a whole file; an absent file reads as empty.
Status ReadFile(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();
    return IoError("cannot open", path);
  }
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      Status status = IoError("cannot read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status WriteAll(int fd, const std::string& path, const char* data,
                size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("cannot write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// The header of a file whose image ends at offset `image_end`.
std::string Header(uint64_t image_end) {
  std::string header(kJournalMagic, sizeof(kJournalMagic));
  PutU32(&header, kVersion);
  PutU64(&header, image_end);
  return header;
}

/// Appends one record's frame to `out`: Append writes one, Checkpoint
/// writes an image of them.
Status AppendFrame(Journal::Op op, const std::vector<std::string>& fields,
                   std::string* out) {
  // The payload's length bounds every field's, so one check covers the
  // frame and its fields.
  uint64_t payload_size = 1;
  for (const std::string& field : fields) payload_size += 4 + field.size();
  TRIQ_RETURN_IF_ERROR(Journal::CheckLength(payload_size, "record"));
  out->reserve(out->size() + 8 + payload_size);
  PutU32(out, static_cast<uint32_t>(payload_size));
  const size_t crc_at = out->size();
  PutU32(out, 0);  // the payload's CRC, filled in below
  out->push_back(static_cast<char>(op));
  for (const std::string& field : fields) {
    PutU32(out, static_cast<uint32_t>(field.size()));
    *out += field;
  }
  std::string crc;
  PutU32(&crc, Crc32(out->data() + crc_at + 4, payload_size));
  out->replace(crc_at, 4, crc);
  return Status::OK();
}

/// Parses record frames from `bytes` starting at `pos`. Stops at the
/// first torn/corrupt frame and returns the offset just past the last
/// frame that checked out.
size_t ParseRecords(std::string_view bytes, size_t pos,
                    std::vector<Journal::Record>* out) {
  while (pos + 8 <= bytes.size()) {
    const uint32_t len = GetU32(bytes.data() + pos);
    const uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (len < 1 || len > bytes.size() - pos - 8) break;  // torn frame
    const char* payload = bytes.data() + pos + 8;
    if (Crc32(payload, len) != crc) break;  // bit rot / torn write
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
      if (field_len > len - field_pos) {
        well_formed = false;
        break;
      }
      record.fields.emplace_back(payload + field_pos, field_len);
      field_pos += field_len;
    }
    // A CRC-valid but structurally broken frame means a buggy writer;
    // treat it like a tear — replaying garbage is worse than stopping.
    if (!well_formed) break;
    out->push_back(std::move(record));
    pos += 8 + len;
  }
  return pos;
}

/// Reads the records of a journal file's bytes into `recovery` and
/// returns the offset just past the last good tail record. DataLoss,
/// and nothing read, when the bytes are not a version-2 journal or the
/// image they hold is damaged.
Result<size_t> Recover(const std::string& path, std::string_view bytes,
                       Journal::Recovery* recovery) {
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0 ||
      GetU32(bytes.data() + 8) != kVersion) {
    return Status::DataLoss("journal " + path +
                            ": not a version-2 triq journal; left unchanged");
  }
  const uint64_t image_end = GetU64(bytes.data() + 12);
  std::vector<Journal::Record> records;
  if (image_end < kHeaderSize || image_end > bytes.size() ||
      ParseRecords(bytes.substr(0, image_end), kHeaderSize, &records) !=
          image_end) {
    return Status::DataLoss("journal " + path +
                            ": the checkpoint image is damaged");
  }
  const size_t end = ParseRecords(bytes, image_end, &records);
  recovery->records = std::move(records);
  recovery->truncated_bytes = bytes.size() - end;
  return end;
}

/// Fsyncs the directory holding `path`, so a rename into it is durable.
Status SyncDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open directory", dir);
  Status status =
      ::fsync(fd) == 0 ? Status::OK() : IoError("cannot fsync directory", dir);
  ::close(fd);
  return status;
}

}  // namespace

Journal::Journal(std::string path, JournalFsync fsync, size_t batch_interval)
    : path_(std::move(path)),
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
  std::string bytes;
  TRIQ_RETURN_IF_ERROR(ReadFile(path, &bytes));
  auto journal =
      std::unique_ptr<Journal>(new Journal(path, fsync, batch_interval));
  // Uncontended: the journal is not shared until Open returns, but the
  // analysis (rightly) wants the file state touched under its lock.
  MutexLock lock(journal->mu_);
  if (bytes.empty()) {
    // Absent or empty: install a fresh journal the way a checkpoint
    // installs its file, with an empty image.
    TRIQ_RETURN_IF_ERROR(journal->Install(Header(kHeaderSize), false));
    return journal;
  }
  TRIQ_ASSIGN_OR_RETURN(const size_t end, Recover(path, bytes, recovery));
  journal->fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (journal->fd_ < 0) return IoError("cannot open", path);
  if (end < bytes.size() &&
      ::ftruncate(journal->fd_, static_cast<off_t>(end)) != 0) {
    return IoError("cannot truncate", path);
  }
  if (::lseek(journal->fd_, static_cast<off_t>(end), SEEK_SET) < 0) {
    return IoError("cannot seek", path);
  }
  journal->end_offset_ = end;
  return journal;
}

Status Journal::Install(const std::string& file, bool checkpoint) {
  const std::string tmp_path = path_ + ".ckpt.tmp";
  int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot open", tmp_path);
  if (checkpoint && FailpointHit("journal.checkpoint.crash")) {
    // Torn tmp file: never renamed, so recovery never reads it.
    (void)::write(fd, file.data(), file.size() / 2);
    (void)::fsync(fd);
    std::_Exit(42);
  }
  Status status = WriteAll(fd, tmp_path, file.data(), file.size());
  if (status.ok() && ::fsync(fd) != 0) {
    status = IoError("cannot fsync", tmp_path);
  }
  if (status.ok() && ::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    status = IoError("cannot rename", tmp_path);
  }
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  if (checkpoint && FailpointHit("journal.reset.crash")) std::_Exit(42);
  // The rename committed the new file: appends go there from now on,
  // even if the directory sync below fails.
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  end_offset_ = file.size();
  appends_since_sync_ = 0;
  return SyncDirectory(path_);
}

Status Journal::CheckLength(uint64_t size, const char* what) {
  if (size <= UINT32_MAX) return Status::OK();
  return Status::InvalidArgument(std::string("journal ") + what + " of " +
                                 std::to_string(size) +
                                 " bytes exceeds the 4 GiB format limit");
}

Status Journal::Append(Op op, const std::vector<std::string>& fields) {
  std::string frame;
  TRIQ_RETURN_IF_ERROR(AppendFrame(op, fields, &frame));

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
    TRIQ_IGNORE_STATUS(WriteAll(fd_, path_, frame.data(), frame.size() / 2));
    return AbandonAppend(Status::DataLoss(
        "failpoint journal.write.short: torn append to " + path_));
  }
  if (FailpointHit("journal.write.crash")) {
    TRIQ_IGNORE_STATUS(WriteAll(fd_, path_, frame.data(), frame.size() / 2));
    (void)::fsync(fd_);
    std::_Exit(42);
  }
  Status written = WriteAll(fd_, path_, frame.data(), frame.size());
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

Status Journal::Checkpoint(const std::vector<Record>& image) {
  // The caller journals the triggering record before calling this, so a
  // crash anywhere in here recovers to a correct state: before the
  // rename, the old file replays it; after it, the new image does.
  std::string file = Header(0);
  for (const Record& record : image) {
    TRIQ_RETURN_IF_ERROR(AppendFrame(record.op, record.fields, &file));
  }
  file.replace(0, kHeaderSize, Header(file.size()));
  MutexLock lock(mu_);
  TRIQ_RETURN_IF_ERROR(Install(file, true));
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
