// The write-ahead journal's on-disk contract: append/recover round
// trips, torn-tail truncation, bit-rot detection, failed-append rewind,
// the u32 length limit, checkpoint compaction, and the epoch stitching
// that makes the checkpoint+reset pair crash-atomic (crashes simulated
// with real fork + _Exit through failpoints).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "engine/journal.h"

namespace triq {
namespace {

using Op = Journal::Op;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveJournal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".ckpt").c_str());
  std::remove((path + ".ckpt.tmp").c_str());
}

Result<std::unique_ptr<Journal>> OpenAt(const std::string& path,
                                        Journal::Recovery* recovery) {
  return Journal::Open(path, JournalFsync::kNever, 64, recovery);
}

/// Runs `child` in a forked process and expects it to _Exit(42) via a
/// crash failpoint. The child configures its own failpoints after the
/// fork, so the parent's registry stays disarmed.
void ExpectCrash(const std::function<void()>& child) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    child();
    std::_Exit(99);  // reached only if the failpoint did not fire
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42) << "child did not crash as expected";
}

TEST(JournalTest, FreshJournalRecoversEmpty) {
  const std::string path = TempPath("fresh.journal");
  RemoveJournal(path);
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_FALSE(recovery.has_checkpoint);
  EXPECT_TRUE(recovery.records.empty());
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, AppendThenRecoverRoundTrips) {
  const std::string path = TempPath("roundtrip.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kLoadTurtle, {"<a> <b> <c> ."}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kMaterialize, {}).ok());
    // Binary-unsafe content must survive verbatim (fact-dump blobs).
    ASSERT_TRUE(
        (*journal)
            ->Append(Op::kLoadFactsBlob, {"1", std::string("\0\n\xff x", 5)})
            .ok());
    EXPECT_EQ((*journal)->stats().records_appended, 4u);
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(recovery.records.size(), 4u);
  EXPECT_EQ(recovery.records[0].op, Op::kAddTriple);
  EXPECT_EQ(recovery.records[0].fields,
            (std::vector<std::string>{"s", "p", "o"}));
  EXPECT_EQ(recovery.records[1].op, Op::kLoadTurtle);
  EXPECT_EQ(recovery.records[1].fields[0], "<a> <b> <c> .");
  EXPECT_EQ(recovery.records[2].op, Op::kMaterialize);
  EXPECT_TRUE(recovery.records[2].fields.empty());
  EXPECT_EQ(recovery.records[3].fields[1], std::string("\0\n\xff x", 5));
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, TornTailIsTruncatedOnce) {
  const std::string path = TempPath("torn.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s2", "p2", "o2"}).ok());
  }
  {
    // A crash mid-append leaves a partial frame at the tail.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00garbage", 11);
  }
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_EQ(recovery.records.size(), 2u);
    EXPECT_EQ(recovery.truncated_bytes, 11u);
  }
  // The tail was physically truncated: a second recovery is clean.
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, BitFlipStopsReplayAtTheFlip) {
  const std::string path = TempPath("bitflip.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s2", "p2", "o2"}).ok());
  }
  {
    // Flip one byte inside the last record's payload: its CRC must
    // catch it and replay must stop before it.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size - 2);
    char byte = 0;
    file.seekg(size - 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(size - 2);
    file.write(&byte, 1);
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(recovery.records.size(), 1u);
  EXPECT_GT(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, FailedAppendRewindsSoLaterAppendsSurvive) {
  const std::string path = TempPath("rewind.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"a", "b", "c"}).ok());
    ASSERT_TRUE(FailpointsConfigure("journal.write.short:1"));
    Status torn = (*journal)->Append(Op::kAddTriple, {"x", "y", "z"});
    ASSERT_TRUE(FailpointsConfigure(""));
    EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
    // The tear was rewound, so this append lands on a clean tail and
    // must be visible to replay.
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"d", "e", "f"}).ok());
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.records[0].fields[0], "a");
  EXPECT_EQ(recovery.records[1].fields[0], "d");
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, LengthsPastTheirU32FieldsAreRefused) {
  // Append and Checkpoint run this one check on every length they frame
  // in a u32 (a record's payload, a checkpoint's rules and blob) before
  // writing anything: a wrapped length would make recovery read the
  // record as torn and drop it with every record after it. Tested on
  // the check itself: a real 4 GiB field is too large to allocate in
  // the sanitizer jobs.
  EXPECT_TRUE(Journal::CheckLength(0, "record").ok());
  EXPECT_TRUE(Journal::CheckLength(UINT32_MAX, "record").ok());
  Status over = Journal::CheckLength(uint64_t{UINT32_MAX} + 1, "record");
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("record of 4294967296 bytes"),
            std::string::npos)
      << over.message();
  EXPECT_EQ(Journal::CheckLength(uint64_t{1} << 40, "checkpoint blob").code(),
            StatusCode::kInvalidArgument);
}

TEST(JournalTest, CheckpointCompactsAndKeepsTheTail) {
  const std::string path = TempPath("ckpt.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"old", "p", "o"}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kMaterialize, {}).ok());
    ASSERT_TRUE(
        (*journal)->Checkpoint("rules text", "fact blob bytes", true).ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"tail", "p", "o"}).ok());
    EXPECT_EQ((*journal)->stats().checkpoints, 1u);
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(recovery.has_checkpoint);
  EXPECT_TRUE(recovery.checkpoint_materialized);
  EXPECT_EQ(recovery.checkpoint_rules, "rules text");
  EXPECT_EQ(recovery.checkpoint_blob, "fact blob bytes");
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0].fields[0], "tail");
  EXPECT_EQ(recovery.stale_records_dropped, 0u);
}

TEST(JournalTest, CorruptCheckpointIsDataLossNotSilent) {
  const std::string path = TempPath("badckpt.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Checkpoint("r", "b", false).ok());
  }
  {
    // Flip a byte in the checkpoint body: rename is atomic, so a bad
    // checksum here is genuine bit rot and must refuse to load.
    std::fstream file(path + ".ckpt",
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(9);
    file.write("\xff", 1);
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, EpochMismatchRefusesToStitch) {
  const std::string path = TempPath("epoch.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Checkpoint("r", "b", false).ok());
  }
  {
    // Fake a journal two epochs ahead of its checkpoint — a replaced or
    // swapped .ckpt file, not any crash this code can produce.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(12);  // epoch field, after magic + version
    const char epoch3[8] = {3, 0, 0, 0, 0, 0, 0, 0};
    file.write(epoch3, 8);
  }
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, CrashDuringCheckpointKeepsOldStateReplayable) {
  const std::string path = TempPath("ckptcrash.journal");
  RemoveJournal(path);
  ExpectCrash([&] {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    if (!journal.ok()) std::_Exit(99);
    if (!(*journal)->Append(Op::kAddTriple, {"a", "b", "c"}).ok()) {
      std::_Exit(99);
    }
    if (!(*journal)->Append(Op::kAddTriple, {"d", "e", "f"}).ok()) {
      std::_Exit(99);
    }
    FailpointsConfigure("journal.checkpoint.crash:1");
    (void)(*journal)->Checkpoint("rules", "blob", true);  // _Exit(42)
  });
  // The tmp file never renamed: no checkpoint, the journal replays in
  // full, exactly as if the checkpoint had never been attempted.
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_FALSE(recovery.has_checkpoint);
  EXPECT_EQ(recovery.records.size(), 2u);
}

TEST(JournalTest, CrashAfterCheckpointRenameDropsStaleRecords) {
  const std::string path = TempPath("resetcrash.journal");
  RemoveJournal(path);
  ExpectCrash([&] {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    if (!journal.ok()) std::_Exit(99);
    if (!(*journal)->Append(Op::kAddTriple, {"a", "b", "c"}).ok()) {
      std::_Exit(99);
    }
    if (!(*journal)->Append(Op::kAddTriple, {"d", "e", "f"}).ok()) {
      std::_Exit(99);
    }
    FailpointsConfigure("journal.reset.crash:1");
    (void)(*journal)->Checkpoint("rules", "blob", true);  // _Exit(42)
  });
  // The rename happened, the journal reset did not: the old records are
  // one epoch behind the checkpoint and must be discarded, not replayed
  // on top of the image that already contains them.
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(recovery.has_checkpoint);
  EXPECT_EQ(recovery.checkpoint_blob, "blob");
  EXPECT_TRUE(recovery.records.empty());
  EXPECT_EQ(recovery.stale_records_dropped, 2u);
}

TEST(JournalTest, CrashMidAppendLosesOnlyTheTornRecord) {
  const std::string path = TempPath("writecrash.journal");
  RemoveJournal(path);
  ExpectCrash([&] {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    if (!journal.ok()) std::_Exit(99);
    if (!(*journal)->Append(Op::kAddTriple, {"a", "b", "c"}).ok()) {
      std::_Exit(99);
    }
    FailpointsConfigure("journal.write.crash:1");
    (void)(*journal)->Append(Op::kAddTriple, {"torn", "p", "o"});  // _Exit
  });
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0].fields[0], "a");
  EXPECT_GT(recovery.truncated_bytes, 0u);
}

}  // namespace
}  // namespace triq
