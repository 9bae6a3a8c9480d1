// The write-ahead journal's on-disk contract: append/recover round
// trips, torn-tail truncation, bit-rot detection, failed-append rewind,
// the u32 length limit, checkpoint compaction as a rewrite of the one
// journal file, both checkpoint crash windows (crashes simulated with
// real fork + _Exit through failpoints), refusal of files that are not
// journals, and seeded truncations and bit flips of a journal with an
// image and a tail.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
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
  std::remove((path + ".ckpt.tmp").c_str());
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A journal header: magic, then `version` and the u64 after it (the
/// image end since version 2, the epoch in version 1), little-endian.
std::string Header(uint32_t version, uint64_t word) {
  std::string header = "TRIQJRNL";
  for (int i = 0; i < 4; ++i) header += static_cast<char>(version >> (8 * i));
  for (int i = 0; i < 8; ++i) header += static_cast<char>(word >> (8 * i));
  return header;
}

/// The image MaterializeLocked checkpoints: base dump, rules, kMaterialize.
std::vector<Journal::Record> Image() {
  return {{Op::kLoadFactsBlob, {"1", std::string("dump\0\xff bytes", 12)}},
          {Op::kAttachRules, {"triple(?X, p, ?Y) -> q(?X) .\n"}},
          {Op::kMaterialize, {}}};
}

void ExpectSameRecords(const std::vector<Journal::Record>& got,
                       const std::vector<Journal::Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].op, want[i].op) << "record " << i;
    EXPECT_EQ(got[i].fields, want[i].fields) << "record " << i;
  }
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
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_TRUE(recovery.records.empty());
    EXPECT_EQ(recovery.truncated_bytes, 0u);
  }
  // Installed whole, through the checkpoint's rename: a version-2
  // header whose empty image ends where the header does.
  EXPECT_EQ(ReadBytes(path), Header(2, 20));
  EXPECT_FALSE(Exists(path + ".ckpt.tmp"));
}

TEST(JournalTest, EmptyAndHeaderOnlyFilesAreEmptyJournals) {
  const std::string path = TempPath("empty.journal");
  for (const std::string& bytes : {std::string(), Header(2, 20)}) {
    RemoveJournal(path);
    WriteBytes(path, bytes);
    {
      Journal::Recovery recovery;
      auto journal = OpenAt(path, &recovery);
      ASSERT_TRUE(journal.ok()) << journal.status().ToString();
      EXPECT_TRUE(recovery.records.empty());
      EXPECT_EQ(recovery.truncated_bytes, 0u);
      ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
    }
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_EQ(recovery.records.size(), 1u);
    EXPECT_EQ(recovery.records[0].fields[0], "s");
  }
}

TEST(JournalTest, FilesThatAreNotJournalsAreRefusedAndLeftUnchanged) {
  // A valid version-2 journal with one tail record, and a version-1
  // file (old header, epoch 0) holding that same record.
  const std::string path = TempPath("refused.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
  }
  const std::string valid = ReadBytes(path);
  const std::string record = valid.substr(20);
  const std::string cases[] = {
      "subject predicate object .\n# a Turtle file, not a journal at all\n",
      Header(1, 0) + record,
      std::string(4096, '\0'),
      valid.substr(0, 12),  // a header cut short
      // The image claims to end past the last record.
      Header(2, valid.size() + 1) + record,
      // The image claims to end inside the record.
      Header(2, valid.size() - 1) + record,
  };
  for (const std::string& bytes : cases) {
    WriteBytes(path, bytes);
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_FALSE(journal.ok()) << bytes.size() << " bytes opened";
    EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(journal.status().message().find(path), std::string::npos)
        << journal.status().ToString();
    EXPECT_EQ(ReadBytes(path), bytes);
  }
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

TEST(JournalTest, CheckpointRewritesTheJournalAndKeepsTheTail) {
  const std::string path = TempPath("ckpt.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"old", "p", "o"}).ok());
    ASSERT_TRUE((*journal)->Append(Op::kMaterialize, {}).ok());
    ASSERT_TRUE((*journal)->Checkpoint(Image()).ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"tail", "p", "o"}).ok());
    const JournalStats stats = (*journal)->stats();
    EXPECT_EQ(stats.checkpoints, 1u);
    // Appends only: the image the checkpoint wrote is not counted.
    EXPECT_EQ(stats.records_appended, 3u);
  }
  // One file: the checkpoint renamed its tmp file over the journal.
  EXPECT_FALSE(Exists(path + ".ckpt.tmp"));
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  std::vector<Journal::Record> want = Image();
  want.push_back({Op::kAddTriple, {"tail", "p", "o"}});
  ExpectSameRecords(recovery.records, want);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, CorruptImageIsDataLossNotTruncation) {
  const std::string path = TempPath("badimage.journal");
  RemoveJournal(path);
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Checkpoint(Image()).ok());
    ASSERT_TRUE((*journal)->Append(Op::kAddTriple, {"s", "p", "o"}).ok());
  }
  // Flip a byte inside the image's first record: the image was fsynced
  // before its rename, so a bad checksum there is genuine bit rot and
  // must refuse to load rather than truncate the image away.
  std::string bytes = ReadBytes(path);
  bytes[20 + 8 + 3] = static_cast<char>(bytes[20 + 8 + 3] ^ 0x10);
  WriteBytes(path, bytes);
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReadBytes(path), bytes);
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
    (void)(*journal)->Checkpoint(Image());  // _Exit(42)
  });
  // The torn tmp file was never renamed: the journal replays in full,
  // exactly as if the checkpoint had never been attempted.
  EXPECT_TRUE(Exists(path + ".ckpt.tmp"));
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.records[1].fields[0], "d");
  EXPECT_EQ(recovery.truncated_bytes, 0u);
}

TEST(JournalTest, CrashAfterCheckpointRenameRecoversTheImage) {
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
    (void)(*journal)->Checkpoint(Image());  // _Exit(42)
  });
  // The rename is the commit point: the file is the new image alone,
  // and the records it subsumes are gone with the old file.
  Journal::Recovery recovery;
  auto journal = OpenAt(path, &recovery);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ExpectSameRecords(recovery.records, Image());
  EXPECT_EQ(recovery.truncated_bytes, 0u);
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

/// A journal holding a 3-record image and a 6-record tail, and the
/// records it holds, image first.
std::string BuildMutationJournal(const std::string& path,
                                 std::vector<Journal::Record>* records) {
  RemoveJournal(path);
  *records = Image();
  const std::vector<Journal::Record> tail = {
      {Op::kAddTriple, {"s", "p", "o"}},
      {Op::kLoadTurtle, {"a edge b .\nb edge c .\n"}},
      {Op::kAddTriple, {"c", "edge", "d"}},
      {Op::kLoadFactsBlob, {"0", std::string("\0\n\xff tail dump", 13)}},
      {Op::kAttachRules, {"triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"}},
      {Op::kMaterialize, {}},
  };
  {
    Journal::Recovery recovery;
    auto journal = OpenAt(path, &recovery);
    EXPECT_TRUE(journal.ok()) << journal.status().ToString();
    if (!journal.ok()) return "";
    EXPECT_TRUE((*journal)->Checkpoint(*records).ok());
    for (const Journal::Record& record : tail) {
      EXPECT_TRUE((*journal)->Append(record.op, record.fields).ok());
      records->push_back(record);
    }
  }
  return ReadBytes(path);
}

/// Opens `bytes` as a journal. Either Open fails with DataLoss and the
/// file stays byte-identical, or it recovers a prefix of `original`
/// that holds the whole image, truncated so that a second Open finds
/// nothing more to drop. Returns whether Open succeeded.
bool ExpectRefusedOrPrefix(const std::string& path, const std::string& bytes,
                           const std::vector<Journal::Record>& original) {
  WriteBytes(path, bytes);
  Journal::Recovery recovery;
  {
    auto journal = OpenAt(path, &recovery);
    if (!journal.ok()) {
      EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss)
          << journal.status().ToString();
      EXPECT_EQ(ReadBytes(path), bytes);
      return false;
    }
  }
  const size_t kept = recovery.records.size();
  EXPECT_GE(kept, Image().size());
  EXPECT_LE(kept, original.size());
  ExpectSameRecords(recovery.records,
                    {original.begin(),
                     original.begin() + std::min(kept, original.size())});
  Journal::Recovery again;
  auto reopened = OpenAt(path, &again);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(again.records.size(), recovery.records.size());
  EXPECT_EQ(again.truncated_bytes, 0u);
  return true;
}

TEST(JournalTest, FiftyTruncationsRefuseOrRecoverAPrefix) {
  const std::string path = TempPath("truncated.journal");
  std::vector<Journal::Record> original;
  const std::string bytes = BuildMutationJournal(path, &original);
  ASSERT_GT(bytes.size(), 20u);
  // Fixed seed: every run cuts at the same 50 points, so a failure here
  // reproduces byte for byte. A cut to 0 bytes is an empty file, which
  // is a fresh journal (EmptyAndHeaderOnlyFilesAreEmptyJournals).
  std::mt19937 rng(0x7E4A11u);
  size_t refused = 0;
  size_t recovered = 0;
  for (int i = 0; i < 50; ++i) {
    const size_t cut = 1 + rng() % (bytes.size() - 1);
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    (ExpectRefusedOrPrefix(path, bytes.substr(0, cut), original) ? recovered
                                                                 : refused) +=
        1;
  }
  // Cuts land in the header or image and in the tail alike.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(recovered, 0u);
}

TEST(JournalTest, FiftyBitFlipsRefuseOrRecoverAPrefix) {
  const std::string path = TempPath("bitflipped.journal");
  std::vector<Journal::Record> original;
  const std::string bytes = BuildMutationJournal(path, &original);
  std::mt19937 rng(0xF11B175u);
  size_t refused = 0;
  size_t recovered = 0;
  for (int i = 0; i < 50; ++i) {
    std::string mutated = bytes;
    const size_t at = rng() % mutated.size();
    const unsigned bit = rng() % 8;
    mutated[at] = static_cast<char>(mutated[at] ^ (1u << bit));
    SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                 std::to_string(at) + " flipped");
    (ExpectRefusedOrPrefix(path, mutated, original) ? recovered : refused) +=
        1;
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(recovered, 0u);
}

}  // namespace
}  // namespace triq
