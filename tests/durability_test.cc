// Durability suite (ctest label `durability`): the WAL and snapshot formats,
// DurableStore recovery policy, and crash-consistent recovery of the durable
// semantic cache. The exhaustive every-byte crash sweep lives in
// durability_harness.cc; these tests pin the individual format and policy
// contracts the sweep's guarantee rests on.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/money.h"
#include "core/optimize/semantic_cache.h"
#include "durability/format.h"
#include "durability/mmap_file.h"
#include "durability/snapshot.h"
#include "durability/store.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "llm/simulated.h"
#include "llm/skills.h"
#include "serve/server.h"

namespace llmdm {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

/// Self-cleaning scratch directory; best-effort removal (recovery creates
/// files with predictable names, so plain unlink on the survivors suffices).
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "llmdm_dur_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~TempDir() {
    for (const std::string& name : cleanup_) {
      ::unlink((path_ + "/" + name).c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  /// Register a file for removal at teardown.
  void Track(const std::string& name) { cleanup_.push_back(name); }

 private:
  std::string path_;
  std::vector<std::string> cleanup_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string Image(const durability::DurableState& state) {
  std::string out;
  EXPECT_TRUE(state.SaveSnapshot(&out).ok());
  return out;
}

// ---------------------------------------------------------------------------
// Byte-level encoding.

TEST(DurabilityFormat, RoundtripsEveryType) {
  std::string buf;
  durability::AppendU8(&buf, 7);
  durability::AppendU32(&buf, 0xDEADBEEFu);
  durability::AppendU64(&buf, 0x0123456789ABCDEFull);
  durability::AppendI64(&buf, -42);
  durability::AppendString(&buf, "hello\0world");  // embedded NUL survives? no:
  // string_view from a literal stops at the NUL — use an explicit view.
  durability::AppendString(&buf, std::string_view("a\0b", 3));
  durability::AppendF64(&buf, -0.25);

  durability::ByteReader in(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  std::string s1, s2;
  double f64 = 0.0;
  ASSERT_TRUE(in.ReadU8(&u8).ok());
  ASSERT_TRUE(in.ReadU32(&u32).ok());
  ASSERT_TRUE(in.ReadU64(&u64).ok());
  ASSERT_TRUE(in.ReadI64(&i64).ok());
  ASSERT_TRUE(in.ReadString(&s1).ok());
  ASSERT_TRUE(in.ReadString(&s2).ok());
  ASSERT_TRUE(in.ReadF64(&f64).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, std::string("a\0b", 3));
  EXPECT_EQ(f64, -0.25);
  EXPECT_TRUE(in.empty());
}

TEST(DurabilityFormat, TruncatedReadsFailCleanly) {
  std::string buf;
  durability::AppendString(&buf, "payload");
  // Every proper prefix must fail with a status, not read out of bounds.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    durability::ByteReader in(std::string_view(buf).substr(0, cut));
    std::string s;
    EXPECT_FALSE(in.ReadString(&s).ok()) << "prefix length " << cut;
  }
}

// ---------------------------------------------------------------------------
// WAL format.

TEST(DurabilityWal, AppendThenReplayRoundtrips) {
  TempDir dir;
  const std::string path = dir.path() + "/t.wal.3";
  dir.Track("t.wal.3");
  {
    auto writer = durability::WalWriter::Create(path, 3, /*fsync=*/false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("first").ok());
    ASSERT_TRUE(writer.value()->Append("").ok());  // empty payloads are legal
    ASSERT_TRUE(writer.value()->Append("third record").ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::vector<std::string> seen;
  auto result =
      durability::ReplayWal(ReadFileBytes(path), [&](std::string_view p) {
        seen.emplace_back(p);
        return common::Status::Ok();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().header_valid);
  EXPECT_EQ(result.value().epoch, 3u);
  EXPECT_EQ(result.value().records, 3u);
  EXPECT_FALSE(result.value().torn_tail);
  EXPECT_EQ(result.value().discarded_bytes, 0u);
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "", "third record"}));
}

TEST(DurabilityWal, EveryTruncationRecoversACleanPrefix) {
  TempDir dir;
  const std::string path = dir.path() + "/t.wal.1";
  dir.Track("t.wal.1");
  {
    auto writer = durability::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          writer.value()->Append("record " + std::to_string(i)).ok());
    }
  }
  const std::string bytes = ReadFileBytes(path);
  size_t prev_records = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::vector<std::string> seen;
    auto result = durability::ReplayWal(
        std::string_view(bytes).substr(0, cut), [&](std::string_view p) {
          seen.emplace_back(p);
          return common::Status::Ok();
        });
    ASSERT_TRUE(result.ok()) << "cut " << cut;  // truncation is never an error
    const durability::WalReplayResult& r = result.value();
    // The replayed records must be exactly the expected prefix...
    ASSERT_EQ(seen.size(), r.records);
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], "record " + std::to_string(i)) << "cut " << cut;
    }
    // ...monotone in the cut point, with exact byte accounting.
    EXPECT_GE(r.records, prev_records) << "cut " << cut;
    prev_records = r.records;
    if (r.header_valid) {
      EXPECT_EQ(r.valid_bytes + r.discarded_bytes, cut);
    } else {
      EXPECT_EQ(r.records, 0u);
      EXPECT_EQ(r.valid_bytes, 0u);
    }
    if (cut == bytes.size()) {
      EXPECT_EQ(r.records, 5u);
      EXPECT_FALSE(r.torn_tail);
    }
  }
}

TEST(DurabilityWal, ShortForeignAndWrongVersionHeadersReplayAsEmpty) {
  TempDir dir;
  const std::string path = dir.path() + "/t.wal.1";
  dir.Track("t.wal.1");
  const auto replay_records = [&]() {
    size_t n = 0;
    auto result =
        durability::ReplayWal(ReadFileBytes(path), [&](std::string_view) {
          ++n;
          return common::Status::Ok();
        });
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result.value().header_valid);
    return n;
  };
  WriteFileBytes(path, "");  // zero-length: crash before the header landed
  EXPECT_EQ(replay_records(), 0u);
  WriteFileBytes(path, "LDMWAL");  // partial header
  EXPECT_EQ(replay_records(), 0u);
  WriteFileBytes(path, "this is not a WAL file at all......");  // foreign
  EXPECT_EQ(replay_records(), 0u);
  std::string wrong_version = "LDMWAL01";
  durability::AppendU32(&wrong_version, 99);
  durability::AppendU64(&wrong_version, 1);
  WriteFileBytes(path, wrong_version);
  EXPECT_EQ(replay_records(), 0u);
}

TEST(DurabilityWal, PeekHeaderParsesEpochWithoutReplaying) {
  std::string bytes = "LDMWAL01";
  durability::AppendU32(&bytes, durability::kWalVersion);
  durability::AppendU64(&bytes, 42);
  uint64_t epoch = 0;
  EXPECT_TRUE(durability::PeekWalHeader(bytes, &epoch));
  EXPECT_EQ(epoch, 42u);
  EXPECT_FALSE(durability::PeekWalHeader(std::string_view(bytes).substr(0, 19),
                                         &epoch));
  EXPECT_FALSE(durability::PeekWalHeader("XXXXXXXX1234567890ab", &epoch));
}

TEST(DurabilityWal, ChecksumCorruptionStopsReplayBeforeTheBadRecord) {
  TempDir dir;
  const std::string path = dir.path() + "/t.wal.1";
  dir.Track("t.wal.1");
  {
    auto writer = durability::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("aaaa").ok());
    ASSERT_TRUE(writer.value()->Append("bbbb").ok());
    ASSERT_TRUE(writer.value()->Append("cccc").ok());
  }
  std::string bytes = ReadFileBytes(path);
  // Flip one payload byte of the middle record.
  const size_t second_payload =
      durability::kWalHeaderSize + durability::kWalRecordOverhead + 4 +
      durability::kWalRecordOverhead;
  bytes[second_payload] ^= 0x40;
  WriteFileBytes(path, bytes);
  std::vector<std::string> seen;
  auto result =
      durability::ReplayWal(ReadFileBytes(path), [&](std::string_view p) {
        seen.emplace_back(p);
        return common::Status::Ok();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"aaaa"}));
  EXPECT_TRUE(result.value().torn_tail);
  EXPECT_GT(result.value().discarded_bytes, 0u);
}

TEST(DurabilityWal, CrashInjectionTearsExactlyAtTheLimit) {
  TempDir dir;
  const std::string path = dir.path() + "/t.wal.1";
  dir.Track("t.wal.1");
  const int64_t limit = static_cast<int64_t>(durability::kWalHeaderSize) +
                        2 * (durability::kWalRecordOverhead + 4) + 5;
  {
    auto writer = durability::WalWriter::Create(path, 1, false);
    ASSERT_TRUE(writer.ok());
    writer.value()->set_crash_after_bytes(limit);
    ASSERT_TRUE(writer.value()->Append("aaaa").ok());
    ASSERT_TRUE(writer.value()->Append("bbbb").ok());
    // The third record would cross the limit: partial write, then kAborted.
    EXPECT_FALSE(writer.value()->Append("cccc").ok());
    EXPECT_FALSE(writer.value()->Append("dddd").ok());  // stays dead
    EXPECT_FALSE(writer.value()->Sync().ok());  // a dead writer never syncs
  }
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), static_cast<size_t>(limit));  // torn mid-record
  std::vector<std::string> seen;
  auto result =
      durability::ReplayWal(ReadFileBytes(path), [&](std::string_view p) {
        seen.emplace_back(p);
        return common::Status::Ok();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"aaaa", "bbbb"}));
  EXPECT_TRUE(result.value().torn_tail);
}

// ---------------------------------------------------------------------------
// Snapshot format.

TEST(DurabilitySnapshot, RoundtripsAndPublishesAtomically) {
  TempDir dir;
  const std::string path = dir.path() + "/c.snap";
  dir.Track("c.snap");
  const std::string payload = "component image bytes";
  ASSERT_TRUE(
      durability::WriteSnapshotFile(path, 7, payload, /*fsync=*/false).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));  // tmp renamed away, never left
  const std::string bytes = ReadFileBytes(path);
  durability::SnapshotView view = durability::ParseSnapshot(bytes);
  ASSERT_TRUE(view.valid);
  EXPECT_EQ(view.epoch, 7u);
  EXPECT_EQ(view.payload, payload);

  // An empty payload is a legal image (an empty component is durable too).
  ASSERT_TRUE(durability::WriteSnapshotFile(path, 8, "", false).ok());
  view = durability::ParseSnapshot(ReadFileBytes(path));
  ASSERT_TRUE(view.valid);
  EXPECT_EQ(view.epoch, 8u);
  EXPECT_TRUE(view.payload.empty());
}

TEST(DurabilitySnapshot, NoTruncationOrBitFlipEverValidates) {
  TempDir dir;
  const std::string path = dir.path() + "/c.snap";
  dir.Track("c.snap");
  ASSERT_TRUE(
      durability::WriteSnapshotFile(path, 1, "payload payload", false).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(durability::ParseSnapshot(bytes).valid);
  // Every proper prefix is invalid: the trailing checksum cannot verify.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        durability::ParseSnapshot(std::string_view(bytes).substr(0, cut)).valid)
        << "prefix " << cut;
  }
  // Any single bit flip is invalid (magic, version, epoch, length, payload,
  // or checksum — all covered by structure checks plus FNV over the payload).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0x01;
    EXPECT_FALSE(durability::ParseSnapshot(mutated).valid) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// DurableStore recovery policy, exercised through StringList — the smallest
// DurableState that has both snapshot and WAL records.

durability::DurableStore::Options StoreOptions(const std::string& dir,
                                               const std::string& name) {
  durability::DurableStore::Options options;
  options.dir = dir;
  options.name = name;
  options.fsync = false;
  return options;
}

/// An ordered list of strings. Add appends, Remove drops the first equal
/// item; each logs one record ([u8 op][string item]) once a store is
/// attached. The image is the count then every item.
class StringList : public durability::DurableState {
 public:
  enum Op : uint8_t { kAdd = 1, kRemove = 2 };

  void AttachDurability(durability::DurableStore* store) { store_ = store; }
  common::Status Add(const std::string& item) { return Mutate(kAdd, item); }
  common::Status Remove(const std::string& item) {
    return Mutate(kRemove, item);
  }
  const std::vector<std::string>& items() const { return items_; }

  void ResetToEmpty() override { items_.clear(); }
  common::Status SaveSnapshot(std::string* out) const override {
    durability::AppendU64(out, items_.size());
    for (const std::string& item : items_) durability::AppendString(out, item);
    return common::Status::Ok();
  }
  common::Status LoadSnapshot(durability::ByteReader& in) override {
    uint64_t count = 0;
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&count));
    for (uint64_t i = 0; i < count; ++i) {
      std::string item;
      LLMDM_RETURN_IF_ERROR(in.ReadString(&item));
      items_.push_back(std::move(item));
    }
    return common::Status::Ok();
  }
  common::Status ApplyWalRecord(std::string_view payload) override {
    durability::ByteReader in(payload);
    uint8_t op = 0;
    std::string item;
    LLMDM_RETURN_IF_ERROR(in.ReadU8(&op));
    LLMDM_RETURN_IF_ERROR(in.ReadString(&item));
    return Apply(op, item);
  }

 private:
  common::Status Apply(uint8_t op, const std::string& item) {
    if (op == kAdd) {
      items_.push_back(item);
      return common::Status::Ok();
    }
    auto it = std::find(items_.begin(), items_.end(), item);
    if (op != kRemove || it == items_.end()) {
      return common::Status::InvalidArgument("bad StringList record");
    }
    items_.erase(it);
    return common::Status::Ok();
  }

  common::Status Mutate(uint8_t op, const std::string& item) {
    durability::MutationGuard guard = store_ != nullptr
                                          ? store_->BeginMutation()
                                          : durability::MutationGuard();
    LLMDM_RETURN_IF_ERROR(Apply(op, item));
    if (store_ == nullptr) return common::Status::Ok();
    std::string record;
    durability::AppendU8(&record, op);
    durability::AppendString(&record, item);
    return store_->Append(guard, record);
  }

  std::vector<std::string> items_;
  durability::DurableStore* store_ = nullptr;  // not owned; may be null
};

std::string Item(int i) { return "item " + std::to_string(i); }

TEST(DurableStore, ColdOpenStartsEmptyAtEpochZero) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(list.items().empty());
  EXPECT_EQ(store.value()->epoch(), 0u);
  EXPECT_FALSE(store.value()->recovery_info().snapshot_loaded);
  EXPECT_FALSE(store.value()->recovery_info().snapshot_corrupt);
  EXPECT_TRUE(FileExists(store.value()->wal_path(0)));
  const durability::DurableStore::RecoveryInfo& info =
      store.value()->recovery_info();
  EXPECT_EQ(info.epoch, 0u);
  EXPECT_EQ(info.wal_records_replayed, 0u);
  EXPECT_EQ(info.wal_discarded_bytes, 0u);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.orphans_removed, 0u);
}

TEST(DurableStore, AppendRequiresAGuardFromBeginMutation) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());
  durability::MutationGuard empty;  // not from BeginMutation
  EXPECT_EQ(store.value()->Append(empty, "rec").code(),
            common::StatusCode::kFailedPrecondition);
  durability::MutationGuard held = store.value()->BeginMutation();
  EXPECT_TRUE(store.value()->Append(held, "rec").ok());
}

TEST(DurableStore, ReopenReplaysTheWalAndIsIdempotent) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  std::string image;
  std::vector<std::string> expected;
  {
    StringList list;
    auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                                &list);
    ASSERT_TRUE(store.ok());
    list.AttachDurability(store.value().get());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(list.Add(Item(i)).ok());
    ASSERT_TRUE(list.Remove(Item(3)).ok());
    image = Image(list);
    expected = list.items();
  }
  ASSERT_EQ(expected.size(), 7u);
  for (int round = 0; round < 2; ++round) {  // double recovery: idempotent
    StringList recovered;
    auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                                &recovered);
    ASSERT_TRUE(store.ok()) << "round " << round;
    EXPECT_EQ(Image(recovered), image) << "round " << round;
    EXPECT_EQ(store.value()->recovery_info().wal_records_replayed, 9u);
    EXPECT_EQ(store.value()->recovery_info().wal_discarded_bytes, 0u);
    EXPECT_EQ(recovered.items(), expected);  // item 3 stays removed
  }
}

TEST(DurableStore, CheckpointRetiresTheWalAndAdvancesTheEpoch) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  dir.Track("ix.wal.1");
  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());
  list.AttachDurability(store.value().get());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(list.Add(Item(i)).ok());
  const std::string wal0 = store.value()->wal_path(0);
  ASSERT_TRUE(store.value()->Checkpoint().ok());
  EXPECT_EQ(store.value()->epoch(), 1u);
  EXPECT_FALSE(FileExists(wal0));  // retired
  EXPECT_TRUE(FileExists(store.value()->snapshot_path()));
  EXPECT_TRUE(FileExists(store.value()->wal_path(1)));
  // The fresh WAL is just a header: everything lives in the snapshot now.
  EXPECT_EQ(store.value()->wal_size_bytes(), durability::kWalHeaderSize);

  // Recovery from snapshot alone (plus post-checkpoint appends).
  ASSERT_TRUE(list.Add(Item(100)).ok());
  const std::string image = Image(list);
  store.value().reset();
  StringList recovered;
  auto reopened = durability::DurableStore::Open(
      StoreOptions(dir.path(), "ix"), &recovered);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->recovery_info().snapshot_loaded);
  EXPECT_EQ(reopened.value()->recovery_info().epoch, 1u);
  EXPECT_EQ(reopened.value()->recovery_info().wal_records_replayed, 1u);
  EXPECT_EQ(Image(recovered), image);
}

TEST(DurableStore, CorruptSnapshotFallsBackToEmptyButValid) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  WriteFileBytes(dir.path() + "/ix.snap", "garbage, not a snapshot");
  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());  // never a startup error
  EXPECT_TRUE(store.value()->recovery_info().snapshot_corrupt);
  EXPECT_FALSE(store.value()->recovery_info().snapshot_loaded);
  EXPECT_TRUE(list.items().empty());
  // The store is fully usable after the fallback.
  list.AttachDurability(store.value().get());
  EXPECT_TRUE(list.Add(Item(1)).ok());
  EXPECT_TRUE(store.value()->Checkpoint().ok());
}

TEST(DurableStore, WalWithMismatchedEmbeddedEpochIsNeverReplayed) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.1");
  // Publish a valid empty snapshot at epoch 1...
  std::string empty_image;
  {
    StringList scratch;
    ASSERT_TRUE(scratch.SaveSnapshot(&empty_image).ok());
  }
  ASSERT_TRUE(durability::WriteSnapshotFile(dir.path() + "/ix.snap", 1,
                                            empty_image, false)
                  .ok());
  // ...and hand-craft ix.wal.1 whose *embedded* epoch says 2, carrying one
  // structurally valid record. Recovery must not apply it: the record
  // belongs on a different base image.
  std::string payload;
  durability::AppendU8(&payload, StringList::kAdd);
  durability::AppendString(&payload, "foreign item");
  std::string wal = "LDMWAL01";
  durability::AppendU32(&wal, durability::kWalVersion);
  durability::AppendU64(&wal, 2);  // lies about its epoch
  durability::AppendU32(&wal, static_cast<uint32_t>(payload.size()));
  durability::AppendU64(&wal, common::Fnv1a(payload));
  wal += payload;
  WriteFileBytes(dir.path() + "/ix.wal.1", wal);

  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->recovery_info().wal_records_replayed, 0u);
  EXPECT_EQ(store.value()->recovery_info().wal_discarded_bytes, wal.size());
  EXPECT_TRUE(list.items().empty());  // the foreign record never landed
}

TEST(DurableStore, SweepsOrphanWalsAndSnapshotTmps) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  dir.Track("other.keep");
  WriteFileBytes(dir.path() + "/ix.wal.7", "stale epoch wal");
  WriteFileBytes(dir.path() + "/ix.wal.12", "another stale wal");
  WriteFileBytes(dir.path() + "/ix.snap.tmp", "unpublished snapshot");
  WriteFileBytes(dir.path() + "/other.keep", "unrelated file");
  StringList list;
  auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &list);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->recovery_info().orphans_removed, 3u);
  EXPECT_FALSE(FileExists(dir.path() + "/ix.wal.7"));
  EXPECT_FALSE(FileExists(dir.path() + "/ix.wal.12"));
  EXPECT_FALSE(FileExists(dir.path() + "/ix.snap.tmp"));
  EXPECT_TRUE(FileExists(dir.path() + "/other.keep"));  // not ours, not touched
}

TEST(DurableStore, TornTailIsTruncatedOnceAndStaysGone) {
  TempDir dir;
  dir.Track("ix.snap");
  dir.Track("ix.wal.0");
  std::string image_before_tear;
  {
    StringList list;
    auto store = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                                &list);
    ASSERT_TRUE(store.ok());
    list.AttachDurability(store.value().get());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(list.Add(Item(i)).ok());
      if (i == 4) image_before_tear = Image(list);
    }
  }
  // Tear the last record: cut 3 bytes off the file.
  const std::string wal_file = dir.path() + "/ix.wal.0";
  std::string bytes = ReadFileBytes(wal_file);
  WriteFileBytes(wal_file, std::string_view(bytes).substr(0, bytes.size() - 3));

  StringList first;
  auto open1 = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &first);
  ASSERT_TRUE(open1.ok());
  EXPECT_TRUE(open1.value()->recovery_info().torn_tail);
  EXPECT_GT(open1.value()->recovery_info().wal_discarded_bytes, 0u);
  EXPECT_EQ(Image(first), image_before_tear);  // the clean 5-record prefix
  open1.value().reset();

  StringList second;
  auto open2 = durability::DurableStore::Open(StoreOptions(dir.path(), "ix"),
                                              &second);
  ASSERT_TRUE(open2.ok());
  EXPECT_FALSE(open2.value()->recovery_info().torn_tail);  // already repaired
  EXPECT_EQ(open2.value()->recovery_info().wal_discarded_bytes, 0u);
  EXPECT_EQ(Image(second), image_before_tear);
}

// ---------------------------------------------------------------------------
// Component recovery equivalence.

TEST(DurableComponents, SemanticCacheSurvivesInsertRefreshEvict) {
  TempDir dir;
  dir.Track("cache.snap");
  dir.Track("cache.wal.0");
  optimize::SemanticCache::Options options;
  options.capacity = 6;
  options.num_shards = 2;
  std::string image;
  size_t live = 0;
  {
    optimize::SemanticCache cache(options);
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &cache);
    ASSERT_TRUE(store.ok());
    cache.AttachDurability(store.value().get());
    for (size_t i = 0; i < 40; ++i) {
      // 11 distinct queries over capacity 6: inserts, refreshes (repeats)
      // and evictions all hit the WAL.
      cache.Insert("query " + std::to_string(i % 11),
                   "answer " + std::to_string(i),
                   common::Money::FromMicros(100 + static_cast<int64_t>(i)));
    }
    image = Image(cache);
    live = cache.Size();
  }
  optimize::SemanticCache recovered(options);
  auto store = durability::DurableStore::Open(
      StoreOptions(dir.path(), "cache"), &recovered);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(Image(recovered), image);
  EXPECT_EQ(recovered.Size(), live);
  EXPECT_GT(live, 0u);
  // The recovered cache serves: the final op (op 39 refreshed "query 6")
  // hits with its latest response.
  auto hit = recovered.Lookup("query 6", common::Money::FromMicros(500));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response, "answer 39");
}

TEST(DurableComponents, SemanticCacheMissHandoffWritesTheSameBytes) {
  // CachedLlm hands each missed Lookup's probe to its Insert, which then
  // reuses the embedding and may skip its near-duplicate search. Neither
  // may change a decision: a cache driven through CachedLlm must end with
  // the same snapshot, WAL and stats as one fed the same stream through
  // Lookup plus a handle-less Insert. Repeats and paraphrases over a small
  // two-shard cache make inserts and evictions happen; a threshold no score
  // reaches also sends every repeat down the refresh path. A third path
  // probes each query without a handle first: that miss is remembered by
  // the shard's probe memo, and the handled lookup after it must still
  // search and fill the handle, so its Insert writes the same bytes.
  const std::vector<std::string> topics = {
      "stadiums that hosted concerts in 2014",
      "patients with a diabetes diagnosis",
      "average salary by department",
      "flights delayed out of boston",
      "novels written by tolstoy",
      "students enrolled in calculus",
      "orders shipped to canada last week",
      "movies released before 1990",
      "employees hired after march",
      "rivers longer than a thousand kilometres",
      "songs recorded by the beatles",
      "cars with electric engines",
      "museums open on sundays"};
  // Even steps repeat three hot topics verbatim; odd steps churn through
  // paraphrases of the other ten.
  std::vector<std::string> stream;
  for (size_t i = 0; i < 90; ++i) {
    const size_t j = i / 2;
    if (i % 2 == 0) {
      stream.push_back(topics[j % 3]);
      continue;
    }
    const std::string& topic = topics[3 + (j * 7) % 10];
    switch (j % 3) {
      case 0: stream.push_back(topic); break;
      case 1: stream.push_back("show me " + topic); break;
      default: stream.push_back("list all " + topic + " please"); break;
    }
  }
  struct Outcome {
    std::string snapshot;
    std::string wal;
    optimize::SemanticCache::Stats stats;
    size_t live = 0;
  };
  enum class Path { kPlain, kCachedLlm, kProbedFirst };
  auto run = [&](const optimize::SemanticCache::Options& options, Path path) {
    TempDir dir;
    dir.Track("cache.snap");
    dir.Track("cache.wal.0");
    optimize::SemanticCache cache(options);
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &cache);
    EXPECT_TRUE(store.ok());
    cache.AttachDurability(store.value().get());
    std::shared_ptr<llm::LlmModel> model =
        llm::CreatePaperModelLadder(nullptr, 41)[2];
    optimize::CachedLlm cached(model, &cache);
    for (const std::string& query : stream) {
      const llm::Prompt prompt = llm::MakePrompt("freeform", query);
      if (path == Path::kCachedLlm) {
        EXPECT_TRUE(cached.Complete(prompt).ok());
        continue;
      }
      const common::Money avoided = llm::PriceTokens(
          model->spec().input_price_per_1k, prompt.CountInputTokens());
      const common::Money output_price = model->spec().output_price_per_1k;
      if (cache.Lookup(query, avoided, output_price).has_value()) continue;
      optimize::SemanticCache::Miss miss;
      if (path == Path::kProbedFirst) {
        EXPECT_FALSE(
            cache.Lookup(query, avoided, output_price, &miss).has_value());
        EXPECT_EQ(miss.cache, &cache);
        EXPECT_EQ(miss.query, query);
        EXPECT_FALSE(miss.embedding.empty());
      }
      auto answer = model->Complete(prompt);
      EXPECT_TRUE(answer.ok());
      cache.Insert(query, answer->text, answer->cost,
                   path == Path::kProbedFirst ? &miss : nullptr);
    }
    Outcome out;
    out.snapshot = Image(cache);
    out.wal = ReadFileBytes(dir.path() + "/cache.wal.0");
    out.stats = cache.stats();
    out.live = cache.Size();
    return out;
  };
  for (double threshold : {0.85, 2.0}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    optimize::SemanticCache::Options options;
    options.capacity = 6;
    options.num_shards = 2;
    options.similarity_threshold = threshold;
    const Outcome plain = run(options, Path::kPlain);
    const Outcome handed = run(options, Path::kCachedLlm);
    const Outcome probed = run(options, Path::kProbedFirst);
    for (const Outcome* other : {&handed, &probed}) {
      EXPECT_EQ(other->snapshot, plain.snapshot);
      EXPECT_EQ(other->wal, plain.wal);
      EXPECT_EQ(other->stats.hits, plain.stats.hits);
      EXPECT_EQ(other->stats.insertions, plain.stats.insertions);
      EXPECT_EQ(other->stats.evictions, plain.stats.evictions);
      EXPECT_EQ(other->stats.admission_rejections,
                plain.stats.admission_rejections);
      EXPECT_EQ(other->stats.saved, plain.stats.saved);
      EXPECT_EQ(other->live, plain.live);
    }
    EXPECT_EQ(handed.stats.lookups, plain.stats.lookups);
    // One more lookup per miss: the handled one after the first probe.
    EXPECT_EQ(probed.stats.lookups,
              2 * plain.stats.lookups - plain.stats.hits);
    // The stream really does exercise every mutation kind.
    EXPECT_GT(plain.stats.evictions, 0u);
    if (threshold > 1.0) {
      EXPECT_EQ(plain.stats.hits, 0u);
      // Every insertion that did not add a live or evicted entry refreshed.
      EXPECT_GT(plain.stats.insertions, plain.stats.evictions + plain.live);
    } else {
      EXPECT_GT(plain.stats.hits, 0u);
    }
  }
}

TEST(DurableComponents, SemanticCacheRejectsSnapshotWithWrongShardCount) {
  TempDir dir;
  dir.Track("cache.snap");
  dir.Track("cache.wal.0");
  dir.Track("cache.wal.1");
  optimize::SemanticCache::Options options;
  options.num_shards = 2;
  {
    optimize::SemanticCache cache(options);
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &cache);
    ASSERT_TRUE(store.ok());
    cache.AttachDurability(store.value().get());
    cache.Insert("q", "r");
    ASSERT_TRUE(store.value()->Checkpoint().ok());
  }
  // A 4-shard cache cannot host a 2-shard image (ids are shard-relative):
  // recovery treats it like corruption and starts empty rather than crash.
  options.num_shards = 4;
  optimize::SemanticCache reshaped(options);
  auto store = durability::DurableStore::Open(
      StoreOptions(dir.path(), "cache"), &reshaped);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->recovery_info().snapshot_corrupt);
  EXPECT_EQ(reshaped.Size(), 0u);
}

// A snapshot is checksummed, not trusted: a valid file whose entry count
// claims far more entries than its payload holds must fall back to an
// empty cache, not size an allocation from the count (a throw out of Open,
// or an allocation-size abort under ASan).
TEST(DurableComponents, SemanticCacheSnapshotWithHugeSlotCountFallsBackToEmpty) {
  for (uint64_t count : {uint64_t{1} << 40,
                         std::numeric_limits<uint64_t>::max()}) {
    TempDir dir;
    dir.Track("cache.snap");
    dir.Track("cache.wal.0");
    std::string payload;
    durability::AppendU32(&payload, 1);  // shards, as configured below
    durability::AppendU64(&payload, std::numeric_limits<uint64_t>::max());
    durability::AppendU64(&payload, count);
    durability::AppendU64(&payload, 0);  // the first entry's id, then nothing
    ASSERT_TRUE(durability::WriteSnapshotFile(dir.path() + "/cache.snap", 3,
                                              payload, false)
                    .ok());
    optimize::SemanticCache cache({});
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &cache);
    ASSERT_TRUE(store.ok()) << count;
    EXPECT_TRUE(store.value()->recovery_info().snapshot_corrupt) << count;
    EXPECT_EQ(cache.Size(), 0u) << count;
  }
}

// Ids come from a per-shard counter that the snapshot carries. Here the
// newest entry is evicted before the checkpoint, so the counter is past
// every live id: recovery must continue from it, or the inserts replayed
// on top of the snapshot would take ids the live process never gave them.
TEST(DurableComponents, SemanticCacheNeverReusesAnIdAcrossRecovery) {
  TempDir dir;
  dir.Track("cache.snap");
  dir.Track("cache.wal.0");
  dir.Track("cache.wal.1");
  optimize::SemanticCache::Options options;
  options.capacity = 2;
  options.policy = optimize::EvictionPolicy::kLfu;
  const std::vector<std::string> queries = {
      "stadiums that hosted concerts in 2014",
      "patients with a diabetes diagnosis", "average salary by department",
      "flights delayed out of boston", "novels written by tolstoy"};
  std::string image;
  {
    optimize::SemanticCache cache(options);
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &cache);
    ASSERT_TRUE(store.ok());
    cache.AttachDurability(store.value().get());
    cache.Insert(queries[0], "a");
    cache.Insert(queries[1], "b");
    ASSERT_TRUE(cache.Lookup(queries[0]).has_value());
    ASSERT_TRUE(cache.Lookup(queries[1]).has_value());
    // Never hit, so the least used: each later insert evicts itself.
    for (size_t i = 2; i < queries.size(); ++i) {
      if (i == 3) {
        ASSERT_TRUE(store.value()->Checkpoint().ok());
      }
      cache.Insert(queries[i], "x");
      ASSERT_EQ(cache.stats().evictions, i - 1);
    }
    ASSERT_TRUE(cache.Lookup(queries[0]).has_value());
    ASSERT_TRUE(cache.Lookup(queries[1]).has_value());
    image = Image(cache);
  }
  optimize::SemanticCache recovered(options);
  auto store = durability::DurableStore::Open(
      StoreOptions(dir.path(), "cache"), &recovered);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value()->recovery_info().snapshot_loaded);
  EXPECT_EQ(store.value()->recovery_info().wal_records_replayed, 4u);
  EXPECT_EQ(Image(recovered), image);
}

// Version 1 of the formats numbered cache entries by slot: its snapshot
// kept dead slots and its WAL had a fourth record kind, kCompact (op 4),
// that renumbered them. Version 2 has no reader for it; a version-1 store
// opens as an empty cache through the checks for a foreign version, both
// when it was checkpointed (snapshot plus WAL) and when it never was (WAL
// only), and the store is usable afterwards.
TEST(DurableComponents, SemanticCacheOpensAVersionOneStoreEmpty) {
  std::string slots;  // one shard: a live slot, then a dead one
  durability::AppendU32(&slots, 1);
  durability::AppendU64(&slots, 2);
  durability::AppendU8(&slots, 1);
  durability::AppendString(&slots, "stadiums that hosted concerts in 2014");
  durability::AppendString(&slots, "SELECT name FROM stadium");
  durability::AppendI64(&slots, 120);
  durability::AppendU8(&slots, 0);
  auto snapshot_v1 = [&](uint64_t epoch) {
    std::string bytes = "LDMSNAP1";
    durability::AppendU32(&bytes, 1);
    durability::AppendU64(&bytes, epoch);
    durability::AppendU64(&bytes, slots.size());
    bytes += slots;
    durability::AppendU64(&bytes,
                          common::Fnv1a(std::string_view(bytes).substr(8)));
    return bytes;
  };
  auto wal_v1 = [](uint64_t epoch) {
    std::vector<std::string> records(3);
    durability::AppendU8(&records[0], 1);  // kInsert into shard 0
    durability::AppendU32(&records[0], 0);
    durability::AppendString(&records[0], "novels written by tolstoy");
    durability::AppendString(&records[0], "SELECT title FROM novel");
    durability::AppendI64(&records[0], 80);
    durability::AppendU8(&records[1], 3);  // kEvict slot 0
    durability::AppendU32(&records[1], 0);
    durability::AppendU64(&records[1], 0);
    durability::AppendU8(&records[2], 4);  // kCompact shard 0
    durability::AppendU32(&records[2], 0);
    std::string bytes = "LDMWAL01";
    durability::AppendU32(&bytes, 1);
    durability::AppendU64(&bytes, epoch);
    for (const std::string& record : records) {
      durability::AppendU32(&bytes, static_cast<uint32_t>(record.size()));
      durability::AppendU64(&bytes, common::Fnv1a(record));
      bytes += record;
    }
    return bytes;
  };
  for (bool checkpointed : {true, false}) {
    SCOPED_TRACE(checkpointed ? "snapshot and WAL" : "WAL only");
    TempDir dir;
    for (const char* name : {"cache.snap", "cache.wal.0", "cache.wal.1"}) {
      dir.Track(name);
    }
    if (checkpointed) {
      WriteFileBytes(dir.path() + "/cache.snap", snapshot_v1(1));
      WriteFileBytes(dir.path() + "/cache.wal.1", wal_v1(1));
    } else {
      WriteFileBytes(dir.path() + "/cache.wal.0", wal_v1(0));
    }
    {
      optimize::SemanticCache cache({});
      auto store = durability::DurableStore::Open(
          StoreOptions(dir.path(), "cache"), &cache);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const auto& info = store.value()->recovery_info();
      EXPECT_FALSE(info.snapshot_loaded);
      EXPECT_EQ(info.snapshot_corrupt, checkpointed);
      EXPECT_EQ(info.wal_records_replayed, 0u);
      EXPECT_EQ(cache.Size(), 0u);
      cache.AttachDurability(store.value().get());
      cache.Insert("average salary by department", "SELECT avg(salary)");
    }
    optimize::SemanticCache reopened({});
    auto store = durability::DurableStore::Open(
        StoreOptions(dir.path(), "cache"), &reopened);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(reopened.Size(), 1u);
    EXPECT_TRUE(reopened.Lookup("average salary by department").has_value());
  }
}

// ---------------------------------------------------------------------------
// serve::Server virtual-time maintenance hook (the checkpoint driver).

TEST(ServeMaintenance, HookFiresAtMostOncePerSubmission) {
  llm::ModelSpec spec;
  spec.name = "sim-maint";
  spec.capability = 0.9;
  spec.latency_ms_per_1k_tokens = 100.0;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, 3);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());

  size_t fires = 0;
  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.maintenance_interval_vms = 10.0;
  options.maintenance_hook = [&fires] { ++fires; };
  serve::Server server(model, options);

  // Boundaries at 10, 20, 30, ...: arrival 12 crosses one, 25 crosses 20,
  // and 55 crosses 30, 40 and 50 but fires once — a long gap is not caught
  // up one run per boundary under the admission lock. The next boundary is
  // then the first one past the arrival (60).
  const double arrivals[] = {0.0, 5.0, 12.0, 25.0, 55.0};
  uint64_t id = 0;
  auto submit = [&](double at) {
    serve::Request request;
    request.id = id++;
    request.input = "question";
    request.arrival_vms = at;
    server.Submit(request);
  };
  for (double at : arrivals) submit(at);
  EXPECT_EQ(fires, 3u);
  submit(58.0);  // still short of 60
  EXPECT_EQ(fires, 3u);
  // An arrival so far out that adding one interval no longer changes the
  // double: stepping boundary by boundary would never reach it.
  submit(1e18);
  EXPECT_EQ(fires, 4u);
  auto responses = server.Drain();
  EXPECT_EQ(responses.size(), 7u);
  EXPECT_EQ(fires, 4u);  // Drain adds no phantom boundary crossings
}

TEST(ServeMaintenance, HookCanCheckpointADurableCacheUnderLoad) {
  // End-to-end shape of the durability wiring: a CachedLlm populates a
  // durable SemanticCache from worker threads while the *submitting* thread
  // periodically checkpoints through the maintenance hook — the commit gate
  // keeps snapshot and WAL consistent. Afterwards a fresh cache recovered
  // from disk must byte-match the live one.
  TempDir dir;
  dir.Track("mc.snap");
  for (int e = 0; e < 12; ++e) dir.Track("mc.wal." + std::to_string(e));

  llm::ModelSpec spec;
  spec.name = "sim-maint";
  spec.capability = 0.9;
  spec.latency_ms_per_1k_tokens = 100.0;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, 3);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());

  optimize::SemanticCache::Options cache_options;
  cache_options.capacity = 32;
  optimize::SemanticCache cache(cache_options);
  auto store = durability::DurableStore::Open(
      StoreOptions(dir.path(), "mc"), &cache);
  ASSERT_TRUE(store.ok());
  cache.AttachDurability(store.value().get());
  auto cached = std::make_shared<optimize::CachedLlm>(model, &cache);

  serve::Server::Options options;
  options.worker_threads = 4;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.maintenance_interval_vms = 50.0;
  durability::DurableStore* raw_store = store.value().get();
  options.maintenance_hook = [raw_store] {
    ASSERT_TRUE(raw_store->Checkpoint().ok());
  };
  serve::Server server(cached, options);
  for (uint64_t i = 0; i < 60; ++i) {
    serve::Request request;
    request.id = i;
    request.input = "question " + std::to_string(i % 12);
    request.arrival_vms = static_cast<double>(i) * 7.0;
    server.Submit(request);
  }
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), 60u);
  EXPECT_GT(store.value()->epoch(), 0u);  // checkpoints actually ran

  const std::string image = Image(cache);
  optimize::SemanticCache recovered(cache_options);
  auto reopened = durability::DurableStore::Open(
      StoreOptions(dir.path(), "mc"), &recovered);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Image(recovered), image);
}

}  // namespace
}  // namespace llmdm
