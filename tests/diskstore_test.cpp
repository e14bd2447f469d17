//===- tests/diskstore_test.cpp - On-disk record store tests ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for support/DiskStore, the one store behind the plan cache,
/// the autotuner and the njit artifact cache: layout, every envelope
/// damage case as exactly one counted reject that removes the file,
/// leftover temporaries, bare records, and concurrent same-key writers
/// and readers (a reader sees nothing or a whole record).
///
//===----------------------------------------------------------------------===//

#include "support/DiskStore.h"
#include <atomic>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

using namespace cmcc;
namespace fs = std::filesystem;

namespace {

struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Name)
      : Path(fs::temp_directory_path() /
             (std::string("cmcc_diskstore_test_") + Name)) {
    fs::remove_all(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
};

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::string &Bytes) {
  fs::create_directories(fs::path(Path).parent_path());
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
}

DiskStore::Options textOptions(const std::string &Dir,
                               const char *Format = "cmcc-test v1") {
  DiskStore::Options O;
  O.Dir = Dir;
  O.Ext = "rec";
  O.Format = Format;
  return O;
}

const DiskStore::Stamp TestStamp = {{"machine", "4x4@7"},
                                    {"backend", "native"}};
constexpr uint64_t Key = 0x0123456789abcdefull;
const std::string Payload = "time_tile 4\nthreads 0\nscore_us 1.5\n";

/// Loads \p Key expecting the payload; returns the outcome.
DiskStore::Outcome loadExpecting(DiskStore &S, uint64_t K,
                                 const DiskStore::Stamp &St,
                                 const std::string &Want, bool *Called) {
  *Called = false;
  return S.load(K, St, [&](const std::string &Got) {
    *Called = true;
    EXPECT_EQ(Got, Want);
    return true;
  });
}

size_t filesIn(const std::string &Dir) {
  if (!fs::exists(Dir))
    return 0;
  return static_cast<size_t>(std::distance(fs::directory_iterator(Dir),
                                           fs::directory_iterator()));
}

} // namespace

TEST(DiskStoreTest, LayoutRoundTripAndCounters) {
  ScratchDir Dir("roundtrip");
  DiskStore Store(textOptions(Dir.Path));
  EXPECT_EQ(Store.path(Key), Dir.Path + "/0123456789abcdef.rec");

  bool Called = false;
  EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Absent);
  EXPECT_FALSE(Called);

  ASSERT_TRUE(Store.store(Key, TestStamp, Payload));
  EXPECT_EQ(filesIn(Dir.Path), 1u); // No temporary left behind.
  const std::string Bytes = readAll(Store.path(Key));
  const std::string Header = "cmcc-test v1\nfingerprint 0123456789abcdef\n"
                             "machine 4x4@7\nbackend native\nlength " +
                             std::to_string(Payload.size()) + "\nfnv1a64 ";
  EXPECT_EQ(Bytes.rfind(Header, 0), 0u) << Bytes;
  EXPECT_EQ(Bytes.substr(Bytes.size() - Payload.size()), Payload);

  EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Hit);
  EXPECT_TRUE(Called);
  DiskStore::Counters C = Store.counters();
  EXPECT_EQ(C.Hits, 1);
  EXPECT_EQ(C.Rejects, 0);
  EXPECT_EQ(C.Writes, 1);

  // A stamp-named subdirectory nests the same layout.
  DiskStore::Options Sub = textOptions(Dir.Path);
  Sub.Subdir = "cc-feed";
  DiskStore Nested(Sub);
  EXPECT_EQ(Nested.path(Key), Dir.Path + "/cc-feed/0123456789abcdef.rec");
  ASSERT_TRUE(Nested.store(Key, {}, Payload));
  EXPECT_TRUE(fs::exists(Nested.path(Key)));
}

TEST(DiskStoreTest, DisabledStoreIsAbsentAndWritesNothing) {
  DiskStore Store(textOptions(""));
  EXPECT_FALSE(Store.enabled());
  EXPECT_FALSE(Store.store(Key, {}, Payload));
  EXPECT_FALSE(Store.install(Key, [](const std::string &) { return true; }));
  bool Called = false;
  EXPECT_EQ(loadExpecting(Store, Key, {}, Payload, &Called),
            DiskStore::Outcome::Absent);
  EXPECT_EQ(Store.counters().Writes, 0);
}

TEST(DiskStoreTest, EveryEnvelopeDamageIsOneCountedRejectThatRemovesTheFile) {
  ScratchDir Dir("damage");
  DiskStore Writer(textOptions(Dir.Path));
  ASSERT_TRUE(Writer.store(Key, TestStamp, Payload));
  const std::string Path = Writer.path(Key);
  const std::string Good = readAll(Path);
  const size_t HeaderBytes = Good.size() - Payload.size();

  struct Damage {
    std::string Label;
    std::string Bytes;
  };
  std::vector<Damage> Cases = {
      {"empty file", ""},
      {"header only", Good.substr(0, HeaderBytes)},
      {"trailing bytes", Good + "voodoo 9\n"},
      {"doubled record", Good + Good},
  };
  // Every truncation point: inside the header and inside the payload.
  for (size_t Len = 1; Len < Good.size(); Len += 5)
    Cases.push_back({"truncated to " + std::to_string(Len),
                     Good.substr(0, Len)});
  // A bit flip at every byte, header and payload alike.
  for (size_t Pos = 0; Pos != Good.size(); ++Pos) {
    for (int Bit : {0, 5}) {
      std::string Flipped = Good;
      Flipped[Pos] = static_cast<char>(Flipped[Pos] ^ (1 << Bit));
      Cases.push_back({"bit " + std::to_string(Bit) + " of byte " +
                           std::to_string(Pos) +
                           (Pos < HeaderBytes ? " (header)" : " (payload)"),
                       Flipped});
    }
  }

  long WantRejects = 0;
  for (const Damage &D : Cases) {
    SCOPED_TRACE(D.Label);
    writeAll(Path, D.Bytes);
    DiskStore Store(textOptions(Dir.Path));
    bool Called = false;
    EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
              DiskStore::Outcome::Rejected);
    EXPECT_FALSE(Called); // The owner never sees a damaged payload.
    EXPECT_EQ(Store.counters().Rejects, 1);
    EXPECT_EQ(Store.counters().Hits, 0);
    EXPECT_FALSE(fs::exists(Path)); // Rejected records are removed...
    ++WantRejects;
    // ...so the next load is a plain miss, not a second reject.
    EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
              DiskStore::Outcome::Absent);
    EXPECT_EQ(Store.counters().Rejects, 1);
  }
  EXPECT_GT(WantRejects, 2 * static_cast<long>(Good.size()));
}

TEST(DiskStoreTest, ForeignKeyStampOrVersionIsRejected) {
  ScratchDir Dir("foreign");
  DiskStore Store(textOptions(Dir.Path));
  auto Reseed = [&] {
    ASSERT_TRUE(Store.store(Key, TestStamp, Payload));
  };
  bool Called = false;

  // A whole, valid record copied under another key's name.
  Reseed();
  const uint64_t Other = 0xfeedfacefeedfaceull;
  fs::copy_file(Store.path(Key), Store.path(Other));
  EXPECT_EQ(loadExpecting(Store, Other, TestStamp, Payload, &Called),
            DiskStore::Outcome::Rejected);
  EXPECT_FALSE(fs::exists(Store.path(Other)));

  // Another machine's or backend's record, or a missing stamp line.
  for (const DiskStore::Stamp &Wrong :
       {DiskStore::Stamp{{"machine", "9x9@7"}, {"backend", "native"}},
        DiskStore::Stamp{{"machine", "4x4@7"}, {"backend", "cm2"}},
        DiskStore::Stamp{{"machine", "4x4@7"}},
        DiskStore::Stamp{}}) {
    Reseed();
    EXPECT_EQ(loadExpecting(Store, Key, Wrong, Payload, &Called),
              DiskStore::Outcome::Rejected);
  }

  // A record of another format version.
  Reseed();
  DiskStore Newer(textOptions(Dir.Path, "cmcc-test v2"));
  EXPECT_EQ(loadExpecting(Newer, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Rejected);
  EXPECT_FALSE(Called);
  EXPECT_EQ(Store.counters().Rejects, 5);
  EXPECT_EQ(Newer.counters().Rejects, 1);

  // The right key, stamp and version still load.
  Reseed();
  EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Hit);
}

TEST(DiskStoreTest, OwnerRefusalIsACountedRejectThatRemovesTheFile) {
  ScratchDir Dir("refusal");
  DiskStore Store(textOptions(Dir.Path));
  ASSERT_TRUE(Store.store(Key, TestStamp, Payload));
  EXPECT_EQ(Store.load(Key, TestStamp,
                       [](const std::string &) { return false; }),
            DiskStore::Outcome::Rejected);
  EXPECT_EQ(Store.counters().Rejects, 1);
  EXPECT_EQ(Store.counters().Hits, 0);
  EXPECT_FALSE(fs::exists(Store.path(Key)));
}

TEST(DiskStoreTest, BareRecordsAreTheOwnersToValidate) {
  ScratchDir Dir("bare");
  DiskStore::Options O;
  O.Dir = Dir.Path;
  O.Ext = "so";
  DiskStore Store(O);
  ASSERT_TRUE(Store.store(Key, {}, "\x7f" "ELF raw bytes"));
  EXPECT_EQ(readAll(Store.path(Key)), "\x7f" "ELF raw bytes");
  bool Called = false;
  EXPECT_EQ(loadExpecting(Store, Key, {}, "\x7f" "ELF raw bytes", &Called),
            DiskStore::Outcome::Hit);
  writeAll(Store.path(Key), "garbage");
  EXPECT_EQ(Store.load(Key, {},
                       [](const std::string &B) {
                         return B.rfind("\x7f" "ELF", 0) == 0;
                       }),
            DiskStore::Outcome::Rejected);
  EXPECT_FALSE(fs::exists(Store.path(Key)));
}

TEST(DiskStoreTest, LeftoverTemporaryIsNeverReadAndNeverBlocksAWrite) {
  ScratchDir Dir("leftover");
  DiskStore Store(textOptions(Dir.Path));
  // A writer that died mid-write left its temporary behind.
  const std::string Leftover = Store.path(Key) + ".tmp.99999.0";
  writeAll(Leftover, "cmcc-test v1\nfingerprint 0123");
  bool Called = false;
  EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Absent);
  EXPECT_EQ(Store.counters().Rejects, 0);

  ASSERT_TRUE(Store.store(Key, TestStamp, Payload));
  EXPECT_EQ(loadExpecting(Store, Key, TestStamp, Payload, &Called),
            DiskStore::Outcome::Hit);
  EXPECT_EQ(readAll(Leftover), "cmcc-test v1\nfingerprint 0123");
  EXPECT_EQ(filesIn(Dir.Path), 2u);
}

TEST(DiskStoreTest, InstallRenamesOnSuccessAndCleansUpOnFailure) {
  ScratchDir Dir("install");
  DiskStore Store(textOptions(Dir.Path));
  std::string SeenTemp;
  EXPECT_FALSE(Store.install(Key, [&](const std::string &Temp) {
    SeenTemp = Temp;
    writeAll(Temp, "half a record");
    return false; // The producer failed (say, the compiler).
  }));
  EXPECT_NE(SeenTemp.find(".tmp."), std::string::npos);
  EXPECT_EQ(fs::path(SeenTemp).parent_path(),
            fs::path(Store.path(Key)).parent_path());
  EXPECT_FALSE(fs::exists(SeenTemp));
  EXPECT_FALSE(fs::exists(Store.path(Key)));
  EXPECT_EQ(Store.counters().Writes, 0);

  std::string SecondTemp;
  EXPECT_TRUE(Store.install(Key, [&](const std::string &Temp) {
    SecondTemp = Temp;
    writeAll(Temp, "whole");
    return true;
  }));
  EXPECT_NE(SecondTemp, SeenTemp); // Temporaries are never reused.
  EXPECT_FALSE(fs::exists(SecondTemp));
  EXPECT_EQ(readAll(Store.path(Key)), "whole");
  EXPECT_EQ(Store.counters().Writes, 1);
}

TEST(DiskStoreTest, ConcurrentSameKeyWritersAndReadersSeeWholeRecords) {
  ScratchDir Dir("concurrent");
  DiskStore Store(textOptions(Dir.Path));
  // Payloads of different lengths, so a torn mix of two never passes
  // as either.
  std::vector<std::string> Payloads;
  for (int I = 0; I != 4; ++I)
    Payloads.push_back(std::string(64 + 97 * I, static_cast<char>('a' + I)) +
                       "\n");

  constexpr int Writers = 3, Readers = 3, Rounds = 150;
  std::atomic<long> Hits{0}, Absent{0}, Torn{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      for (int R = 0; R != Rounds; ++R)
        EXPECT_TRUE(Store.store(Key, TestStamp,
                                Payloads[(W + R) % Payloads.size()]));
    });
  for (int Rd = 0; Rd != Readers; ++Rd)
    Threads.emplace_back([&] {
      for (int R = 0; R != Rounds; ++R) {
        DiskStore::Outcome O =
            Store.load(Key, TestStamp, [&](const std::string &Got) {
              for (const std::string &P : Payloads)
                if (Got == P)
                  return true;
              Torn.fetch_add(1);
              return false;
            });
        (O == DiskStore::Outcome::Hit ? Hits : Absent).fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Torn.load(), 0);
  EXPECT_EQ(Store.counters().Rejects, 0);
  EXPECT_EQ(Hits.load() + Absent.load(), Readers * Rounds);
  EXPECT_EQ(Store.counters().Writes, Writers * Rounds);
  EXPECT_EQ(filesIn(Dir.Path), 1u); // Only the record; no temporaries.
  bool Called = false;
  DiskStore::Outcome Last = Store.load(Key, TestStamp,
                                       [&](const std::string &Got) {
                                         Called = true;
                                         return Got.size() > 64;
                                       });
  EXPECT_EQ(Last, DiskStore::Outcome::Hit);
  EXPECT_TRUE(Called);
}
