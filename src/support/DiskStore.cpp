//===- support/DiskStore.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/DiskStore.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

using namespace cmcc;

std::string DiskStore::path(uint64_t Key) const {
  return Opts.Dir + (Opts.Subdir.empty() ? "" : "/" + Opts.Subdir) + "/" +
         fingerprintHex(Key) + "." + Opts.Ext;
}

std::string DiskStore::header(uint64_t Key, const Stamp &S,
                              const std::string &Payload) const {
  std::string Out =
      Opts.Format + "\nfingerprint " + fingerprintHex(Key) + "\n";
  for (const auto &[Name, Value] : S)
    Out += Name + " " + Value + "\n";
  return Out + "length " + std::to_string(Payload.size()) + "\nfnv1a64 " +
         fingerprintHex(fnv1a64(Payload)) + "\n";
}

DiskStore::Outcome DiskStore::reject(const std::string &Path, bool Remove) {
  Rejects.fetch_add(1, std::memory_order_relaxed);
  if (Remove)
    std::remove(Path.c_str());
  return Outcome::Rejected;
}

DiskStore::Outcome
DiskStore::load(uint64_t Key, const Stamp &S,
                const std::function<bool(const std::string &)> &Accept) {
  if (!enabled())
    return Outcome::Absent;
  const std::string Path = path(Key);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Outcome::Absent;
  // An injected read fault acts like a transient read error: counted as
  // damage, but the file stays.
  if (Opts.ReadFaultSite && fault::probe(Opts.ReadFaultSite))
    return reject(Path, /*Remove=*/false);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  if (!Opts.Format.empty()) {
    // Split after the header's last line (format, key, stamp, length,
    // checksum), then demand the exact header the payload implies.
    size_t End = 0;
    for (size_t Line = 0; Line != 4 + S.size(); ++Line) {
      End = Bytes.find('\n', End);
      if (End == std::string::npos)
        return reject(Path, /*Remove=*/true);
      ++End;
    }
    std::string Payload = Bytes.substr(End);
    if (Bytes.compare(0, End, header(Key, S, Payload)) != 0)
      return reject(Path, /*Remove=*/true);
    Bytes = std::move(Payload);
  }
  if (!Accept(Bytes))
    return reject(Path, /*Remove=*/true);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return Outcome::Hit;
}

bool DiskStore::store(uint64_t Key, const Stamp &S,
                      const std::string &Payload) {
  const std::string Bytes =
      Opts.Format.empty() ? Payload : header(Key, S, Payload) + Payload;
  return install(Key, [&](const std::string &TempPath) {
    std::FILE *F = std::fopen(TempPath.c_str(), "wb");
    if (!F)
      return false;
    bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
    return std::fclose(F) == 0 && Ok;
  });
}

bool DiskStore::install(
    uint64_t Key, const std::function<bool(const std::string &)> &Write) {
  // An injected write fault loses the record silently, like a full disk.
  if (!enabled() || (Opts.WriteFaultSite && fault::probe(Opts.WriteFaultSite)))
    return false;
  const std::string Path = path(Key);
  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC);
  // Unique per process and per call: concurrent writers of one key, in
  // any thread or process, never share a temporary.
  static std::atomic<unsigned long> Sequence{0};
  const std::string TempPath =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(Sequence.fetch_add(1, std::memory_order_relaxed));
  if (EC || !Write(TempPath) ||
      std::rename(TempPath.c_str(), Path.c_str()) != 0) {
    std::remove(TempPath.c_str());
    return false;
  }
  Writes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

DiskStore::Counters DiskStore::counters() const {
  return {Hits.load(std::memory_order_relaxed),
          Rejects.load(std::memory_order_relaxed),
          Writes.load(std::memory_order_relaxed)};
}
