//===- support/DiskStore.h - Content-addressed on-disk records -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk store behind every persisted artifact (DESIGN.md §5,
/// "On-disk records"): <Dir>[/<Subdir>]/<key-hex16>.<Ext>, installed by
/// renaming a temporary unique to the process and the call, so no reader
/// sees a torn record. Text records carry an envelope that must match,
/// byte for byte, the one store() would write for the payload after it:
///
///     cmcc-tune v2                  Options::Format
///     fingerprint 0123456789abcdef  the key
///     machine 4x4@7                 the caller's stamp lines, in order
///     length 57                     payload bytes
///     fnv1a64 89abcdef01234567      FNV-1a64 of the payload
///
/// Any mismatch, or a payload the owner refuses, is one counted reject
/// that removes the file. Thread-safe and best-effort.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_DISKSTORE_H
#define CMCC_SUPPORT_DISKSTORE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cmcc {

class DiskStore {
public:
  /// "<name> <value>" lines a record must carry to be valid for the
  /// caller (its machine, its backend). No part contains '\n'.
  using Stamp = std::vector<std::pair<std::string, std::string>>;

  struct Options {
    std::string Dir;    ///< Root, created on first install; empty = off.
    std::string Ext;    ///< File extension, without the dot.
    std::string Format = ""; ///< Envelope line "<format> v<N>"; "" = bare.
    /// Fault sites probed when a present record is read (it then counts
    /// as a reject but is kept) and when one is installed (the write is
    /// lost). Null = none. String literals: the flight recorder keeps
    /// the pointer.
    const char *ReadFaultSite = nullptr;
    const char *WriteFaultSite = nullptr;
    std::string Subdir = ""; ///< Stamp-named subdirectory of Dir, if any.
  };

  struct Counters {
    long Hits = 0;    ///< Records read whole and accepted.
    long Rejects = 0; ///< Records present but damaged, foreign or refused.
    long Writes = 0;  ///< Records installed.
  };

  enum class Outcome { Absent, Rejected, Hit };

  explicit DiskStore(Options Opts) : Opts(std::move(Opts)) {}

  bool enabled() const { return !Opts.Dir.empty(); }
  std::string path(uint64_t Key) const;

  /// Reads \p Key's record: Absent (nothing counted) when there is no
  /// file; otherwise checks the envelope against \p Key and \p S and
  /// hands the payload to \p Accept — a Hit when it returns true, else
  /// Rejected.
  Outcome load(uint64_t Key, const Stamp &S,
               const std::function<bool(const std::string &Payload)> &Accept);

  /// Installs \p Payload, in its envelope, as \p Key's record.
  bool store(uint64_t Key, const Stamp &S, const std::string &Payload);

  /// Installs a record another program writes: \p Write fills a fresh
  /// temporary in the record's (created) directory, which replaces the
  /// record when \p Write returns true. The temporary never outlives
  /// the call.
  bool install(uint64_t Key,
               const std::function<bool(const std::string &TempPath)> &Write);

  Counters counters() const;

private:
  std::string header(uint64_t Key, const Stamp &S,
                     const std::string &Payload) const;
  Outcome reject(const std::string &Path, bool Remove);

  Options Opts;
  std::atomic<long> Hits{0}, Rejects{0}, Writes{0};
};

} // namespace cmcc

#endif // CMCC_SUPPORT_DISKSTORE_H
