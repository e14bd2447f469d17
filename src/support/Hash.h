//===- support/Hash.h - The project's one FNV-1a ---------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a 64, the only hash in the system: plan fingerprints, wire
/// checksums, fault-site decisions, toolchain identities and on-disk
/// record checksums. It detects accidental damage, not tampering.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_HASH_H
#define CMCC_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace cmcc {

/// The standard FNV-1a 64 offset basis (the hash of no bytes).
inline constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ull;

/// The seed plan fingerprints, fault sites and toolchain identities have
/// always used: the offset basis missing its last decimal digit. It
/// stays, since changing it would re-key every on-disk record and every
/// seeded fault pattern.
inline constexpr uint64_t FingerprintSeed = 1469598103934665603ull;

/// FNV-1a 64 over \p Len bytes, continuing from \p Seed (pass a previous
/// result to hash several pieces as one stream).
inline uint64_t fnv1a64(const void *Data, size_t Len,
                        uint64_t Seed = FnvOffsetBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I)
    Seed = (Seed ^ P[I]) * 0x100000001b3ull;
  return Seed;
}

inline uint64_t fnv1a64(std::string_view Text,
                        uint64_t Seed = FnvOffsetBasis) {
  return fnv1a64(Text.data(), Text.size(), Seed);
}

/// A C string and a seed would silently bind to (bytes, length) above.
uint64_t fnv1a64(const char *Text, uint64_t Seed) = delete;

/// \p V as 16 lowercase hex digits: how every fingerprint, checksum and
/// toolchain identity is spelled in file names and records.
inline std::string fingerprintHex(uint64_t V) {
  char Buffer[17];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(V));
  return Buffer;
}

} // namespace cmcc

#endif // CMCC_SUPPORT_HASH_H
