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
/// fnv1a64Words is its word-parallel form for bulk data (grid
/// payloads on the wire), where the byte-serial loop would cost more
/// than moving the bytes.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_HASH_H
#define CMCC_SUPPORT_HASH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace cmcc {

/// The standard FNV-1a 64 offset basis (the hash of no bytes).
inline constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ull;

/// The FNV 64-bit prime.
inline constexpr uint64_t FnvPrime = 0x100000001b3ull;

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
    Seed = (Seed ^ P[I]) * FnvPrime;
  return Seed;
}

inline uint64_t fnv1a64(std::string_view Text,
                        uint64_t Seed = FnvOffsetBasis) {
  return fnv1a64(Text.data(), Text.size(), Seed);
}

/// FNV-1a 64 steps on the little-endian 64-bit words of \p Data, in 8
/// interleaved lanes (word I feeds lane I % 8) so the multiplies
/// overlap: memory speed instead of the byte loop's one multiply per
/// byte. Each step rotates the product by 29 bits, so its high bits
/// reach the next multiply's low bits (a plain word step would carry a
/// flip of bit 63 along unmixed, and two such flips in one lane would
/// cancel). The lane states, the tail bytes (Len % 64) and Len are then
/// folded together with fnv1a64. Each step is a bijection of the lane
/// state, so a change to any one word (every single-bit flip included)
/// always changes the result.
inline uint64_t fnv1a64Words(const void *Data, size_t Len) {
  constexpr size_t Lanes = 8;
  constexpr size_t Block = Lanes * sizeof(uint64_t);
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H[Lanes];
  for (size_t L = 0; L != Lanes; ++L)
    H[L] = (FnvOffsetBasis ^ L) * FnvPrime;
  size_t I = 0;
  for (; Len - I >= Block; I += Block) {
#pragma GCC unroll 8
    for (size_t L = 0; L != Lanes; ++L) {
      uint64_t W;
      std::memcpy(&W, P + I + L * sizeof(uint64_t), sizeof(W));
      if constexpr (std::endian::native == std::endian::big)
        W = __builtin_bswap64(W);
      H[L] = std::rotl((H[L] ^ W) * FnvPrime, 29);
    }
  }
  auto FoldLe = [](uint64_t Seed, uint64_t V) {
    for (size_t B = 0; B != sizeof(V); ++B)
      Seed = (Seed ^ static_cast<unsigned char>(V >> (8 * B))) * FnvPrime;
    return Seed;
  };
  uint64_t R = FnvOffsetBasis;
  for (uint64_t S : H)
    R = FoldLe(R, S);
  R = fnv1a64(P + I, Len - I, R);
  return FoldLe(R, static_cast<uint64_t>(Len));
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
