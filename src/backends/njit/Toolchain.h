//===- backends/njit/Toolchain.h - Host C++ toolchain discovery *- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locates the host C++ compiler the njit backend shells out to, and
/// derives a stable *identity hash* for it so compiled artifacts can be
/// keyed by the toolchain that produced them (swap the compiler, get a
/// fresh artifact namespace — never a stale .so built by someone else's
/// flags).
///
/// Discovery order:
///
///   1. CMCC_NJIT_CC, when set, is authoritative: if it does not name
///      an executable the backend reports itself unavailable rather
///      than silently picking another compiler;
///   2. the compiler that built this binary (CMCC_HOST_CXX, baked in by
///      CMake), which is guaranteed compatible with the emitted code;
///   3. `c++`, `g++`, `clang++` on PATH.
///
/// Identity is computed without *executing* anything — resolved path +
/// file size + mtime + the compile flags + the emitter version — so a
/// warm artifact cache costs zero toolchain invocations to open (the
/// warm-restart drill in CI asserts exactly that).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_TOOLCHAIN_H
#define CMCC_BACKENDS_NJIT_TOOLCHAIN_H

#include "support/Error.h"
#include <cstdint>
#include <string>

namespace cmcc {
namespace njit {

/// Bump whenever the emitted source or the kernel ABI changes: the
/// version participates in the toolchain identity hash, so old on-disk
/// artifacts are simply never found again instead of being dlopen'd
/// with a mismatched ABI.
inline constexpr int EmitterVersion = 1;

/// The flags every njit artifact is compiled with. -ffp-contract=off is
/// load-bearing: the emitted chain must round every product before its
/// add, exactly like the native backend and the simulated FPU.
inline constexpr const char *CompileFlags =
    "-O3 -shared -fPIC -ffp-contract=off";

/// A usable host compiler.
struct Toolchain {
  /// Resolved absolute path of the compiler executable.
  std::string Compiler;
  /// FNV-1a over (path, size, mtime, flags, emitter version): the
  /// artifact cache's per-toolchain namespace.
  uint64_t IdentityHash = 0;
};

/// Finds the host compiler per the discovery order above. The result is
/// not cached: callers (the artifact cache) hold onto it. Fails with a
/// message naming what was tried when no compiler is found.
Expected<Toolchain> detectToolchain();

/// True when detectToolchain() would succeed (the registry's
/// availability probe; cheap — a handful of stat calls, no exec).
bool toolchainAvailable();

} // namespace njit
} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_TOOLCHAIN_H
