//===- backends/njit/ArtifactCache.h - Compiled-kernel cache --*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-tier cache of njit-compiled kernels keyed by plan fingerprint:
/// an in-memory handle table (fingerprint -> dlopen'd kernel pointer) in
/// front of bare support/DiskStore records
/// <dir>/cc-<toolchain-hash>/<fingerprint-hex>.so, the emitted .cpp kept
/// beside each for inspection.
///
/// The subdirectory is the *toolchain identity* (resolved compiler path
/// + size + mtime + flags + emitter version — see Toolchain.h), so
/// objects built by another compiler, other flags, or an older emitter
/// are invisible, never mis-loaded, and a warm restart invokes the
/// toolchain zero times. A truncated, corrupt, or tampered .so fails
/// this cache's own checks — ELF magic, embedded fingerprint, dlopen,
/// ABI version, fingerprint stamp, kernel symbol — and is the store's
/// counted reject: removed, then recompiled fresh; never a crash, never
/// a stale result (tests/njit_test corrupts artifacts on purpose).
///
/// Handles are never dlclose'd: a kernel pointer may be executing on a
/// pool thread with no lifetime tie to the cache entry, and the table
/// is bounded by the number of distinct plans.
///
/// Fault site: `njit.cc` fires as a failed toolchain invocation
/// (transient — the service's retry/fallback ladder handles it).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H
#define CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H

#include "backends/njit/Emitter.h"
#include "backends/njit/Toolchain.h"
#include "stencil/StencilSpec.h"
#include "support/DiskStore.h"
#include "support/Error.h"
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cmcc {
namespace njit {

/// One loaded kernel.
struct Artifact {
  KernelFn Kernel = nullptr;
};

/// The two-tier kernel cache for one artifact directory.
class ArtifactCache {
public:
  struct Options {
    /// Root of the on-disk tier (created on first compile). Artifacts
    /// live in a per-toolchain subdirectory under it.
    std::string DiskDir = ".cmccjit";
  };

  /// Monotonic counters (relaxed reads; the same shape as
  /// PlanCache::Counters so dashboards line up).
  struct Counters {
    long MemHits = 0;     ///< In-memory handle-table hits.
    long DiskHits = 0;    ///< dlopen'd from disk, all checks passed.
    long DiskRejects = 0; ///< Disk artifact present but unloadable/wrong.
    long Misses = 0;      ///< Neither tier had a usable kernel.
    long Compiles = 0;    ///< Toolchain invocations (the warm path's zero).
  };

  explicit ArtifactCache(const Options &Opts);

  /// Returns the kernel for \p Fingerprint / \p Spec, consulting memory,
  /// then disk, then emitting + compiling + dlopen'ing. Thread-safe; a
  /// compile is performed at most once per fingerprint per process (the
  /// table mutex doubles as compile dedup — compiles are rare and
  /// front-loaded, exactly like the service's plan compiles).
  Expected<Artifact> lookup(uint64_t Fingerprint, const StencilSpec &Spec);

  Counters counters() const;

  /// Where \p Fingerprint's shared object lives on disk (empty when no
  /// toolchain was detected). Exposed for tests and for the TUTORIAL's
  /// inspect-the-artifact walkthrough.
  std::string artifactPath(uint64_t Fingerprint) const;

private:
  /// dlopen + symbol/ABI/fingerprint checks. Counts nothing itself.
  Expected<Artifact> openArtifact(const std::string &Path,
                                  const std::string &FingerprintHex);
  /// Emit, shell out to the compiler, atomically install the .so.
  Error compileArtifact(uint64_t Fingerprint, const StencilSpec &Spec);

  /// Detected once, at construction (stat-only, no exec).
  const Expected<Toolchain> TC;
  /// <fp>.so and the emitted <fp>.cpp, under cc-<toolchain-hash>/.
  DiskStore Objects, Sources;
  std::mutex Mutex;
  std::unordered_map<uint64_t, Artifact> Table;

  mutable std::atomic<long> MemHits{0}, Misses{0}, Compiles{0};
};

} // namespace njit
} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H
