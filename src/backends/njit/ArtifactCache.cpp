//===- backends/njit/ArtifactCache.cpp ------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/ArtifactCache.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>

using namespace cmcc;
using namespace cmcc::njit;

namespace {

/// Bare records under cc-<toolchain-hash>/; no toolchain, no store.
DiskStore::Options storeOptions(const std::string &Dir,
                                const Expected<Toolchain> &TC,
                                const char *Ext) {
  if (!TC)
    return {};
  return {.Dir = Dir, .Ext = Ext, .Subdir = "cc-" + fingerprintHex(TC->IdentityHash)};
}

/// Validates the bytes on disk before dlopen: once a pathname is in the
/// process's link map, dlopen returns the cached mapping without ever
/// reopening the file, so post-dlopen symbol checks cannot see on-disk
/// damage. The ELF magic catches garbage and short writes; the embedded
/// fingerprint string catches a stale or mis-keyed object.
bool plausibleArtifact(const std::string &Bytes,
                       const std::string &FingerprintHex) {
  return Bytes.size() >= 64 && Bytes.compare(0, 4, "\x7f" "ELF") == 0 &&
         Bytes.find(FingerprintHex) != std::string::npos;
}

/// Single-quotes \p S for a POSIX shell command line.
std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

} // namespace

ArtifactCache::ArtifactCache(const Options &Opts)
    : TC(detectToolchain()), Objects(storeOptions(Opts.DiskDir, TC, "so")),
      Sources(storeOptions(Opts.DiskDir, TC, "cpp")) {}

ArtifactCache::Counters ArtifactCache::counters() const {
  Counters C;
  C.MemHits = MemHits.load(std::memory_order_relaxed);
  DiskStore::Counters D = Objects.counters();
  C.DiskHits = D.Hits;
  C.DiskRejects = D.Rejects;
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.Compiles = Compiles.load(std::memory_order_relaxed);
  return C;
}

std::string ArtifactCache::artifactPath(uint64_t Fingerprint) const {
  return TC ? Objects.path(Fingerprint) : "";
}

Expected<Artifact> ArtifactCache::openArtifact(
    const std::string &Path, const std::string &FingerprintHex) {
  CMCC_SPAN("njit.dlopen");
  ::dlerror(); // Clear any stale error state.
  void *Handle = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Why = ::dlerror();
    return makeError("njit: dlopen('" + Path +
                     "') failed: " + (Why ? Why : "unknown"));
  }
  // Validate before trusting: the stamp catches a mis-keyed or stale
  // artifact, the ABI check catches one built by an older emitter that
  // somehow survived the toolchain re-namespacing.
  auto Reject = [&](const std::string &Why) -> Expected<Artifact> {
    ::dlclose(Handle);
    return makeError("njit: rejecting '" + Path + "': " + Why);
  };
  const int *Abi = reinterpret_cast<const int *>(::dlsym(Handle, AbiSymbol));
  if (!Abi)
    return Reject(std::string("missing ") + AbiSymbol);
  if (*Abi != KernelAbiVersion)
    return Reject("kernel ABI v" + std::to_string(*Abi) + ", expected v" +
                  std::to_string(KernelAbiVersion));
  const char *Stamp =
      reinterpret_cast<const char *>(::dlsym(Handle, FingerprintSymbol));
  if (!Stamp)
    return Reject(std::string("missing ") + FingerprintSymbol);
  if (FingerprintHex != Stamp)
    return Reject("fingerprint stamp " + std::string(Stamp) + " != " +
                  FingerprintHex);
  void *Sym = ::dlsym(Handle, KernelSymbol);
  if (!Sym)
    return Reject(std::string("missing ") + KernelSymbol);
  Artifact A;
  A.Kernel = reinterpret_cast<KernelFn>(Sym);
  return A;
}

Error ArtifactCache::compileArtifact(uint64_t Fingerprint,
                                     const StencilSpec &Spec) {
  const std::string FpHex = fingerprintHex(Fingerprint);
  const std::string SrcPath = Sources.path(Fingerprint);
  const std::string LogPath =
      SrcPath.substr(0, SrcPath.size() - 4) + ".log"; // Drop ".cpp".

  std::string Source;
  {
    CMCC_SPAN("njit.emit");
    Source = emitKernelSource(Spec, FpHex);
  }
  // The .cpp is kept beside the .so for inspection (TUTORIAL §12).
  if (!Sources.store(Fingerprint, {}, Source))
    return makeError("njit: cannot write '" + SrcPath + "'");

  if (fault::probe("njit.cc"))
    return fault::injectedFault("njit.cc");

  Compiles.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::process().counter("njit.compiles").add(1);
  int Rc = 0;
  bool Installed = Objects.install(Fingerprint, [&](const std::string &Out) {
    const std::string Cmd = shellQuote(TC->Compiler) + " " + CompileFlags +
                            " -o " + shellQuote(Out) + " " +
                            shellQuote(SrcPath) + " 2> " + shellQuote(LogPath);
    CMCC_SPAN("njit.cc");
    obs::ScopedLatencyUs Latency(
        obs::Registry::process().histogram("njit.compile_us"));
    Rc = std::system(Cmd.c_str());
    return Rc == 0;
  });
  if (Rc != 0)
    // Transient: the toolchain may be momentarily broken (or a fault
    // drill); the service's ladder retries, then falls back to cm2.
    return Error::transient("njit: compile failed (status " +
                            std::to_string(Rc) + ") for plan " + FpHex +
                            "; see " + LogPath);
  if (!Installed)
    return makeError("njit: cannot install '" + Objects.path(Fingerprint) +
                     "'");
  return Error::success();
}

Expected<Artifact> ArtifactCache::lookup(uint64_t Fingerprint,
                                         const StencilSpec &Spec) {
  obs::Registry &Obs = obs::Registry::process();
  std::lock_guard<std::mutex> Lock(Mutex);

  auto It = Table.find(Fingerprint);
  if (It != Table.end()) {
    MemHits.fetch_add(1, std::memory_order_relaxed);
    Obs.counter("njit.cache.mem_hits").add(1);
    return It->second;
  }

  if (!TC)
    return makeError(TC.error().message());

  const std::string FpHex = fingerprintHex(Fingerprint);
  const std::string Path = Objects.path(Fingerprint);
  // Corrupt / truncated / mis-stamped: the store counts and removes it,
  // and the kernel is recompiled fresh below.
  Artifact A;
  DiskStore::Outcome Loaded =
      Objects.load(Fingerprint, {}, [&](const std::string &Bytes) {
        if (!plausibleArtifact(Bytes, FpHex))
          return false;
        Expected<Artifact> Opened = openArtifact(Path, FpHex);
        if (Opened)
          A = *Opened;
        return static_cast<bool>(Opened);
      });
  if (Loaded == DiskStore::Outcome::Hit) {
    Obs.counter("njit.cache.disk_hits").add(1);
    Table.emplace(Fingerprint, A);
    return A;
  }
  if (Loaded == DiskStore::Outcome::Rejected)
    Obs.counter("njit.cache.disk_rejects").add(1);

  Misses.fetch_add(1, std::memory_order_relaxed);
  Obs.counter("njit.cache.misses").add(1);
  if (Error E = compileArtifact(Fingerprint, Spec))
    return E;
  Expected<Artifact> Fresh = openArtifact(Path, FpHex);
  if (!Fresh)
    return makeError("njit: freshly built artifact unusable: " +
                     Fresh.error().message());
  Table.emplace(Fingerprint, *Fresh);
  return *Fresh;
}
