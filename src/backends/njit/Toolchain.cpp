//===- backends/njit/Toolchain.cpp ----------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/Toolchain.h"
#include "support/Hash.h"
#include <cstdlib>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace cmcc;
using namespace cmcc::njit;

namespace {

/// Stat-based executable check (no exec).
bool isExecutableFile(const std::string &Path, struct stat *St) {
  return ::stat(Path.c_str(), St) == 0 && S_ISREG(St->st_mode) &&
         ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Command to an absolute executable path: used verbatim
/// when it contains a '/', otherwise searched along PATH.
std::string resolveExecutable(const std::string &Command, struct stat *St) {
  if (Command.empty())
    return "";
  if (Command.find('/') != std::string::npos)
    return isExecutableFile(Command, St) ? Command : "";
  const char *PathEnv = std::getenv("PATH");
  if (!PathEnv)
    return "";
  std::string Paths = PathEnv;
  size_t Begin = 0;
  while (Begin <= Paths.size()) {
    size_t End = Paths.find(':', Begin);
    if (End == std::string::npos)
      End = Paths.size();
    std::string Dir = Paths.substr(Begin, End - Begin);
    if (!Dir.empty()) {
      std::string Candidate = Dir + "/" + Command;
      if (isExecutableFile(Candidate, St))
        return Candidate;
    }
    Begin = End + 1;
  }
  return "";
}

Expected<Toolchain> makeToolchain(const std::string &Resolved,
                                  const struct stat &St) {
  Toolchain TC;
  TC.Compiler = Resolved;
  // Identity: resolved path + size + mtime + flags + emitter version.
  // Replacing the compiler binary (new mtime/size) or changing the
  // flags/emitter re-namespaces every artifact; nothing stale can be
  // dlopen'd by accident.
  uint64_t H = fnv1a64(Resolved, FingerprintSeed);
  H = fnv1a64(std::to_string(static_cast<long long>(St.st_size)), H);
  H = fnv1a64(std::to_string(static_cast<long long>(St.st_mtime)), H);
  H = fnv1a64(std::string_view(CompileFlags), H);
  H = fnv1a64(std::to_string(EmitterVersion), H);
  TC.IdentityHash = H;
  return TC;
}

} // namespace

Expected<Toolchain> cmcc::njit::detectToolchain() {
  struct stat St;
  // CMCC_NJIT_CC is authoritative: a broken value means "unavailable",
  // never a silent fallback to another compiler.
  if (const char *Env = std::getenv("CMCC_NJIT_CC")) {
    std::string Resolved = resolveExecutable(Env, &St);
    if (Resolved.empty())
      return makeError(std::string("njit: CMCC_NJIT_CC='") + Env +
                       "' is not an executable");
    return makeToolchain(Resolved, St);
  }

  std::vector<std::string> Candidates;
#ifdef CMCC_HOST_CXX
  Candidates.push_back(CMCC_HOST_CXX); // The compiler that built us.
#endif
  Candidates.push_back("c++");
  Candidates.push_back("g++");
  Candidates.push_back("clang++");

  std::string Tried;
  for (const std::string &C : Candidates) {
    std::string Resolved = resolveExecutable(C, &St);
    if (!Resolved.empty())
      return makeToolchain(Resolved, St);
    Tried += Tried.empty() ? C : ", " + C;
  }
  return makeError("njit: no host C++ compiler found (tried " + Tried +
                   "; set CMCC_NJIT_CC)");
}

bool cmcc::njit::toolchainAvailable() {
  Expected<Toolchain> TC = detectToolchain();
  return static_cast<bool>(TC);
}
