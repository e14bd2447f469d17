//===- core/PlanFingerprint.h - Canonical plan identity -------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable 64-bit fingerprint identifying one compilation: the
/// normalized StencilSpec plus the compilation-relevant fields of the
/// MachineConfig. Two compile() calls with equal fingerprints produce
/// identical CompiledStencils, so the fingerprint is the key of the
/// serving layer's plan cache and of the .cmccode on-disk tier.
///
/// Normalization goes through a canonical text form, not through the
/// in-memory layout, so the fingerprint is independent of which front
/// end produced the spec (Fortran assignment, SUBROUTINE, or Lisp
/// defstencil all recognize into the same StencilSpec and therefore the
/// same fingerprint). Tap order is preserved: it is part of the compiled
/// schedule's identity, not presentation.
///
/// Only fields the compiler actually consults participate for the
/// machine side (register budget, pipeline latencies, scratch-memory
/// capacity). Topology and clock rate affect execution timing, not the
/// compiled plan, so two machines differing only in node count share
/// plans — exactly the reuse the paper's compile-once design enables.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_CORE_PLANFINGERPRINT_H
#define CMCC_CORE_PLANFINGERPRINT_H

#include "cm2/MachineConfig.h"
#include "stencil/StencilSpec.h"
#include "support/Hash.h"
#include <cstdint>
#include <string>
#include <string_view>

namespace cmcc {

/// The canonical text the fingerprint hashes: one line per component of
/// the spec and of the compilation-relevant machine fields. Exposed so
/// tests (and humans debugging cache keys) can see exactly what is
/// covered.
///
/// \p Backend scopes the plan to one execution backend so a cache can
/// hold both backends' plans for one spec without aliasing. The default
/// "cm2" contributes nothing to the text — every fingerprint minted
/// before the backend seam existed (including on-disk .cmccode stems)
/// remains valid and means the simulated plan.
std::string planFingerprintText(const StencilSpec &Spec,
                                const MachineConfig &Config,
                                std::string_view Backend);
std::string planFingerprintText(const StencilSpec &Spec,
                                const MachineConfig &Config);

/// FNV-1a 64-bit hash of planFingerprintText().
uint64_t planFingerprint(const StencilSpec &Spec, const MachineConfig &Config,
                         std::string_view Backend);
uint64_t planFingerprint(const StencilSpec &Spec, const MachineConfig &Config);

} // namespace cmcc

#endif // CMCC_CORE_PLANFINGERPRINT_H
