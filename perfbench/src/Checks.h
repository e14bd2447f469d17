//===- perfbench/src/Checks.h - Output verification -----------*- C++ -*-===//
///
/// \file
/// The checks every workload applies to its outputs, outside the timed
/// window: agreement with the golden scalar evaluator (runtime/Reference)
/// within the repository's contract of at most one ulp per term, and
/// fields that stay finite and normal so timings never depend on
/// denormal arithmetic or overflow.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "runtime/Reference.h"
#include <string>

namespace perfbench {

/// True when \p Got equals the reference evaluation of \p Spec over
/// \p Bindings within |diff| <= terms * ulp(sum of |term|) per point
/// (bitwise for single-term stencils). On failure \p Why names the
/// first bad point.
bool matchesReference(const cmcc::StencilSpec &Spec,
                      const cmcc::ReferenceBindings &Bindings,
                      const cmcc::Array2D &Got, std::string &Why);

/// True when every element of \p A is finite and either zero or normal.
bool finiteAndNormal(const cmcc::Array2D &A, std::string &Why);

/// True when \p A and \p B have the same shape and identical bits.
bool bitwiseEqual(const cmcc::Array2D &A, const cmcc::Array2D &B);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
