//===- perfbench/src/Serve.h - Jobs over the wire -------------*- C++ -*-===//
///
/// \file
/// The serving path as a client sees it: data jobs encoded with the net
/// protocol, sent to a net::Server in front of a StencilService, and
/// their results decoded and checked. The serve_mixed workload runs the
/// server in a forked child; the traced runs of the direct workloads
/// serve their own stencil in-process to measure the service and net
/// layers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Common.h"
#include "cm2/MachineConfig.h"
#include <string>

namespace perfbench {

/// Service and net layer metrics of a direct workload: serves the
/// workload's own stencil (assignment \p Source on \p M at 32x32 per
/// node) in-process over a unix socket for about \p Seconds, every
/// tenth job a cache miss, and checks every result.
void probeServeLayers(const cmcc::MachineConfig &M, const std::string &Source,
                      const RunConfig &Cfg, double Seconds, Result &R);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
