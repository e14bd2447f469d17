//===- perfbench/src/Probes.h - Host roofline and frozen guard -*- C++ -*-===//
///
/// \file
/// Measurements that are not a workload: the host roofline every rate is
/// read against (stream-copy bandwidth and the kernel loop's peak on one
/// and on all cores), and the frozen-cm2 guard — the simulated Mflops of
/// the paper's results-table rows, which must never move.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "Common.h"
#include <string>

namespace perfbench {

struct Roofline {
  /// Stream copy, bytes read plus bytes written per second, all cores.
  double CopyGBps = 0.0;
  /// Size of each of the two copy arrays, and the last-level cache it
  /// was sized against (at least four times larger).
  double CopyArrayMiB = 0.0;
  double LlcMiB = 0.0;
  /// The taps-outer kernel loop on one core and on every core.
  double KernelGflops1 = 0.0;
  double KernelGflopsN = 0.0;
  int Threads = 1;
};

/// Measures the roofline; spends about \p Seconds.
Roofline measureRoofline(double Seconds);

/// Adds the host.* metrics and prints the probe with its sizes.
void reportRoofline(const Roofline &Host, Result &R);

/// Useful Gflops of the kernel loop on \p Threads threads over
/// \p Seconds (Kernel.cpp).
double kernelGflops(int Threads, double Seconds);

/// Recomputes the simulated Mflops of every results-table row with the
/// cm2 backend's analytic timeOnly and compares them bit for bit with
/// the frozen values. Returns the number of rows that differ (0 = pass)
/// and sets \p Rows to the number checked; \p Why names the first
/// difference.
int checkFrozenCm2(int &Rows, std::string &Why);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
