//===- Host.h - Host and process resource readings --------------*- C++-*-===//
//
// Ungated diagnostics that let a noisy run be traced to the host rather
// than the program: the share of all CPU time the hypervisor stole
// (/proc/stat), the process's own CPU time (getrusage) and its peak
// resident set size.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t Total = 0;
  uint64_t Steal = 0;
  bool Valid = false;
};

CpuJiffies readCpuJiffies();

/// Steal jiffies over all jiffies between two readings (0 when either
/// reading failed or no time passed).
double stealShare(const CpuJiffies &Before, const CpuJiffies &After);

/// User + system CPU seconds this process has used so far.
double processCpuSeconds();

/// Peak resident set size of this process, in MiB: the kernel's
/// high-water mark (VmHWM). It is getrusage's ru_maxrss without the
/// memory of the process that exec'd this one, which ru_maxrss also
/// counts; ru_maxrss is the fallback when /proc is unreadable.
double peakRssMiB();

/// CPUs this process may run on (sched_getaffinity), at least 1.
unsigned usableCpus();

/// Moves the calling thread to the next of its allowed CPUs on every
/// next(), and restores its affinity on destruction. A single-threaded
/// measurement that steps round by round over every CPU samples them all
/// alike. Without it, on a shared 4-vCPU host, the 1-thread rate of the
/// jobs' models fell in two modes ~25 % apart from one process to the
/// next, as if the CPU the scheduler left the thread on decided it.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  void next();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
  bool Pinned = false;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_H
