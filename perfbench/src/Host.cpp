//===- Host.cpp -----------------------------------------------------------===//

#include "Host.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

CpuJiffies perfbench::readCpuJiffies() {
  CpuJiffies J;
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return J;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user, so it is left out of Total.
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  if (N < 8)
    return J;
  for (unsigned long long X : V)
    J.Total += X;
  J.Steal = V[7];
  J.Valid = true;
  return J;
}

double perfbench::stealShare(const CpuJiffies &Before,
                             const CpuJiffies &After) {
  if (!Before.Valid || !After.Valid || After.Total <= Before.Total)
    return 0;
  return double(After.Steal - Before.Steal) /
         double(After.Total - Before.Total);
}

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return double(T.tv_sec) + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// VmHWM from /proc/self/status, in KiB (0 when unreadable).
static long highWaterKiB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  long KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB;
}

double perfbench::peakRssMiB() {
  if (long KiB = highWaterKiB())
    return double(KiB) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

unsigned perfbench::usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0) {
    int N = CPU_COUNT(&Set);
    if (N > 0)
      return unsigned(N);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (!Pinned)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  Pinned = sched_setaffinity(0, sizeof(Set), &Set) == 0 || Pinned;
}
