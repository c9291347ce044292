#include "sched/cpu_placement.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace lfpr {

#if defined(__linux__)

int currentCpu() noexcept { return sched_getcpu(); }

bool leaveCpu(int cpu) noexcept {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  if (!CPU_ISSET(cpu, &allowed) || CPU_COUNT(&allowed) < 2) return false;
  cpu_set_t elsewhere = allowed;
  CPU_CLR(cpu, &elsewhere);
  // Narrowing the mask migrates the thread before the call returns;
  // widening it back leaves the thread where it landed.
  if (sched_setaffinity(0, sizeof elsewhere, &elsewhere) != 0) return false;
  sched_setaffinity(0, sizeof allowed, &allowed);
  return true;
}

#else

int currentCpu() noexcept { return -1; }

bool leaveCpu(int) noexcept { return false; }

#endif

}  // namespace lfpr
