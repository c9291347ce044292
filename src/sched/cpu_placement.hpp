// Thread-placement hint for the library's resident threads.
//
// The kernel places a woken thread near the thread that woke it. For
// the RankService ingest thread that can go wrong for good: woken by a
// submitter, it lands on the submitter's CPU, and from then on every
// wake-up keeps it (and the engine threads it spawns) there, sharing one
// CPU with a submitter that keeps working after submit() returns while
// the other CPUs idle. leaveCpu() breaks that pairing once: it narrows
// the calling thread's affinity mask to exclude one CPU, which migrates
// the thread at once, then restores the mask it had, so the thread ends
// up neither pinned nor restricted. Linux only; elsewhere both calls are
// no-ops.
#pragma once

namespace lfpr {

/// CPU the calling thread is running on, or -1 where unknown.
[[nodiscard]] int currentCpu() noexcept;

/// Move the calling thread off `cpu`, leaving its affinity mask as it
/// was. Returns false, and changes nothing, when `cpu` is not one the
/// thread may run on or no other CPU is allowed.
bool leaveCpu(int cpu) noexcept;

}  // namespace lfpr
