/**
 * @file
 * Process resource telemetry: memory, faults, scheduling, FDs,
 * threads, and heap-allocation counters as registry gauges.
 *
 * readProcessStats() samples cheap kernel-maintained numbers -
 * VmRSS/VmHWM and the thread count from /proc/self/status, page
 * faults and context switches from getrusage(RUSAGE_SELF), open file
 * descriptors by counting /proc/self/fd - plus the process-lifetime
 * heap tallies kept by the global operator new/delete replacement in
 * procstats.cpp. publishProcessGauges() folds one sample into the
 * `process.*` gauges so the numbers ride the Prometheus / JSON /
 * health exposition paths for free; the serve housekeeping thread
 * calls it as each window closes and the scrape handler refreshes it
 * per scrape.
 *
 * The gauges themselves are product telemetry like `serve.*` and are
 * present in every build. Only the allocator hook is gated: it
 * requires -DLOOKHD_OBS (overhead opt-in) and is disabled entirely
 * under ASan/TSan, whose runtimes interpose malloc themselves - in
 * those builds the alloc gauges simply read 0.
 */

#ifndef LOOKHD_OBS_PROCSTATS_HPP
#define LOOKHD_OBS_PROCSTATS_HPP

#include <cstdint>

namespace lookhd::obs {

/** One point-in-time sample of process resource usage. Fields that
 * the platform cannot supply are 0. */
struct ProcessStats
{
    /** Resident set size / peak resident set size, bytes. */
    std::uint64_t rssBytes = 0;
    std::uint64_t rssHwmBytes = 0;

    /** Thread count (Tasks) of the process. */
    std::uint64_t threads = 0;

    /** Open file descriptors (entries in /proc/self/fd). */
    std::uint64_t openFds = 0;

    /** Cumulative page faults since process start. */
    std::uint64_t minorFaults = 0;
    std::uint64_t majorFaults = 0;

    /** Cumulative context switches since process start. */
    std::uint64_t voluntaryCtxSwitches = 0;
    std::uint64_t involuntaryCtxSwitches = 0;

    /** Heap traffic since process start, from the operator
     * new/delete counters (0 when the hook is compiled out). */
    std::uint64_t allocBytes = 0;
    std::uint64_t allocCount = 0;
    std::uint64_t freeCount = 0;
};

/** Sample the current process. Never throws; unavailable fields
 * (non-Linux, unreadable /proc) come back 0. */
ProcessStats readProcessStats();

/** readProcessStats() + set every `process.*` gauge in the global
 * metric registry. */
void publishProcessGauges();

} // namespace lookhd::obs

#endif // LOOKHD_OBS_PROCSTATS_HPP
