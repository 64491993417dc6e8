/**
 * @file
 * Metrics collected from one simulation run — the quantities the paper
 * reports: average request latency (Figs. 2, 9, 11-13, 15, 16), request
 * throughput in IOPS (Figs. 10, 14), eviction fraction (Fig. 18), and
 * fast-placement preference (Fig. 17).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace sibyl::sim
{

/** Results of one (trace, system, policy) simulation. */
struct RunMetrics
{
    std::uint64_t requests = 0;

    /** Average end-to-end request latency (us) — the primary metric. */
    double avgLatencyUs = 0.0;

    /** Average latency over the second half of the trace only — the
     *  post-warmup view, where an online learner has converged. */
    double steadyAvgLatencyUs = 0.0;

    /** Latency tail statistics (p50 <= p99 <= p999 <= max). */
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double maxLatencyUs = 0.0;

    /** Completed I/O operations per second over the run's makespan. */
    double iops = 0.0;

    /** Simulated makespan (us): last completion minus first arrival. */
    double makespanUs = 0.0;

    /** Requests that triggered at least one eviction, as a fraction of
     *  all requests (Fig. 18). */
    double evictionFraction = 0.0;

    /** Pages evicted from the fast device per request. */
    double evictedPagesPerRequest = 0.0;

    /** #fast placements / #all placements (Fig. 17). */
    double fastPlacementPreference = 0.0;

    /** Placement-decision counts per device. */
    std::vector<std::uint64_t> placements;

    /** Promotions and demotions performed by the system. */
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;

    /** True when any device of the run configured fault injection
     *  (soft or hard). Gates the fault block of writeRecordJson so
     *  fault-free result files stay byte-identical. */
    bool faultsConfigured = false;

    // Soft-fault counters, summed over devices (device::FaultCounters;
    // collected per device, surfaced here per run).
    std::uint64_t faultErroredOps = 0;
    std::uint64_t faultRetries = 0;
    std::uint64_t faultRecoveries = 0;
    std::uint64_t faultDegradedOps = 0;
    double faultErrorLatencyUs = 0.0;

    // Hard-fault / graceful-degradation counters (hss::HssCounters).
    std::uint64_t maskedPlacements = 0;
    std::uint64_t failoverReads = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t drainedPages = 0;

    /** Per-device fraction of the run's makespan the device was
     *  reachable, in [0, 1] (1.0 everywhere in a healthy run). Sized
     *  like placements when faultsConfigured, else empty. */
    std::vector<double> deviceAvailability;

    /** True when any device of the run ran the detailed FTL. Gates the
     *  endurance block of writeRecordJson so pre-FTL result files
     *  stay byte-identical. */
    bool enduranceConfigured = false;

    // Endurance metrics, aggregated over the run's detailed-FTL
    // devices (ftl::WearReport per device).
    double writeAmplification = 1.0; ///< sum(NAND writes)/sum(host)
    double wearImbalance = 1.0;      ///< worst per-device max/mean
    double lifeConsumed = 0.0;       ///< worst rated-P/E fraction
    std::uint64_t retiredBlocks = 0; ///< blocks retired as bad (sum)

    /** Per-request traces, filled only when
     *  SimConfig::recordPerRequest is set: arrival time, end-to-end
     *  latency, completion time of the foreground operation, and the
     *  placement action taken. Indexed by request. */
    std::vector<double> perRequestArrivalUs;
    std::vector<double> perRequestLatencyUs;
    std::vector<double> perRequestFinishUs;
    std::vector<std::uint8_t> perRequestAction;
};

} // namespace sibyl::sim
