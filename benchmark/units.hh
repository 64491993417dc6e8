/**
 * @file
 * Simulation units: one (trace, system, policy) run, built the way the
 * library's own runners build it, and stepped either untraced (through
 * sim::RequestStepper) or traced (through the same public calls
 * RequestStepper::step makes, one span per call).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hss/hybrid_system.hh"
#include "policies/policy.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "spans.hh"
#include "trace/trace_cache.hh"

namespace sibyl::bench
{

/** Host seconds spent building one unit, by layer. */
struct BuildTimes
{
    double traceS = 0.0;  ///< trace lookup or synthesis
    double hssS = 0.0;    ///< makeHssConfig + HybridSystem construction
    double policyS = 0.0; ///< makePolicy + prepare
};

/** One single-policy simulation, ready to step. */
struct Unit
{
    std::shared_ptr<const trace::Trace> trace;
    std::unique_ptr<hss::HybridSystem> sys;
    std::unique_ptr<policies::PlacementPolicy> policy;
    sim::SimConfig simCfg;
};

/** Build @p spec (a non-fleet RunSpec) with the run-key-derived device
 *  and agent seeds ParallelRunner uses, so stepping the unit reproduces
 *  the runner's result for that spec bit for bit. */
Unit buildUnit(const sim::RunSpec &spec, trace::TraceCache &traces,
               BuildTimes &times);

/** Tenant @p index of @p fleet as the pseudo-run spec the fleet runner
 *  derives its RNG streams from (sim/fleet.hh, tenant RNG-derivation
 *  rule). Throws for tenants with fault injection, which the benchmark
 *  does not model. */
sim::RunSpec tenantSpec(const sim::RunSpec &fleet, std::size_t index);

/** Outcome of stepping a unit through its whole trace. */
struct Pass
{
    /** Untraced: RequestStepper::finish(). Traced: the fields diffRuns()
     *  compares, computed the way RequestStepper::finish() does. */
    sim::RunMetrics metrics;
    hss::HssCounters counters;
    double loopS = 0.0; ///< host seconds of the stepping loop

    /** Untraced only: host seconds of each consecutive block of
     *  kBlockRequests requests (the last block may be shorter). */
    std::vector<double> blockS;
};

/** Requests per timed block of an untraced pass. */
inline constexpr std::size_t kBlockRequests = 4096;

/** Step every request through sim::RequestStepper. */
Pass runUntraced(Unit &u);

/** Step every request through advanceTo, selectPlacementBegin, inferRow,
 *  selectPlacementFromRow, serve and observeOutcome, recording one span
 *  per call into @p tracer. @p requestId numbers requests across passes
 *  (raw spans carry it). */
Pass runTraced(Unit &u, Tracer &tracer, std::uint64_t &requestId);

/** Empty when the two runs agree exactly on requests, mean and max
 *  simulated latency (bitwise), eviction fraction and placement
 *  counters; otherwise names the first field that differs. */
std::string diffRuns(const sim::RunMetrics &a, const sim::RunMetrics &b);

/** Same contract for the system's aggregate counters. */
std::string diffCounters(const hss::HssCounters &a,
                         const hss::HssCounters &b);

/** Work counts of the layers below the request loop, summed over the
 *  units of one traced round. */
struct LayerCounts
{
    std::uint64_t units = 0;
    std::uint64_t requests = 0;
    std::uint64_t evictionEvents = 0;
    std::uint64_t evictedPages = 0;
    std::uint64_t promotions = 0;
    std::uint64_t metaPages = 0;
    std::uint64_t pagesWritten = 0;
    std::uint64_t gcStalls = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t gcCopies = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t wearLevelRuns = 0;
    std::uint64_t decisions = 0;
    std::uint64_t randomActions = 0;
    std::uint64_t trainingRounds = 0;
    std::uint64_t gradientSteps = 0;
    std::uint64_t weightSyncs = 0;

    /** Fold in a unit that has been stepped through @p requests. */
    void add(Unit &u, std::uint64_t requests);
};

} // namespace sibyl::bench
