/**
 * @file
 * Trace-driven simulation loop.
 *
 * Replays a trace against a hybrid system under a placement policy the
 * way the paper's real-system harness replays MSRC traces: requests are
 * issued at their trace timestamps, subject to a bounded number of
 * outstanding requests (the OS block layer's queue depth), so a
 * saturated device back-pressures the workload instead of queueing
 * unboundedly.
 */

#pragma once

#include "hss/hybrid_system.hh"
#include "policies/policy.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"

namespace sibyl::sim
{

/** Simulation-loop knobs. */
struct SimConfig
{
    /** Maximum in-flight requests (host queue depth). Request i may not
     *  be issued before request i-queueDepth completed. The default of 1
     *  reproduces the paper's closed-loop replay: per-request latency is
     *  service time plus interference from background migration I/O. */
    std::uint32_t queueDepth = 1;

    /** Skip the policy's prepare() hook (used by tests that pre-train). */
    bool skipPrepare = false;

    /** Record four per-request vectors in the RunMetrics: arrival,
     *  latency, finish and action (off by default — costs memory). The
     *  one per-request record: the fault, chaos and guardrail
     *  ablations read it for phase-resolved views, and the
     *  explainability examples for placement preference. */
    bool recordPerRequest = false;
};

/**
 * A run's latency and timing accumulators: everything the latency,
 * tail, makespan and IOPS fields of RunMetrics derive from. A fleet
 * merges its tenants' accumulators and derives its aggregate from the
 * merge exactly as a single run derives its own.
 */
struct RunAccumulator
{
    RunningStat latency;
    RunningStat steadyLatency;             // second half only
    Histogram latencyHist{0.0, 1e6, 4096}; // 0 .. 1 s, ~244 us bins
    SimTime firstArrival = 0.0;            // zero until a request ran
    SimTime lastFinish = 0.0;

    /** Fold @p o in: the stats and histogram merge, the time bounds
     *  widen to cover both (an empty side contributes no bound). */
    void merge(const RunAccumulator &o);
};

/**
 * Fill @p m's core fields from @p acc and the placement counters @p c:
 * request count, mean, steady and tail latency (quantiles clamped so
 * p50 <= p99 <= p999 <= max), makespan, IOPS, eviction fraction,
 * evicted pages per request, fast-placement preference, placements,
 * promotions and demotions. Every other field of @p m is left as is.
 */
void deriveRunMetrics(const RunAccumulator &acc, const hss::HssCounters &c,
                      RunMetrics &m);

/**
 * Incremental request-replay engine: the body of runSimulation() with
 * the loop inverted so a caller can drive it one request at a time.
 *
 * The fleet runner interleaves many tenants inside one run; each tenant
 * owns a stepper and receives exactly its own requests, in trace order,
 * regardless of how tenants are scheduled around it. Because every
 * per-request computation lives here, stepping a tenant through the
 * multiplexed schedule is bit-identical to running runSimulation() on
 * that tenant's trace alone.
 *
 * Per step (Algorithm 1 shape):
 *   1. policy observes the pre-action state and picks a device,
 *   2. the system serves the request and reports latency/evictions,
 *   3. the policy receives the outcome as feedback.
 *
 * The caller is responsible for policy.prepare() (it needs the whole
 * trace, which the stepper never sees). @p expectedRequests sizes the
 * steady-state window — samples from index expectedRequests/2 onward
 * feed steadyAvgLatencyUs, matching runSimulation()'s second-half rule.
 */
class RequestStepper
{
  public:
    RequestStepper(hss::HybridSystem &sys, policies::PlacementPolicy &policy,
                   const SimConfig &cfg, std::size_t expectedRequests);

    /** Replay one request (must be called in trace order). */
    void step(const trace::Request &req);

    /** Collect metrics over everything stepped so far. */
    RunMetrics finish() const;

    /** The accumulators finish() derives from, for a fleet aggregate. */
    const RunAccumulator &accumulator() const { return acc_; }

  private:
    hss::HybridSystem &sys_;
    policies::PlacementPolicy &policy_;
    SimConfig cfg_;
    std::size_t expected_;
    std::uint32_t qd_;
    std::vector<SimTime> finishRing_;
    RunAccumulator acc_;
    RunMetrics record_; // per-request vectors when cfg.recordPerRequest
};

/**
 * Run @p policy over @p t on @p sys and collect metrics: prepare() the
 * policy, then drive a RequestStepper over every request in order.
 */
RunMetrics runSimulation(const trace::Trace &t, hss::HybridSystem &sys,
                         policies::PlacementPolicy &policy,
                         const SimConfig &cfg = SimConfig());

} // namespace sibyl::sim
