/**
 * @file
 * Data-placement policy interface.
 *
 * A policy sees each request *before* it is served (so it observes the
 * pre-action state, exactly like Algorithm 1) and chooses the device the
 * request's pages should live on. After the system serves the request,
 * the policy receives the outcome — the served latency and eviction
 * feedback — which learning policies use as their training signal.
 */

#pragma once

#include <string>

#include "hss/hybrid_system.hh"
#include "trace/trace.hh"

namespace sibyl::ml
{
class Network;
}

namespace sibyl::policies
{

/** Abstract data-placement policy. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Display name (matches the paper's legends). */
    virtual std::string name() const = 0;

    /**
     * Choose the target device for @p req.
     *
     * @param sys      The hybrid system (for feature queries).
     * @param req      The incoming request.
     * @param reqIndex Zero-based index of the request in the trace.
     */
    virtual DeviceId selectPlacement(const hss::HybridSystem &sys,
                                     const trace::Request &req,
                                     std::size_t reqIndex) = 0;

    /**
     * Split decision, phase 1. Performs everything selectPlacement()
     * would up to — but not including — the greedy network evaluation,
     * in the same order. Returns nullptr when the decision completed
     * inline (@p action is set); otherwise returns the network whose
     * output row for *@p obsRow (which must stay untouched until the
     * row is evaluated) finishes the decision via
     * selectPlacementFromRow(). selectPlacement() == Begin + inferRow +
     * FromRow by construction, so timing the phases apart (as the
     * repository benchmark does) cannot move a decision. The default
     * resolves inline, which keeps heuristics and wrapper policies
     * correct.
     */
    virtual ml::Network *
    selectPlacementBegin(const hss::HybridSystem &sys,
                         const trace::Request &req, std::size_t reqIndex,
                         DeviceId &action, const float **obsRow)
    {
        (void)obsRow;
        action = selectPlacement(sys, req, reqIndex);
        return nullptr;
    }

    /** Split decision, phase 2: finish the pending Begin with the
     *  network's output row. Only called after Begin returned a net. */
    virtual DeviceId
    selectPlacementFromRow(const float *row)
    {
        (void)row;
        return static_cast<DeviceId>(0); // unreachable for inline Begins
    }

    /** No-op: every policy trains synchronously inside its own calls,
     *  so nothing is in flight when a run ends. Kept only because the
     *  repository benchmark (benchmark/units.cc) calls it after each
     *  pass, and that harness does not change with the simulator. */
    void finishTraining() {}

    /**
     * System-level feedback after the request completed. Default: ignore
     * (heuristic baselines use no feedback — a key paper observation).
     */
    virtual void
    observeOutcome(const hss::HybridSystem &sys, const trace::Request &req,
                   DeviceId action, const hss::ServeResult &result)
    {
        (void)sys;
        (void)req;
        (void)action;
        (void)result;
    }

    /**
     * Hook invoked once before simulation with the full trace. Only
     * policies with offline components use it: Oracle (future knowledge),
     * RNN-HSS (offline profiling/training), Archivist (initial epoch).
     * Online policies — including Sibyl — must not look at @p t.
     */
    virtual void prepare(const trace::Trace &t, hss::HybridSystem &sys)
    {
        (void)t;
        (void)sys;
    }

    /** Drop learned state so the policy can run a fresh trace. */
    virtual void reset() {}
};

} // namespace sibyl::policies
