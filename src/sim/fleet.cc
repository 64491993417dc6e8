#include "sim/fleet.hh"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "core/sibyl_policy.hh"
#include "hss/hybrid_system.hh"
#include "policies/archivist.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_mux.hh"

namespace sibyl::sim
{

namespace
{

/**
 * The tenant's private pseudo-run: its own (policy, trace) identity on
 * the fleet-shared (hssConfig, fastFrac, seed, sim) substrate, tagged
 * with the tenant index. ParallelRunner::runKey() of this spec is the
 * tenant key the RNG streams derive from — see the header's tenant
 * RNG-derivation rule.
 */
RunSpec
tenantSpec(const RunSpec &fleet, const FleetTenant &t, std::size_t index)
{
    RunSpec s;
    s.policy = t.policy;
    s.workload = t.workload;
    s.mixedWorkload = t.mixedWorkload;
    s.hssConfig = fleet.hssConfig;
    s.fastCapacityFrac = fleet.fastCapacityFrac;
    s.traceLen = t.traceLen ? t.traceLen : fleet.traceLen;
    s.traceSeed = t.traceSeed;
    s.timeCompress = t.timeCompress;
    s.seed = fleet.seed;
    s.sim = fleet.sim;
    s.sibylCfg = fleet.sibylCfg;
    s.variantTag = "fleet-tenant:" + std::to_string(index);
    if (!fleet.variantTag.empty())
        s.variantTag += ';' + fleet.variantTag;
    // A faulted tenant must not share RNG streams with its healthy
    // control, so its fault set joins the tenant identity. Fault-free
    // tenants append nothing — their historical identity (and streams)
    // are untouched.
    if (t.faultsConfigured())
        s.variantTag += ";fault@" + std::to_string(t.faultDevice) + "=" +
                        device::faultConfigCanonical(t.faults);
    return s;
}

/**
 * Estimated host cost of serving one tenant, in nanoseconds: a
 * per-request weight for its policy family plus a per-distinct-page
 * weight (metadata, eviction and device state grow with the working
 * set). Only the sharded path's dispatch order reads it, so it can
 * never move a result; without the per-policy term the order was no
 * better than tenant index. The weights are rounded from single-tenant
 * 200k-request H&M runs on prxy_0 (few distinct pages), usr_0 and
 * mds_0, Release build on a 4-core x86-64 host. Training cadence is
 * not modelled: Sibyl at the default cadence costs ~3 us a request,
 * at trainEvery=100 four to five times that. Every other policy
 * takes the heuristics' weight.
 */
std::uint64_t
tenantCostNs(const policies::PlacementPolicy &policy,
             std::uint64_t requests, std::uint64_t distinctPages)
{
    constexpr std::uint64_t kC51Ns = 3000;        // Sibyl (C51 head)
    constexpr std::uint64_t kDqnNs = 1000;        // Sibyl-DQN
    constexpr std::uint64_t kArchivistNs = 12000; // epoch-trained NN
    constexpr std::uint64_t kOtherNs = 200;       // CDE, HPS, static, ...
    constexpr std::uint64_t kPageNs = 1000;       // per distinct page

    std::uint64_t perRequest = kOtherNs;
    if (const auto *s = dynamic_cast<const core::SibylPolicy *>(&policy)) {
        if (s->config().agentKind == core::AgentKind::C51)
            perRequest = kC51Ns;
        else if (s->config().agentKind == core::AgentKind::Dqn)
            perRequest = kDqnNs;
    } else if (dynamic_cast<const policies::ArchivistPolicy *>(&policy)) {
        perRequest = kArchivistNs;
    }
    return requests * perRequest + distinctPages * kPageNs;
}

} // namespace

std::string
FleetSpec::canonical() const
{
    std::string s;
    for (const FleetTenant &t : tenants) {
        if (!s.empty())
            s += ';';
        trace::TraceKey k;
        k.workload = t.workload;
        k.numRequests = t.traceLen;
        k.seed = t.traceSeed;
        k.mixed = t.mixedWorkload;
        k.timeCompress = t.timeCompress;
        s += policyIdentity(t.policy);
        s += '|';
        s += k.canonical();
        // Conditional third field, same frozen-format caveat as the
        // rest: fault-free tenants emit nothing, so pre-existing fleet
        // compositions keep their bytes (and their run keys).
        if (t.faultsConfigured())
            s += "|fault@" + std::to_string(t.faultDevice) + "=" +
                 device::faultConfigCanonical(t.faults);
    }
    return s;
}

double
jainFairnessIndex(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    if (sumSq <= 0.0)
        return 1.0; // degenerate (all-zero) fleet is trivially fair
    return (sum * sum) / (static_cast<double>(xs.size()) * sumSq);
}

PolicyResult
runFleetExperiment(const RunSpec &spec, trace::TraceCache &traces,
                   unsigned numThreads)
{
    if (!spec.fleet || spec.fleet->tenants.empty())
        throw std::invalid_argument("runFleetExperiment: no tenants");
    const auto &tenants = spec.fleet->tenants;
    const std::size_t n = tenants.size();

    struct TenantState
    {
        std::uint64_t key = 0;
        std::shared_ptr<const trace::Trace> trace;
        std::unique_ptr<hss::HybridSystem> sys;
        std::unique_ptr<policies::PlacementPolicy> policy;
        std::unique_ptr<RequestStepper> stepper;
        std::uint64_t costNs = 0; // dispatch-order estimate only
    };
    std::vector<TenantState> state(n);

    // Deterministic construction, in tenant order: every seed is a
    // pure function of the tenant key, never of scheduling.
    for (std::size_t i = 0; i < n; i++) {
        const RunSpec ts = tenantSpec(spec, tenants[i], i);
        TenantState &st = state[i];
        st.key = ParallelRunner::runKey(ts);
        st.trace = traces.get(ts.traceKey());

        const std::uint64_t distinctPages = st.trace->uniquePages();
        auto specs = hss::makeHssConfig(spec.hssConfig, distinctPages,
                                        spec.fastCapacityFrac);
        if (spec.specTweak)
            spec.specTweak(specs);
        if (tenants[i].faultsConfigured()) {
            // Per-tenant fault injection lands on this tenant's private
            // stack only (after the fleet-wide specTweak), so one
            // tenant's device failure never touches another tenant's
            // devices — the fleet keeps serving its healthy tenants.
            if (tenants[i].faultDevice >= specs.size())
                throw std::invalid_argument(
                    "fleet tenant " + std::to_string(i) +
                    ": faultDevice " +
                    std::to_string(tenants[i].faultDevice) +
                    " out of range (config has " +
                    std::to_string(specs.size()) + " devices)");
            const std::string err =
                device::validateFaultConfig(tenants[i].faults);
            if (!err.empty())
                throw std::invalid_argument(
                    "fleet tenant " + std::to_string(i) + ": " + err);
            specs[tenants[i].faultDevice].faults = tenants[i].faults;
        }
        st.sys = std::make_unique<hss::HybridSystem>(
            std::move(specs),
            ParallelRunner::deriveStream(st.key, kDeviceJitterSalt));

        core::SibylConfig scfg = spec.sibylCfg;
        scfg.seed = ParallelRunner::deriveStream(st.key, kAgentSalt);
        st.policy = makePolicy(
            tenants[i].policy,
            numHssDevices(spec.hssConfig, spec.fastCapacityFrac), scfg);
        if (!spec.sim.skipPrepare)
            st.policy->prepare(*st.trace, *st.sys);

        st.stepper = std::make_unique<RequestStepper>(
            *st.sys, *st.policy, spec.sim, st.trace->size());
        st.costNs =
            tenantCostNs(*st.policy, st.trace->size(), distinctPages);
    }

    if (numThreads == 1) {
        // Serial oracle: one thread walks the multiplexed schedule,
        // serving the fleet in global arrival order.
        std::vector<const trace::Trace *> views;
        views.reserve(n);
        for (const TenantState &st : state)
            views.push_back(st.trace.get());
        const trace::TraceMultiplexer mux(views);
        for (std::size_t i = 0; i < mux.size(); i++)
            state[mux[i].tenant].stepper->step(mux.request(i));
    } else {
        // Sharded path: one task per tenant, each walking its own
        // requests in the same per-tenant order the multiplexed
        // schedule preserves. Tenants share no mutable state, so this
        // is bit-identical to the oracle whatever order tasks start
        // in. They start longest first (Graham's LPT rule): descending
        // tenantCostNs, ties by tenant index, so the costliest tenant
        // never starts last on an otherwise idle pool. (parallelFor
        // detects re-entrancy — a fleet run inside a ParallelRunner
        // worker — and runs inline rather than oversubscribing.)
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return state[a].costNs > state[b].costNs;
                         });
        ThreadPool::parallelFor(
            n,
            [&](std::size_t k) {
                const std::size_t t = order[k];
                const trace::Trace &tr = *state[t].trace;
                RequestStepper &stepper = *state[t].stepper;
                for (std::size_t i = 0; i < tr.size(); i++)
                    stepper.step(tr[i]);
            },
            numThreads);
    }

    // Aggregate: the tenants' accumulators and placement counters
    // merge, and the fleet derives its metrics from the merge exactly
    // as a single run does. The makespan runs from the earliest tenant
    // arrival to the latest tenant completion — tenant streams overlap
    // in simulated time, so this is the wall the fleet's aggregate
    // throughput is measured over.
    PolicyResult r;
    r.policy = spec.policy;
    r.workload = spec.workload;

    RunAccumulator acc;
    hss::HssCounters counters;
    std::vector<double> tenantIops;
    tenantIops.reserve(n);

    for (std::size_t i = 0; i < n; i++) {
        const TenantState &st = state[i];
        TenantSummary sum;
        sum.policy = tenants[i].policy;
        sum.workload = tenants[i].workload;
        sum.tenantKey = st.key;
        sum.metrics = st.stepper->finish();
        tenantIops.push_back(sum.metrics.iops);

        acc.merge(st.stepper->accumulator());
        const auto &c = st.sys->counters();
        counters.evictionEvents += c.evictionEvents;
        counters.evictedPages += c.evictedPages;
        counters.promotions += c.promotions;
        counters.demotions += c.demotions;
        if (counters.placements.size() < c.placements.size())
            counters.placements.resize(c.placements.size(), 0);
        for (std::size_t d = 0; d < c.placements.size(); d++)
            counters.placements[d] += c.placements[d];
        addDeviceAccounting(*st.sys, sum.metrics.makespanUs, r);

        // Fold per-tenant fault metrics into the fleet view: counters
        // sum; availability takes the per-device worst case across
        // tenants (each tenant owns a private stack, so "device d" in
        // the fleet view is the tier, not one physical device).
        if (sum.metrics.faultsConfigured) {
            RunMetrics &fm = r.metrics;
            fm.faultsConfigured = true;
            fm.faultErroredOps += sum.metrics.faultErroredOps;
            fm.faultRetries += sum.metrics.faultRetries;
            fm.faultRecoveries += sum.metrics.faultRecoveries;
            fm.faultDegradedOps += sum.metrics.faultDegradedOps;
            fm.faultErrorLatencyUs += sum.metrics.faultErrorLatencyUs;
            fm.maskedPlacements += sum.metrics.maskedPlacements;
            fm.failoverReads += sum.metrics.failoverReads;
            fm.failedOps += sum.metrics.failedOps;
            fm.drainedPages += sum.metrics.drainedPages;
            const auto &avail = sum.metrics.deviceAvailability;
            if (fm.deviceAvailability.size() < avail.size())
                fm.deviceAvailability.resize(avail.size(), 1.0);
            for (std::size_t d = 0; d < avail.size(); d++)
                fm.deviceAvailability[d] =
                    std::min(fm.deviceAvailability[d], avail[d]);
        }

        r.tenants.push_back(std::move(sum));
    }
    deriveRunMetrics(acc, counters, r.metrics);

    r.fairnessJain = jainFairnessIndex(tenantIops);
    return r;
}

} // namespace sibyl::sim
