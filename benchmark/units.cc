#include "units.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "core/sibyl_policy.hh"
#include "ftl/ftl.hh"
#include "ml/network.hh"
#include "sim/experiment.hh"
#include "sim/fleet.hh"
#include "sim/simulator.hh"

namespace sibyl::bench
{

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

Unit
buildUnit(const sim::RunSpec &spec, trace::TraceCache &traces,
          BuildTimes &times)
{
    using sim::ParallelRunner;
    const std::uint64_t key = ParallelRunner::runKey(spec);
    Unit u;
    u.simCfg = spec.sim;

    std::uint64_t t = nowNs();
    u.trace = traces.get(spec.traceKey());
    times.traceS = secondsSince(t);

    t = nowNs();
    auto devices = hss::makeHssConfig(spec.hssConfig, u.trace->uniquePages(),
                                      spec.fastCapacityFrac);
    if (spec.specTweak)
        spec.specTweak(devices);
    u.sys = std::make_unique<hss::HybridSystem>(
        std::move(devices),
        ParallelRunner::deriveStream(key, sim::kDeviceJitterSalt));
    times.hssS = secondsSince(t);

    t = nowNs();
    core::SibylConfig cfg = spec.sibylCfg;
    cfg.seed = ParallelRunner::deriveStream(key, sim::kAgentSalt);
    u.policy = sim::makePolicy(spec.policy, u.sys->numDevices(), cfg);
    if (!spec.sim.skipPrepare)
        u.policy->prepare(*u.trace, *u.sys);
    times.policyS = secondsSince(t);
    return u;
}

sim::RunSpec
tenantSpec(const sim::RunSpec &fleet, std::size_t index)
{
    const sim::FleetTenant &t = fleet.fleet->tenants.at(index);
    if (t.faultsConfigured())
        throw std::invalid_argument("fleet tenant " + std::to_string(index) +
                                    " injects faults; the benchmark "
                                    "replays fault-free fleets only");
    sim::RunSpec s;
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
    s.specTweak = fleet.specTweak;
    s.variantTag = "fleet-tenant:" + std::to_string(index);
    if (!fleet.variantTag.empty())
        s.variantTag += ';' + fleet.variantTag;
    return s;
}

Pass
runUntraced(Unit &u)
{
    const trace::Trace &t = *u.trace;
    sim::RequestStepper stepper(*u.sys, *u.policy, u.simCfg, t.size());
    Pass p;
    p.blockS.reserve(t.size() / kBlockRequests + 1);
    const std::uint64_t start = nowNs();
    std::uint64_t blockStart = start;
    for (std::size_t i = 0; i < t.size(); i++) {
        stepper.step(t[i]);
        if ((i + 1) % kBlockRequests == 0 || i + 1 == t.size()) {
            const std::uint64_t now = nowNs();
            p.blockS.push_back(static_cast<double>(now - blockStart) * 1e-9);
            blockStart = now;
        }
    }
    p.loopS = secondsSince(start);
    u.policy->finishTraining();
    p.metrics = stepper.finish();
    p.counters = u.sys->counters();
    return p;
}

Pass
runTraced(Unit &u, Tracer &tracer, std::uint64_t &requestId)
{
    hss::HybridSystem &sys = *u.sys;
    policies::PlacementPolicy &policy = *u.policy;
    const trace::Trace &t = *u.trace;
    auto *sibyl = dynamic_cast<core::SibylPolicy *>(&policy);
    const int beginKind = sibyl ? kCoreBegin : kPolicySelect;
    const int observeKind = sibyl ? kCoreObserve : kPolicyObserve;

    std::vector<const ftl::PageMappedFtl *> ftls;
    for (DeviceId d = 0; d < sys.numDevices(); d++)
        if (const ftl::PageMappedFtl *f = sys.device(d).ftl())
            ftls.push_back(f);
    auto gcRuns = [&ftls] {
        std::uint64_t n = 0;
        for (const ftl::PageMappedFtl *f : ftls)
            n += f->stats().gcRuns;
        return n;
    };
    auto trainingRounds = [sibyl] {
        return sibyl ? sibyl->agent().stats().trainingRounds : 0;
    };

    const std::uint32_t qd = std::max<std::uint32_t>(1, u.simCfg.queueDepth);
    std::vector<SimTime> finishRing(qd, 0.0);
    RunningStat latency;

    const std::uint64_t loopStart = nowNs();
    for (std::size_t i = 0; i < t.size(); i++) {
        const trace::Request &req = t[i];
        // ts[k]..ts[k+1] is child span k; the children tile the step
        // span up to the loop's own bookkeeping after the last one.
        std::uint64_t ts[8];
        int kinds[7];
        int n = 0;

        ts[0] = nowNs();
        const SimTime arrival = std::max(req.timestamp, finishRing[i % qd]);
        sys.advanceTo(arrival);
        ts[1] = nowNs();
        kinds[n++] = kAdvance;

        const std::uint64_t roundsBefore = trainingRounds();
        DeviceId action{};
        const float *row = nullptr;
        ml::Network *net =
            policy.selectPlacementBegin(sys, req, i, action, &row);
        ts[2] = nowNs();
        const bool trained = trainingRounds() != roundsBefore;
        kinds[n++] = trained ? kTrainRound : beginKind;

        if (net) {
            const float *out = net->inferRow(row);
            ts[3] = nowNs();
            kinds[n++] = kInferRow;
            action = policy.selectPlacementFromRow(out);
            ts[4] = nowNs();
            kinds[n++] = kFromRow;
        }

        const std::uint64_t gcBefore = ftls.empty() ? 0 : gcRuns();
        const hss::ServeResult r = sys.serve(arrival, req, action);
        const bool gc = !ftls.empty() && gcRuns() != gcBefore;
        ts[n + 1] = nowNs();
        kinds[n++] = gc ? kServeGc
                        : (req.op == OpType::Write ? kServeWrite
                                                   : kServeRead);

        policy.observeOutcome(sys, req, action, r);
        ts[n + 1] = nowNs();
        kinds[n++] = observeKind;

        finishRing[i % qd] = r.finishUs;
        latency.add(r.latencyUs);
        const std::uint64_t end = nowNs();

        tracer[kStep].add(end - ts[0]);
        for (int k = 0; k < n; k++)
            tracer[kinds[k]].add(ts[k + 1] - ts[k]);
        const std::uint64_t id = requestId++;
        if (tracer.sampled(id, trained)) {
            const std::int64_t stepId = tracer.nextRawId();
            tracer.keep(id, -1, kStep, ts[0], end);
            for (int k = 0; k < n; k++)
                tracer.keep(id, stepId, kinds[k], ts[k], ts[k + 1]);
        }
    }
    Pass p;
    p.loopS = secondsSince(loopStart);
    policy.finishTraining();

    const hss::HssCounters &c = sys.counters();
    sim::RunMetrics &m = p.metrics;
    m.requests = t.size();
    m.avgLatencyUs = latency.mean();
    m.maxLatencyUs = latency.max();
    if (m.requests)
        m.evictionFraction = static_cast<double>(c.evictionEvents) /
                             static_cast<double>(m.requests);
    m.placements = c.placements;
    m.promotions = c.promotions;
    m.demotions = c.demotions;
    p.counters = c;
    return p;
}

std::string
diffRuns(const sim::RunMetrics &a, const sim::RunMetrics &b)
{
    if (a.requests != b.requests)
        return "requests";
    if (!sameBits(a.avgLatencyUs, b.avgLatencyUs))
        return "avgLatencyUs";
    if (!sameBits(a.maxLatencyUs, b.maxLatencyUs))
        return "maxLatencyUs";
    if (!sameBits(a.evictionFraction, b.evictionFraction))
        return "evictionFraction";
    if (a.placements != b.placements)
        return "placements";
    if (a.promotions != b.promotions)
        return "promotions";
    if (a.demotions != b.demotions)
        return "demotions";
    return "";
}

std::string
diffCounters(const hss::HssCounters &a, const hss::HssCounters &b)
{
    if (a.requests != b.requests)
        return "requests";
    if (a.evictionEvents != b.evictionEvents)
        return "evictionEvents";
    if (a.evictedPages != b.evictedPages)
        return "evictedPages";
    if (a.promotions != b.promotions)
        return "promotions";
    if (a.demotions != b.demotions)
        return "demotions";
    if (a.placements != b.placements)
        return "placements";
    if (a.maskedPlacements != b.maskedPlacements ||
        a.failoverReads != b.failoverReads || a.failedOps != b.failedOps ||
        a.drainedPages != b.drainedPages)
        return "fault counters";
    return "";
}

void
LayerCounts::add(Unit &u, std::uint64_t reqs)
{
    const hss::HybridSystem &sys = *u.sys;
    const hss::HssCounters &c = sys.counters();
    units++;
    requests += reqs;
    evictionEvents += c.evictionEvents;
    evictedPages += c.evictedPages;
    promotions += c.promotions;
    metaPages += sys.metadata().mappedPages();
    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        const device::BlockDevice &dev = sys.device(d);
        pagesWritten += dev.counters().pagesWritten;
        gcStalls += dev.counters().gcStalls;
        if (const ftl::PageMappedFtl *f = dev.ftl()) {
            hostWrites += f->stats().hostWrites;
            gcCopies += f->stats().gcCopies;
            gcRuns += f->stats().gcRuns;
            wearLevelRuns += f->stats().wearLevelRuns;
        }
    }
    if (auto *sibyl = dynamic_cast<core::SibylPolicy *>(u.policy.get())) {
        const rl::AgentStats &s = sibyl->agent().stats();
        decisions += s.decisions;
        randomActions += s.randomActions;
        trainingRounds += s.trainingRounds;
        gradientSteps += s.gradientSteps;
        weightSyncs += s.weightSyncs;
    }
}

} // namespace sibyl::bench
