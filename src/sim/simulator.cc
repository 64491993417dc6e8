#include "sim/simulator.hh"

#include <algorithm>
#include <vector>

#include "ftl/wear_stats.hh"
#include "ml/network.hh"

namespace sibyl::sim
{

void
RunAccumulator::merge(const RunAccumulator &o)
{
    if (o.latency.count() == 0)
        return;
    if (latency.count() == 0) {
        firstArrival = o.firstArrival;
        lastFinish = o.lastFinish;
    } else {
        firstArrival = std::min(firstArrival, o.firstArrival);
        lastFinish = std::max(lastFinish, o.lastFinish);
    }
    latency.merge(o.latency);
    steadyLatency.merge(o.steadyLatency);
    latencyHist.merge(o.latencyHist);
}

void
deriveRunMetrics(const RunAccumulator &acc, const hss::HssCounters &c,
                 RunMetrics &m)
{
    m.requests = acc.latency.count();
    m.avgLatencyUs = acc.latency.mean();
    // Histogram quantiles interpolate inside a bin and can overshoot
    // the largest observed sample; clamp so p50 <= p99 <= p999 <= max
    // always holds in reported metrics.
    m.maxLatencyUs = acc.latency.max();
    m.p999LatencyUs = std::min(acc.latencyHist.quantile(0.999),
                               m.maxLatencyUs);
    m.p99LatencyUs = std::min(acc.latencyHist.quantile(0.99),
                              m.p999LatencyUs);
    m.p50LatencyUs = std::min(acc.latencyHist.quantile(0.50),
                              m.p99LatencyUs);
    m.steadyAvgLatencyUs = acc.steadyLatency.mean();
    m.makespanUs = acc.lastFinish - acc.firstArrival;
    m.iops = m.makespanUs > 0.0
        ? static_cast<double>(m.requests) / (m.makespanUs / 1e6)
        : 0.0;
    if (m.requests) {
        m.evictionFraction = static_cast<double>(c.evictionEvents) /
                             static_cast<double>(m.requests);
        m.evictedPagesPerRequest = static_cast<double>(c.evictedPages) /
                                   static_cast<double>(m.requests);
    }
    std::uint64_t totalPlacements = 0;
    for (auto p : c.placements)
        totalPlacements += p;
    m.fastPlacementPreference = totalPlacements
        ? static_cast<double>(c.placements[0]) /
          static_cast<double>(totalPlacements)
        : 0.0;
    m.placements = c.placements;
    m.promotions = c.promotions;
    m.demotions = c.demotions;
}

RequestStepper::RequestStepper(hss::HybridSystem &sys,
                               policies::PlacementPolicy &policy,
                               const SimConfig &cfg,
                               std::size_t expectedRequests)
    : sys_(sys), policy_(policy), cfg_(cfg), expected_(expectedRequests),
      qd_(std::max<std::uint32_t>(1, cfg.queueDepth)),
      finishRing_(qd_, 0.0)
{
    if (cfg_.recordPerRequest) {
        record_.perRequestArrivalUs.reserve(expected_);
        record_.perRequestLatencyUs.reserve(expected_);
        record_.perRequestFinishUs.reserve(expected_);
        record_.perRequestAction.reserve(expected_);
    }
}

void
RequestStepper::step(const trace::Request &req)
{
    const std::uint64_t i = acc_.latency.count();

    // Bounded outstanding window: wait for request i-qd.
    SimTime gate = finishRing_[i % qd_];
    const SimTime arrival = std::max(req.timestamp, gate);
    if (i == 0)
        acc_.firstArrival = arrival;

    // Refresh device health (and the placement mask) at this request's
    // arrival so the decision below observes current availability.
    // No-op when hard faults are unarmed.
    sys_.advanceTo(arrival);

    // The policy's decision prologue either completes the decision or
    // hands back its network and the observation row to evaluate.
    DeviceId action{};
    const float *row = nullptr;
    if (ml::Network *net =
            policy_.selectPlacementBegin(sys_, req, i, action, &row))
        action = policy_.selectPlacementFromRow(net->inferRow(row));

    hss::ServeResult result = sys_.serve(arrival, req, action);
    policy_.observeOutcome(sys_, req, action, result);

    if (cfg_.recordPerRequest) {
        record_.perRequestArrivalUs.push_back(arrival);
        record_.perRequestLatencyUs.push_back(result.latencyUs);
        record_.perRequestFinishUs.push_back(result.finishUs);
        record_.perRequestAction.push_back(static_cast<std::uint8_t>(action));
    }

    finishRing_[i % qd_] = result.finishUs;
    acc_.lastFinish = std::max(acc_.lastFinish, result.finishUs);
    acc_.latency.add(result.latencyUs);
    if (i >= expected_ / 2)
        acc_.steadyLatency.add(result.latencyUs);
    acc_.latencyHist.add(result.latencyUs);
}

RunMetrics
RequestStepper::finish() const
{
    RunMetrics m = record_;
    if (acc_.latency.count() == 0)
        return m;

    deriveRunMetrics(acc_, sys_.counters(), m);

    for (DeviceId d = 0; d < sys_.numDevices(); d++) {
        const auto &spec = sys_.device(d).spec();
        const auto &f = spec.faults;
        // Wear-out is a hard fault too: endurance-armed runs surface
        // the same counters/availability block.
        if (f.enabled() || f.hardFaultsEnabled() ||
            spec.enduranceEnabled())
            m.faultsConfigured = true;
    }
    if (m.faultsConfigured) {
        // Latch any failure scheduled between the last serve and the
        // end of the run so the availability accounting sees it
        // (advanceTo is idempotent; sys_ is a reference member, so the
        // health clock may move even though finish() is const).
        sys_.advanceTo(acc_.lastFinish);
        for (DeviceId d = 0; d < sys_.numDevices(); d++) {
            const auto &fc = sys_.device(d).faultCounters();
            m.faultErroredOps += fc.erroredOps;
            m.faultRetries += fc.retries;
            m.faultRecoveries += fc.recoveries;
            m.faultDegradedOps += fc.degradedOps;
            m.faultErrorLatencyUs += fc.errorLatencyUs;
            m.deviceAvailability.push_back(
                sys_.deviceAvailability(d, acc_.firstArrival,
                                        acc_.lastFinish));
        }
        const auto &c = sys_.counters();
        m.maskedPlacements = c.maskedPlacements;
        m.failoverReads = c.failoverReads;
        m.failedOps = c.failedOps;
        m.drainedPages = c.drainedPages;
    }

    // Endurance metrics, aggregated over the detailed-FTL devices. WA
    // stays host-write-relative across devices: GC relocations count
    // in the numerator only, and a run with no host writes reports 1.0.
    std::uint64_t hostWrites = 0;
    std::uint64_t nandWrites = 0;
    for (DeviceId d = 0; d < sys_.numDevices(); d++) {
        const ftl::PageMappedFtl *f = sys_.device(d).ftl();
        if (!f)
            continue;
        m.enduranceConfigured = true;
        const ftl::WearReport wr = ftl::makeWearReport(
            *f, sys_.device(d).spec().ftlRatedPeCycles);
        hostWrites += f->stats().hostWrites;
        nandWrites += f->stats().hostWrites + f->stats().gcCopies;
        m.wearImbalance = std::max(m.wearImbalance, wr.imbalance);
        m.lifeConsumed = std::max(m.lifeConsumed, wr.lifeConsumed);
        m.retiredBlocks += wr.retiredBlocks;
    }
    if (m.enduranceConfigured && hostWrites > 0) {
        m.writeAmplification = static_cast<double>(nandWrites) /
                               static_cast<double>(hostWrites);
    }
    return m;
}

RunMetrics
runSimulation(const trace::Trace &t, hss::HybridSystem &sys,
              policies::PlacementPolicy &policy, const SimConfig &cfg)
{
    if (t.empty())
        return RunMetrics();

    if (!cfg.skipPrepare)
        policy.prepare(t, sys);

    RequestStepper stepper(sys, policy, cfg, t.size());
    for (std::size_t i = 0; i < t.size(); i++)
        stepper.step(t[i]);
    return stepper.finish();
}

} // namespace sibyl::sim
