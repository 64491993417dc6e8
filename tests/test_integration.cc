/**
 * @file
 * End-to-end integration tests: full policy lineups over synthesized
 * workloads, checking the cross-cutting invariants the paper's
 * evaluation relies on.
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "scenario/scenario_spec.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

using sim::makePolicy;

/** A one-config, one-workload scenario over @p policies. */
scenario::ScenarioSpec
lineup(std::vector<std::string> policies, const std::string &hssConfig,
       const std::string &workload, std::size_t requests)
{
    scenario::ScenarioSpec s;
    s.policies = std::move(policies);
    s.workloads = {workload};
    s.hssConfigs = {hssConfig};
    s.traceLen = requests;
    return s;
}

/** Run @p s through the runner; every run must succeed. */
std::vector<sim::RunRecord>
run(const scenario::ScenarioSpec &s)
{
    auto records = scenario::runScenario(s);
    for (const auto &r : records)
        EXPECT_FALSE(r.failed()) << r.spec.policy << ": " << r.error;
    return records;
}

TEST(Integration, EveryPolicyRunsOnEveryConfig)
{
    auto s = lineup(sim::standardPolicyLineup(), "H&M", "usr_0", 2000);
    s.hssConfigs = {"H&M", "H&L"};
    for (const auto &rec : run(s)) {
        EXPECT_GT(rec.result.metrics.avgLatencyUs, 0.0)
            << rec.spec.policy << " on " << rec.spec.hssConfig;
        EXPECT_EQ(rec.result.metrics.requests, 2000u);
    }
}

TEST(Integration, SlowOnlyNeverTouchesFastDevice)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 2000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    auto p = makePolicy("Slow-Only", 2);
    sim::runSimulation(t, sys, *p);
    EXPECT_EQ(sys.device(0).counters().reads, 0u);
    EXPECT_EQ(sys.device(0).counters().writes, 0u);
    EXPECT_EQ(sys.counters().placements[0], 0u);
}

TEST(Integration, FastOnlyWithFullCapacityNeverEvicts)
{
    trace::Trace t = trace::makeWorkload("usr_0", 2000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 1.5);
    hss::HybridSystem sys(specs, 1);
    auto p = makePolicy("Fast-Only", 2);
    auto m = sim::runSimulation(t, sys, *p);
    EXPECT_EQ(m.evictionFraction, 0.0);
    EXPECT_EQ(sys.device(1).counters().reads +
                  sys.device(1).counters().writes,
              0u);
}

TEST(Integration, FastOnlyIsTheLowerBound)
{
    // Every policy on the capacity-limited system is at least as slow as
    // Fast-Only on an unlimited fast device (normalized >= ~1).
    for (const auto &rec :
         run(lineup({"Slow-Only", "CDE", "HPS", "Sibyl", "Oracle"}, "H&M",
                    "prxy_0", 3000)))
        EXPECT_GE(rec.result.normalizedLatency, 0.95) << rec.spec.policy;
}

TEST(Integration, CachingBeatsSlowOnlyOnHotWorkload)
{
    // prxy_0: 97% writes, extremely hot -> any sensible placement policy
    // must beat Slow-Only in the cost-oriented config.
    const auto records = run(lineup({"Slow-Only", "CDE", "Sibyl", "Oracle"},
                                    "H&L", "prxy_0", 4000));
    const double slow = records[0].result.normalizedLatency;
    for (std::size_t i = 1; i < records.size(); i++)
        EXPECT_LT(records[i].result.normalizedLatency, slow * 0.8)
            << records[i].spec.policy;
}

TEST(Integration, SibylLearnsOnline)
{
    // Online adaptation (§8.1): after convergence Sibyl must do clearly
    // better than during its warmup. Compare the last third of the run
    // against the first third on a hot, read-dominated workload.
    trace::Trace t = trace::makeWorkload("hm_1", 18000);
    auto specs = hss::makeHssConfig("H&L", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    core::SibylConfig scfg;
    core::SibylPolicy sibyl(scfg, 2);
    RunningStat firstThird, lastThird;
    SimTime prevFinish = 0.0;
    for (std::size_t i = 0; i < t.size(); i++) {
        SimTime arrival = std::max(t[i].timestamp, prevFinish);
        DeviceId a = sibyl.selectPlacement(sys, t[i], i);
        auto res = sys.serve(arrival, t[i], a);
        sibyl.observeOutcome(sys, t[i], a, res);
        prevFinish = res.finishUs;
        if (i < t.size() / 3)
            firstThird.add(res.latencyUs);
        else if (i >= 2 * t.size() / 3)
            lastThird.add(res.latencyUs);
    }
    EXPECT_LT(lastThird.mean(), firstThird.mean());
}

TEST(Integration, TriHybridSibylRunsAndBeatsSlowestOnly)
{
    auto s = lineup({"Sibyl", "Slow-Only", "Heuristic-Tri-Hybrid"}, "H&M&L",
                    "prxy_0", 4000);
    s.fastCapacityFrac = 0.05;
    const auto records = run(s);
    EXPECT_LT(records[0].result.normalizedLatency,
              records[1].result.normalizedLatency);
    EXPECT_GT(records[2].result.metrics.requests, 0u);
}

TEST(Integration, MixedWorkloadsRunEndToEnd)
{
    auto s = lineup({"Sibyl"}, "H&M", "mix2", 1500);
    s.mixedWorkloads = true;
    const auto r = run(s)[0].result;
    EXPECT_GT(r.metrics.requests, 2900u);
    EXPECT_GT(r.normalizedLatency, 0.0);
}

TEST(Integration, DeterministicAcrossRuns)
{
    // Two independent runners (own trace and baseline caches).
    const auto s = lineup({"Sibyl"}, "H&M", "wdev_2", 3000);
    const auto a = run(s)[0].result;
    const auto b = run(s)[0].result;
    EXPECT_DOUBLE_EQ(a.metrics.avgLatencyUs, b.metrics.avgLatencyUs);
    EXPECT_EQ(a.metrics.placements, b.metrics.placements);
}

TEST(Integration, UnseenWorkloadsRun)
{
    auto s = lineup({"Sibyl"}, "H&M", "", 1500);
    s.workloads.clear();
    for (const auto &p : trace::filebenchProfiles())
        s.workloads.push_back(p.name);
    for (const auto &rec : run(s))
        EXPECT_GT(rec.result.metrics.avgLatencyUs, 0.0) << rec.spec.workload;
}

} // namespace
} // namespace sibyl
