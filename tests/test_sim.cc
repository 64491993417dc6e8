/**
 * @file
 * Tests for the simulation harness: metric collection, Fast-Only
 * normalization, the policy factory, and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "common/table.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::sim
{
namespace
{

TEST(Simulator, MetricsSanity)
{
    trace::Trace t = trace::makeWorkload("usr_0", 3000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    auto policy = makePolicy("CDE", 2);
    RunMetrics m = runSimulation(t, sys, *policy);
    EXPECT_EQ(m.requests, 3000u);
    EXPECT_GT(m.avgLatencyUs, 0.0);
    EXPECT_GT(m.iops, 0.0);
    EXPECT_GE(m.p99LatencyUs, m.p50LatencyUs);
    EXPECT_GE(m.maxLatencyUs, m.p99LatencyUs * 0.5);
    EXPECT_GE(m.fastPlacementPreference, 0.0);
    EXPECT_LE(m.fastPlacementPreference, 1.0);
    ASSERT_EQ(m.placements.size(), 2u);
    EXPECT_EQ(m.placements[0] + m.placements[1], 3000u);
}

TEST(Simulator, PerRequestRecordingOffByDefault)
{
    trace::Trace t = trace::makeWorkload("usr_0", 1000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    auto policy = makePolicy("CDE", 2);
    RunMetrics m = runSimulation(t, sys, *policy);
    EXPECT_TRUE(m.perRequestArrivalUs.empty());
    EXPECT_TRUE(m.perRequestLatencyUs.empty());
    EXPECT_TRUE(m.perRequestAction.empty());
}

TEST(Simulator, PerRequestRecordingMatchesAggregates)
{
    trace::Trace t = trace::makeWorkload("usr_0", 1000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    auto policy = makePolicy("CDE", 2);
    SimConfig cfg;
    cfg.recordPerRequest = true;
    RunMetrics m = runSimulation(t, sys, *policy, cfg);

    ASSERT_EQ(m.perRequestLatencyUs.size(), t.size());
    ASSERT_EQ(m.perRequestArrivalUs.size(), t.size());
    ASSERT_EQ(m.perRequestAction.size(), t.size());

    // The recorded vector must reproduce the aggregate metrics.
    double sum = 0.0;
    std::uint64_t fast = 0;
    for (std::size_t i = 0; i < t.size(); i++) {
        sum += m.perRequestLatencyUs[i];
        fast += m.perRequestAction[i] == 0 ? 1 : 0;
        ASSERT_LT(m.perRequestAction[i], 2);
        if (i > 0) {
            EXPECT_GE(m.perRequestArrivalUs[i],
                      m.perRequestArrivalUs[i - 1] - 1e-9);
        }
    }
    EXPECT_NEAR(sum / static_cast<double>(t.size()), m.avgLatencyUs,
                1e-6);
    EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(t.size()),
                m.fastPlacementPreference, 1e-9);
}

TEST(Simulator, QueueDepthGatesArrivals)
{
    // With queueDepth 1, a request never arrives before the previous
    // one finished, so per-request latency excludes host queueing.
    trace::Trace t("burst");
    for (int i = 0; i < 100; i++)
        t.add({0.0, static_cast<PageId>(i * 100), 1, OpType::Read});
    auto specs = hss::makeHssConfig("H&L", 10000, 0.10);
    hss::HybridSystem sysA(specs, 1);
    hss::HybridSystem sysB(specs, 1);
    auto slow = makePolicy("Slow-Only", 2);
    SimConfig qd1;
    qd1.queueDepth = 1;
    SimConfig qd8;
    qd8.queueDepth = 8;
    auto m1 = runSimulation(t, sysA, *slow, qd1);
    auto m8 = runSimulation(t, sysB, *slow, qd8);
    EXPECT_LT(m1.avgLatencyUs * 3, m8.avgLatencyUs);
}

TEST(Simulator, QueueDepthBackPressureInvariant)
{
    // Property test over random traces and queue depths: with host
    // queue depth qd, request i may never be issued before request
    // i - qd completed, every request is issued no earlier than its
    // trace timestamp, and with qd = 1 (strictly closed-loop replay)
    // completions are monotone non-decreasing.
    Pcg32 rng(0xBADCAFE);
    for (int iter = 0; iter < 6; iter++) {
        const std::uint32_t qd =
            1u + static_cast<std::uint32_t>(rng.nextBounded(15));
        trace::Trace t("random");
        SimTime ts = 0.0;
        const std::size_t n = 600 + rng.nextBounded(600);
        for (std::size_t i = 0; i < n; i++) {
            // Bursty arrivals so back-pressure actually engages.
            if (rng.nextBool(0.7))
                ts += rng.nextDouble(0.0, 30.0);
            t.add({ts, rng.nextBounded(5000),
                   1u + static_cast<std::uint32_t>(rng.nextBounded(8)),
                   rng.nextBool(0.4) ? OpType::Write : OpType::Read});
        }

        auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
        hss::HybridSystem sys(specs, 7 + iter);
        auto policy = makePolicy(rng.nextBool(0.5) ? "CDE" : "HPS", 2);
        SimConfig cfg;
        cfg.queueDepth = qd;
        cfg.recordPerRequest = true;
        RunMetrics m = runSimulation(t, sys, *policy, cfg);

        ASSERT_EQ(m.perRequestArrivalUs.size(), t.size());
        ASSERT_EQ(m.perRequestFinishUs.size(), t.size());
        for (std::size_t i = 0; i < t.size(); i++) {
            SCOPED_TRACE("iter " + std::to_string(iter) + " qd " +
                         std::to_string(qd) + " req " +
                         std::to_string(i));
            // Issued at or after the workload asked for it...
            EXPECT_GE(m.perRequestArrivalUs[i], t[i].timestamp - 1e-9);
            // ...never finishing before it was issued...
            EXPECT_GE(m.perRequestFinishUs[i],
                      m.perRequestArrivalUs[i] - 1e-9);
            // ...and never issued before request i - qd completed.
            if (i >= qd) {
                EXPECT_GE(m.perRequestArrivalUs[i],
                          m.perRequestFinishUs[i - qd] - 1e-9);
            }
            // qd = 1: one request in flight, completions monotone.
            if (qd == 1 && i > 0) {
                EXPECT_GE(m.perRequestFinishUs[i],
                          m.perRequestFinishUs[i - 1] - 1e-9);
            }
        }
    }
}

TEST(Experiment, NormalizationAgainstFastOnly)
{
    RunSpec spec;
    spec.policy = "Slow-Only";
    spec.workload = "usr_0";
    spec.hssConfig = "H&M";
    spec.traceLen = 3000;
    const auto records = ParallelRunner().runAll({spec});
    ASSERT_FALSE(records[0].failed()) << records[0].error;
    const PolicyResult &r = records[0].result;
    EXPECT_GT(r.normalizedLatency, 1.0); // slower than Fast-Only
    EXPECT_LT(r.normalizedIops, 1.001);
    EXPECT_EQ(r.policy, "Slow-Only");
    EXPECT_EQ(r.workload, "usr_0");
}

TEST(Experiment, DeviceCountFromConfigString)
{
    EXPECT_EQ(numHssDevices("H&L"), 2u);
    EXPECT_EQ(numHssDevices("H&M&L"), 3u);
    EXPECT_EQ(numHssDevices("H&M&L_SSD"), 3u);
}

TEST(Experiment, SpecTweakAppliesToPolicyRunsOnly)
{
    RunSpec healthy;
    healthy.policy = "CDE";
    healthy.workload = "usr_0";
    healthy.hssConfig = "H&M";
    healthy.traceLen = 2000;

    // Permanently degrade the fast device via the tweak hook: policy
    // runs slow down, but Fast-Only normalization stays the healthy
    // reference, so the normalized latency grows accordingly.
    RunSpec degraded = healthy;
    degraded.specTweak = [](std::vector<device::DeviceSpec> &specs) {
        specs[0].faults.windows.push_back({0.0, 1e15, 20.0});
    };
    degraded.variantTag = "fast-x20";

    ParallelRunner runner;
    const auto records = runner.runAll({healthy, degraded});
    ASSERT_FALSE(records[0].failed()) << records[0].error;
    ASSERT_FALSE(records[1].failed()) << records[1].error;
    const PolicyResult &h = records[0].result;
    const PolicyResult &d = records[1].result;
    EXPECT_GT(d.metrics.avgLatencyUs, h.metrics.avgLatencyUs * 2.0);
    EXPECT_GT(d.normalizedLatency, h.normalizedLatency * 2.0);
    // Both runs share one baseline: the tweak never reaches it.
    EXPECT_EQ(runner.baselineCount(), 1u);
}

TEST(PolicyFactory, AllStandardNames)
{
    for (const auto &name : standardPolicyLineup()) {
        auto p = makePolicy(name, 2);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_NE(makePolicy("Fast-Only", 2), nullptr);
    EXPECT_NE(makePolicy("Heuristic-Tri-Hybrid", 3), nullptr);
    EXPECT_THROW(makePolicy("NoSuchPolicy", 2), std::invalid_argument);
}

TEST(PolicyFactory, SibylVariantsKeepName)
{
    core::SibylConfig cfg;
    auto p = makePolicy("Sibyl_Opt", 2, cfg);
    EXPECT_EQ(p->name(), "Sibyl_Opt");
}

TEST(TextTable, AlignedOutput)
{
    TextTable tab;
    tab.header({"workload", "latency"});
    tab.addRow({"hm_1", cell(1.234, 2)});
    tab.addRow({"prxy_1", cell(std::uint64_t{42})});
    std::ostringstream os;
    tab.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("workload"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable tab;
    tab.header({"a", "b"});
    tab.addRow({"1", "2"});
    std::ostringstream os;
    tab.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, RowWidthMismatchThrows)
{
    TextTable tab;
    tab.header({"a", "b"});
    EXPECT_THROW(tab.addRow({"only-one"}), std::invalid_argument);
}

} // namespace
} // namespace sibyl::sim
