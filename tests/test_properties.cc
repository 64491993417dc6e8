/**
 * @file
 * Cross-module property tests: invariants that must hold for *any*
 * workload, seed, or policy — the glue guarantees the per-module unit
 * tests cannot see.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sibyl_policy.hh"
#include "ftl/ftl.hh"
#include "hss/hybrid_system.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

// ---------------------------------------------------------------------
// HSS x detailed-FTL fuzz: the storage management layer must keep the
// device FTLs consistent through arbitrary placement decisions.
// ---------------------------------------------------------------------

class HssFtlFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HssFtlFuzzTest, RandomActionsKeepFtlConsistent)
{
    Pcg32 rng(GetParam());

    // Small flash-backed dual-HSS: both devices run detailed FTLs.
    std::vector<device::DeviceSpec> specs;
    specs.push_back(device::deviceM());
    specs[0].capacityPages = 300;
    specs[0].detailedFtl = true;
    specs[0].ftlPagesPerBlock = 16;
    specs.push_back(device::deviceLssd());
    specs[1].capacityPages = 4000;
    specs[1].detailedFtl = true;
    specs[1].ftlPagesPerBlock = 16;
    hss::HybridSystem sys(std::move(specs), GetParam());

    SimTime now = 0.0;
    for (int i = 0; i < 4000; i++) {
        trace::Request req;
        req.page = rng.nextBounded(2000);
        req.sizePages = 1 + rng.nextBounded(8);
        req.op = rng.nextBool(0.6) ? OpType::Write : OpType::Read;
        req.timestamp = now;
        const DeviceId action = rng.nextBounded(sys.numDevices());
        const auto result = sys.serve(now, req, action);
        now = std::max(now + 1.0, result.finishUs);

        // Occupancy never exceeds capacity (serve would panic, but
        // check explicitly for clarity).
        for (DeviceId d = 0; d < sys.numDevices(); d++) {
            ASSERT_LE(sys.device(d).usedPages(),
                      sys.device(d).spec().capacityPages);
        }
    }

    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        const ftl::PageMappedFtl *f = sys.device(d).ftl();
        ASSERT_NE(f, nullptr);
        // FTL internal consistency after arbitrary churn.
        EXPECT_EQ(f->checkInvariants(), "") << "device " << d;
        // Every FTL-mapped page is accounted as occupied (reads can
        // occupy without writing, so <=).
        EXPECT_LE(f->mappedPages(), sys.device(d).usedPages())
            << "device " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HssFtlFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------
// Metric invariants for every standard policy.
// ---------------------------------------------------------------------

class PolicyMetricsTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyMetricsTest, MetricsWellFormed)
{
    sim::RunSpec spec;
    spec.policy = GetParam();
    spec.workload = "rsrch_0";
    spec.hssConfig = "H&M";
    spec.traceLen = 3000;
    const auto records = sim::ParallelRunner().runAll({spec});
    ASSERT_FALSE(records[0].failed()) << records[0].error;
    const auto &r = records[0].result;
    const auto &m = r.metrics;

    EXPECT_EQ(m.requests, spec.traceLen);
    EXPECT_GT(m.avgLatencyUs, 0.0);
    EXPECT_LE(m.p50LatencyUs, m.p99LatencyUs);
    EXPECT_LE(m.p99LatencyUs, m.maxLatencyUs);
    EXPECT_GE(m.avgLatencyUs, m.p50LatencyUs * 0.01);
    EXPECT_LE(m.avgLatencyUs, m.maxLatencyUs);
    EXPECT_GT(m.iops, 0.0);
    EXPECT_GT(m.makespanUs, 0.0);
    EXPECT_GE(m.evictionFraction, 0.0);
    EXPECT_LE(m.evictionFraction, 1.0);
    EXPECT_GE(m.fastPlacementPreference, 0.0);
    EXPECT_LE(m.fastPlacementPreference, 1.0);

    std::uint64_t placements = 0;
    for (auto p : m.placements)
        placements += p;
    EXPECT_EQ(placements, m.requests);

    // Fast-Only normalization: nothing (meaningfully) beats serving
    // everything from an unbounded fast device.
    EXPECT_GE(r.normalizedLatency, 0.9);

    // Energy/write accounting present for each device.
    ASSERT_EQ(r.devicePagesWritten.size(),
              sim::numHssDevices(spec.hssConfig));
    EXPECT_GT(r.totalEnergyMj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyMetricsTest,
    ::testing::Values("Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS",
                      "Sibyl", "Oracle"));

// ---------------------------------------------------------------------
// Reward-function properties.
// ---------------------------------------------------------------------

TEST(RewardProperties, MonotoneNonincreasingInLatency)
{
    core::RewardFunction f{core::RewardConfig()};
    double prev = 1e9;
    for (double lat : {1.0, 5.0, 10.0, 100.0, 1e4, 1e6}) {
        hss::ServeResult r;
        r.latencyUs = lat;
        const double reward = f(r);
        EXPECT_LE(reward, prev) << "latency " << lat;
        EXPECT_GE(reward, 0.0);
        prev = reward;
    }
}

TEST(RewardProperties, EvictionNeverIncreasesReward)
{
    core::RewardFunction f{core::RewardConfig()};
    for (double lat : {1.0, 50.0, 1e4}) {
        hss::ServeResult clean;
        clean.latencyUs = lat;
        hss::ServeResult evicted = clean;
        evicted.eviction = true;
        evicted.evictionTimeUs = 5000.0;
        EXPECT_LE(f(evicted), f(clean)) << "latency " << lat;
        EXPECT_GE(f(evicted), 0.0);
    }
}

TEST(RewardProperties, PenaltyScalesWithEvictionTime)
{
    core::RewardFunction f{core::RewardConfig()};
    EXPECT_LT(f.evictionPenalty(1000.0), f.evictionPenalty(100000.0));
    EXPECT_DOUBLE_EQ(f.evictionPenalty(0.0), 0.0);
}

// ---------------------------------------------------------------------
// Determinism: identical seeds and configs give identical results,
// including with the detailed FTL and every agent family.
// ---------------------------------------------------------------------

class DeterminismTest
    : public ::testing::TestWithParam<core::AgentKind>
{
};

TEST_P(DeterminismTest, RepeatRunsAreBitIdentical)
{
    auto once = [&] {
        sim::RunSpec spec;
        spec.hssConfig = "H&M";
        trace::Trace t = trace::makeWorkload("prxy_1", 4000);
        core::SibylConfig scfg;
        scfg.agentKind = GetParam();
        core::SibylPolicy sibyl(scfg, sim::numHssDevices(spec.hssConfig));
        return sim::runPolicyExperiment(
            spec, t, sibyl, sim::computeFastOnlyBaseline(spec, t, 42), 42);
    };
    const auto a = once();
    const auto b = once();
    EXPECT_DOUBLE_EQ(a.metrics.avgLatencyUs, b.metrics.avgLatencyUs);
    EXPECT_EQ(a.metrics.placements, b.metrics.placements);
    EXPECT_DOUBLE_EQ(a.totalEnergyMj, b.totalEnergyMj);
}

INSTANTIATE_TEST_SUITE_P(AgentKinds, DeterminismTest,
                         ::testing::Values(core::AgentKind::C51,
                                           core::AgentKind::Dqn,
                                           core::AgentKind::QTable));

// ---------------------------------------------------------------------
// Trace-generator stream validity for every shipped profile.
// ---------------------------------------------------------------------

class TraceValidityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceValidityTest, StreamWellFormed)
{
    trace::Trace t = trace::makeWorkload(GetParam(), 5000);
    ASSERT_EQ(t.size(), 5000u);
    SimTime prev = -1.0;
    for (const auto &r : t) {
        EXPECT_GE(r.timestamp, prev);
        EXPECT_GE(r.sizePages, 1u);
        prev = r.timestamp;
    }
    EXPECT_GT(t.uniquePages(), 0u);
    EXPECT_EQ(t.name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, TraceValidityTest,
    ::testing::Values("hm_1", "mds_0", "prn_1", "proj_0", "proj_2",
                      "proj_3", "prxy_0", "prxy_1", "rsrch_0", "src1_0",
                      "stg_1", "usr_0", "wdev_2", "web_1", "fileserver",
                      "ntrx_rw", "oltp_rw", "varmail", "ycsb_c"));

// ---------------------------------------------------------------------
// The coarse GC model and the detailed FTL must agree qualitatively:
// Sibyl remains functional and the system remains consistent when the
// mechanistic model replaces the probabilistic one.
// ---------------------------------------------------------------------

TEST(DetailedFtlIntegration, SibylRunsOnFtlBackedSystem)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 5000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    specs[1].detailedFtl = true; // M device gets the real FTL
    specs[1].ftlPagesPerBlock = 64;
    hss::HybridSystem sys(std::move(specs));

    core::SibylConfig cfg;
    core::SibylPolicy sibyl(cfg, sys.numDevices());
    const auto m = sim::runSimulation(t, sys, sibyl);

    EXPECT_EQ(m.requests, t.size());
    const ftl::PageMappedFtl *f = sys.device(1).ftl();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->checkInvariants(), "");
    EXPECT_GT(f->stats().hostWrites, 0u);
}


// ---------------------------------------------------------------------
// Tri-hybrid fuzz: cascade evictions through three devices with random
// policies must preserve residency/occupancy consistency.
// ---------------------------------------------------------------------

class TriHybridFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TriHybridFuzzTest, RandomActionsStayConsistent)
{
    Pcg32 rng(GetParam());
    auto specs = hss::makeHssConfig("H&M&L", 3000, 0.05);
    hss::HybridSystem sys(std::move(specs), GetParam());

    SimTime now = 0.0;
    for (int i = 0; i < 5000; i++) {
        trace::Request req;
        req.page = rng.nextBounded(3000);
        req.sizePages = 1 + rng.nextBounded(4);
        req.op = rng.nextBool(0.5) ? OpType::Write : OpType::Read;
        req.timestamp = now;
        const auto r =
            sys.serve(now, req, rng.nextBounded(sys.numDevices()));
        now = std::max(now + 1.0, r.finishUs);
    }

    // Residency counted from metadata must match device occupancy.
    std::vector<std::uint64_t> resident(sys.numDevices(), 0);
    for (PageId p = 0; p < 3005; p++) {
        const DeviceId d = sys.placement(p);
        if (d != kNoDevice) {
            ASSERT_LT(d, sys.numDevices());
            resident[d]++;
        }
    }
    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        EXPECT_EQ(resident[d], sys.device(d).usedPages())
            << "device " << d;
        EXPECT_LE(sys.device(d).usedPages(),
                  sys.device(d).spec().capacityPages);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriHybridFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

} // namespace
} // namespace sibyl
