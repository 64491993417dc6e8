/**
 * @file
 * Tests for the device fault-injection model: config validation,
 * degradation-window arithmetic, error-retry latency and counters, and
 * end-to-end behaviour through BlockDevice (identical timing with
 * faults disabled; strictly slower service under injected faults; the
 * latency signal surfacing in HybridSystem serve results).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/sibyl_policy.hh"
#include "device/block_device.hh"
#include "device/fault_model.hh"
#include "hss/hybrid_system.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace sibyl::device
{
namespace
{

TEST(FaultConfig, DisabledByDefault)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    FaultModel model(cfg);
    EXPECT_FALSE(model.enabled());
}

TEST(FaultConfig, EnabledByAnyMechanism)
{
    FaultConfig a;
    a.readErrorProb = 0.1;
    EXPECT_TRUE(a.enabled());

    FaultConfig b;
    b.writeErrorProb = 0.1;
    EXPECT_TRUE(b.enabled());

    FaultConfig c;
    c.windows.push_back({100.0, 200.0, 4.0});
    EXPECT_TRUE(c.enabled());
}

TEST(FaultModel, DegradationOutsideWindowIsUnity)
{
    FaultConfig cfg;
    cfg.windows.push_back({100.0, 200.0, 8.0});
    FaultModel model(cfg);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(50.0), 1.0);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(200.0), 1.0); // exclusive
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(1e9), 1.0);
    EXPECT_EQ(model.counters().degradedOps, 0u);
}

TEST(FaultModel, DegradationInsideWindowApplies)
{
    FaultConfig cfg;
    cfg.windows.push_back({100.0, 200.0, 8.0});
    FaultModel model(cfg);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(100.0), 8.0); // inclusive
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(150.0), 8.0);
    EXPECT_EQ(model.counters().degradedOps, 2u);
}

TEST(FaultModel, OverlappingWindowsMultiply)
{
    FaultConfig cfg;
    cfg.windows.push_back({0.0, 300.0, 2.0});
    cfg.windows.push_back({100.0, 200.0, 3.0});
    FaultModel model(cfg);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(50.0), 2.0);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(150.0), 6.0);
    EXPECT_DOUBLE_EQ(model.degradationMultiplier(250.0), 2.0);
}

TEST(FaultModel, ZeroProbabilityAddsNoLatency)
{
    FaultModel model(FaultConfig{});
    Pcg32 rng(7);
    for (int i = 0; i < 100; i++) {
        EXPECT_DOUBLE_EQ(model.errorLatencyUs(OpType::Read, 90.0, rng),
                         0.0);
        EXPECT_DOUBLE_EQ(model.errorLatencyUs(OpType::Write, 60.0, rng),
                         0.0);
    }
    EXPECT_EQ(model.counters().erroredOps, 0u);
    EXPECT_EQ(model.counters().retries, 0u);
}

TEST(FaultModel, CertainErrorExhaustsRetriesAndRecovers)
{
    FaultConfig cfg;
    cfg.readErrorProb = 1.0;
    cfg.maxRetries = 3;
    cfg.retryMultiplier = 2.0;
    cfg.recoveryUs = 500.0;
    FaultModel model(cfg);
    Pcg32 rng(7);
    const double extra = model.errorLatencyUs(OpType::Read, 100.0, rng);
    // 3 retries x 2.0 x 100us + 500us recovery.
    EXPECT_DOUBLE_EQ(extra, 3 * 200.0 + 500.0);
    EXPECT_EQ(model.counters().erroredOps, 1u);
    EXPECT_EQ(model.counters().retries, 3u);
    EXPECT_EQ(model.counters().recoveries, 1u);
    EXPECT_DOUBLE_EQ(model.counters().errorLatencyUs, extra);
}

TEST(FaultModel, ErrorRatesAreOpSpecific)
{
    FaultConfig cfg;
    cfg.readErrorProb = 1.0; // writes never error
    cfg.maxRetries = 1;
    FaultModel model(cfg);
    Pcg32 rng(7);
    EXPECT_GT(model.errorLatencyUs(OpType::Read, 100.0, rng), 0.0);
    EXPECT_DOUBLE_EQ(model.errorLatencyUs(OpType::Write, 100.0, rng), 0.0);
}

TEST(FaultModel, RetryFrequencyTracksProbability)
{
    FaultConfig cfg;
    cfg.readErrorProb = 0.25;
    cfg.maxRetries = 1; // at most one retry => retries ~ Bernoulli(p)
    FaultModel model(cfg);
    Pcg32 rng(1234);
    const int n = 20000;
    for (int i = 0; i < n; i++)
        model.errorLatencyUs(OpType::Read, 10.0, rng);
    const double freq =
        static_cast<double>(model.counters().retries) / n;
    EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(FaultModel, ResetCountersClears)
{
    FaultConfig cfg;
    cfg.readErrorProb = 1.0;
    cfg.maxRetries = 1;
    FaultModel model(cfg);
    Pcg32 rng(7);
    model.errorLatencyUs(OpType::Read, 10.0, rng);
    EXPECT_GT(model.counters().retries, 0u);
    model.resetCounters();
    EXPECT_EQ(model.counters().retries, 0u);
    EXPECT_DOUBLE_EQ(model.counters().errorLatencyUs, 0.0);
}

// --- BlockDevice integration -------------------------------------------

DeviceSpec
specM(std::uint64_t capacity = 4096)
{
    DeviceSpec s = devicePreset("M");
    s.capacityPages = capacity;
    return s;
}

TEST(BlockDeviceFaults, DisabledFaultsKeepTimingIdentical)
{
    // A device with a default FaultConfig must be bit-identical to one
    // without the feature (same RNG stream, same service times).
    BlockDevice plain(specM(), 99);
    DeviceSpec withCfg = specM();
    withCfg.faults = FaultConfig(); // explicit but disabled
    BlockDevice guarded(withCfg, 99);

    Pcg32 addrRng(5);
    SimTime now = 0.0;
    for (int i = 0; i < 300; i++) {
        const PageId page = addrRng.nextBounded(4096);
        const auto op = addrRng.nextBool(0.5) ? OpType::Read : OpType::Write;
        const auto a = plain.access(now, op, page, 4);
        const auto b = guarded.access(now, op, page, 4);
        ASSERT_DOUBLE_EQ(a.serviceUs, b.serviceUs) << "op " << i;
        now += 50.0;
    }
    EXPECT_EQ(guarded.faultCounters().erroredOps, 0u);
}

TEST(BlockDeviceFaults, DegradationWindowSlowsServiceInsideOnly)
{
    DeviceSpec s = specM();
    s.faults.windows.push_back({10000.0, 20000.0, 10.0});
    BlockDevice dev(s, 99);
    BlockDevice ref(specM(), 99);

    // Sequential reads so the baseline service time is deterministic.
    const auto before = dev.access(0.0, OpType::Read, 0, 4);
    const auto beforeRef = ref.access(0.0, OpType::Read, 0, 4);
    EXPECT_DOUBLE_EQ(before.serviceUs, beforeRef.serviceUs);

    const auto inside = dev.access(15000.0, OpType::Read, 4, 4);
    const auto insideRef = ref.access(15000.0, OpType::Read, 4, 4);
    EXPECT_NEAR(inside.serviceUs, 10.0 * insideRef.serviceUs, 1e-9);

    const auto after = dev.access(30000.0, OpType::Read, 8, 4);
    const auto afterRef = ref.access(30000.0, OpType::Read, 8, 4);
    EXPECT_DOUBLE_EQ(after.serviceUs, afterRef.serviceUs);

    EXPECT_EQ(dev.faultCounters().degradedOps, 1u);
}

TEST(BlockDeviceFaults, CertainErrorsRaiseEveryServiceTime)
{
    DeviceSpec s = specM();
    s.faults.readErrorProb = 1.0;
    s.faults.writeErrorProb = 1.0;
    s.faults.maxRetries = 2;
    s.faults.retryMultiplier = 1.0;
    BlockDevice dev(s, 99);
    BlockDevice ref(specM(), 99);

    SimTime now = 0.0;
    for (int i = 0; i < 50; i++) {
        const auto op = i % 2 ? OpType::Write : OpType::Read;
        const double base = op == OpType::Read ? s.readLatencyUs
                                               : s.writeLatencyUs;
        const auto a = dev.access(now, op, i * 4u, 4);
        const auto b = ref.access(now, op, i * 4u, 4);
        EXPECT_NEAR(a.serviceUs, b.serviceUs + 2 * base, 1e-9);
        now += 1000.0;
    }
    EXPECT_EQ(dev.faultCounters().erroredOps, 50u);
    EXPECT_EQ(dev.faultCounters().recoveries, 50u);
}

TEST(BlockDeviceFaults, ResetClearsFaultCounters)
{
    DeviceSpec s = specM();
    s.faults.readErrorProb = 1.0;
    s.faults.maxRetries = 1;
    BlockDevice dev(s, 99);
    dev.access(0.0, OpType::Read, 0, 1);
    EXPECT_GT(dev.faultCounters().retries, 0u);
    dev.reset();
    EXPECT_EQ(dev.faultCounters().retries, 0u);
}

TEST(BlockDeviceFaults, DegradedFastDeviceRaisesServeLatency)
{
    // Through the full HSS path: requests served by a degraded fast
    // device must report higher latency — exactly the reward signal
    // Sibyl uses to learn around the fault.
    auto mkSpecs = [](bool degraded) {
        auto specs = hss::makeHssConfig("H&M", 4096);
        if (degraded)
            specs[0].faults.windows.push_back({0.0, 1e12, 50.0});
        return specs;
    };
    hss::HybridSystem healthy(mkSpecs(false), 7);
    hss::HybridSystem faulty(mkSpecs(true), 7);

    trace::Request req;
    req.page = 0;
    req.sizePages = 4;
    req.op = OpType::Write;

    const auto a = healthy.serve(0.0, req, 0);
    const auto b = faulty.serve(0.0, req, 0);
    EXPECT_GT(b.latencyUs, a.latencyUs * 10.0);
}

TEST(BlockDeviceFaults, SibylShiftsPlacementAwayFromDegradedDevice)
{
    // End-to-end adaptivity: with the fast device permanently degraded
    // x50, Sibyl's latency reward should steer it toward the healthy
    // slow device far more often than on a healthy system.
    trace::Trace t = trace::makeWorkload("rsrch_0", 12000);

    auto runWithFault = [&](bool degraded) {
        sim::RunSpec spec;
        spec.hssConfig = "H&M";
        if (degraded) {
            spec.specTweak = [](std::vector<device::DeviceSpec> &specs) {
                specs[0].faults.windows.push_back({0.0, 1e15, 50.0});
            };
        }
        core::SibylConfig scfg;
        core::SibylPolicy sibyl(scfg, 2);
        return sim::runPolicyExperiment(
            spec, t, sibyl, sim::computeFastOnlyBaseline(spec, t, 42), 42);
    };

    const auto healthy = runWithFault(false);
    const auto degraded = runWithFault(true);
    EXPECT_LT(degraded.metrics.fastPlacementPreference,
              healthy.metrics.fastPlacementPreference * 0.5);
}

TEST(BlockDeviceFaults, ErrorRetriesFlowIntoServedLatencyStats)
{
    // Transient read errors on the slow device must surface in the
    // simulator's latency metrics (the reward channel): the degraded
    // run is measurably slower end to end.
    trace::Trace t = trace::makeWorkload("hm_1", 3000); // read-heavy
    auto run = [&](double errProb) {
        auto specs = hss::makeHssConfig("H&M", t.uniquePages());
        specs[1].faults.readErrorProb = errProb;
        specs[1].faults.maxRetries = 3;
        specs[1].faults.retryMultiplier = 4.0;
        hss::HybridSystem sys(std::move(specs), 7);
        auto slow = sim::makePolicy("Slow-Only", sys.numDevices());
        return sim::runSimulation(t, sys, *slow);
    };
    const auto clean = run(0.0);
    const auto noisy = run(0.5);
    EXPECT_GT(noisy.avgLatencyUs, clean.avgLatencyUs * 1.5);
    EXPECT_GT(noisy.p99LatencyUs, clean.p99LatencyUs);
}

/** Property: mean service time is monotonically non-decreasing in the
 *  error probability (statistically, over many ops). */
class FaultMonotonicityTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FaultMonotonicityTest, MeanLatencyGrowsWithErrorRate)
{
    const std::uint64_t seed = GetParam();
    double prevMean = 0.0;
    for (double prob : {0.0, 0.2, 0.6, 1.0}) {
        FaultConfig cfg;
        cfg.readErrorProb = prob;
        cfg.maxRetries = 3;
        cfg.retryMultiplier = 2.0;
        FaultModel model(cfg);
        Pcg32 rng(seed);
        double total = 0.0;
        const int n = 5000;
        for (int i = 0; i < n; i++)
            total += model.errorLatencyUs(OpType::Read, 10.0, rng);
        const double mean = total / n;
        EXPECT_GE(mean, prevMean) << "prob " << prob;
        prevMean = mean;
    }
    EXPECT_GT(prevMean, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultMonotonicityTest,
                         ::testing::Values(3, 17, 2025));

} // namespace
} // namespace sibyl::device
