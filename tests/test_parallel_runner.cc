/**
 * @file
 * Bit-exact determinism tests for the parallel experiment runner.
 *
 * The contract under test: a (policy x workload x HSS config x seed)
 * grid produces *identical* results — every RunMetrics field, every
 * per-policy table, every derived normalization — whether it runs on
 * the serial oracle path (numThreads = 1), on 8 worker threads, or on
 * 8 worker threads twice in a row. Identical means bit-exact, not
 * within tolerance: per-run RNG streams are derived from stable run
 * keys, so scheduling must never influence results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "scenario/scenario_spec.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::sim
{
namespace
{

/** The >= 24-run grid shared by the determinism tests:
 *  4 policies x 3 workloads x 2 HSS configs = 24 runs, including the
 *  RL policy so agent training and exploration are exercised. */
std::vector<RunSpec>
gridSpecs()
{
    scenario::ScenarioSpec s;
    s.policies = {"CDE", "HPS", "Archivist", "Sibyl"};
    s.workloads = {"hm_1", "usr_0", "stg_1"};
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = 2000;
    return s.expand();
}

std::vector<RunRecord>
runGridAt(unsigned numThreads)
{
    ParallelConfig cfg;
    cfg.numThreads = numThreads;
    ParallelRunner runner(cfg);
    return runner.runAll(gridSpecs());
}

/** One RunSpec per policy on usr_0 (H&M, 500 requests). Unlike
 *  ScenarioSpec::expand(), which rejects an unknown policy up front,
 *  this lets a failure test list a policy that cannot be built. */
std::vector<RunSpec>
rawSpecs(const std::vector<std::string> &policies)
{
    std::vector<RunSpec> specs;
    for (const auto &p : policies) {
        RunSpec s;
        s.policy = p;
        s.workload = "usr_0";
        s.traceLen = 500;
        specs.push_back(s);
    }
    return specs;
}

/** Bit-exact comparison of two result sets (EXPECT_EQ on doubles is
 *  deliberate: equal bits, not tolerance). */
void
expectIdentical(const std::vector<RunRecord> &a,
                const std::vector<RunRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        SCOPED_TRACE("run " + std::to_string(i) + ": " +
                     a[i].spec.policy + "/" + a[i].spec.workload + "/" +
                     a[i].spec.hssConfig);
        EXPECT_EQ(a[i].runKey, b[i].runKey);
        EXPECT_EQ(a[i].result.policy, b[i].result.policy);
        EXPECT_EQ(a[i].result.workload, b[i].result.workload);

        const RunMetrics &ma = a[i].result.metrics;
        const RunMetrics &mb = b[i].result.metrics;
        EXPECT_EQ(ma.requests, mb.requests);
        EXPECT_EQ(ma.avgLatencyUs, mb.avgLatencyUs);
        EXPECT_EQ(ma.steadyAvgLatencyUs, mb.steadyAvgLatencyUs);
        EXPECT_EQ(ma.p50LatencyUs, mb.p50LatencyUs);
        EXPECT_EQ(ma.p99LatencyUs, mb.p99LatencyUs);
        EXPECT_EQ(ma.maxLatencyUs, mb.maxLatencyUs);
        EXPECT_EQ(ma.iops, mb.iops);
        EXPECT_EQ(ma.makespanUs, mb.makespanUs);
        EXPECT_EQ(ma.evictionFraction, mb.evictionFraction);
        EXPECT_EQ(ma.evictedPagesPerRequest, mb.evictedPagesPerRequest);
        EXPECT_EQ(ma.fastPlacementPreference,
                  mb.fastPlacementPreference);
        EXPECT_EQ(ma.placements, mb.placements);
        EXPECT_EQ(ma.promotions, mb.promotions);
        EXPECT_EQ(ma.demotions, mb.demotions);

        EXPECT_EQ(a[i].result.normalizedLatency,
                  b[i].result.normalizedLatency);
        EXPECT_EQ(a[i].result.normalizedIops,
                  b[i].result.normalizedIops);
        EXPECT_EQ(a[i].result.devicePagesWritten,
                  b[i].result.devicePagesWritten);
        EXPECT_EQ(a[i].result.totalEnergyMj, b[i].result.totalEnergyMj);
    }
}

TEST(ParallelRunner, SerialVsEightThreadsBitExact)
{
    const auto serial = runGridAt(1);
    const auto parallel = runGridAt(8);
    ASSERT_EQ(serial.size(), 24u);
    expectIdentical(serial, parallel);

    // The fields above are a sample; the serialized records cover
    // every field the JSON sink writes, so compare those bytes too.
    std::ostringstream a, b;
    writeResultsJson(a, serial);
    writeResultsJson(b, parallel);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ParallelRunner, RepeatedEightThreadRunsBitExact)
{
    const auto first = runGridAt(8);
    const auto second = runGridAt(8);
    expectIdentical(first, second);

    // The structured JSON sink serializes doubles at full precision,
    // so bit-identical results must serialize byte-identically.
    std::ostringstream a, b;
    writeResultsJson(a, first);
    writeResultsJson(b, second);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ParallelRunner, ResultsIndexedBySpecOrderNotSchedule)
{
    const auto records = runGridAt(8);
    const auto specs = gridSpecs();
    ASSERT_EQ(records.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); i++) {
        EXPECT_EQ(records[i].spec.policy, specs[i].policy);
        EXPECT_EQ(records[i].spec.workload, specs[i].workload);
        EXPECT_EQ(records[i].spec.hssConfig, specs[i].hssConfig);
        EXPECT_EQ(records[i].result.policy, specs[i].policy);
        EXPECT_EQ(records[i].result.workload, specs[i].workload);
    }
}

TEST(ParallelRunner, TraceCacheGeneratesEachTraceOnce)
{
    ParallelConfig cfg;
    cfg.numThreads = 8;
    ParallelRunner runner(cfg);
    const auto records = runner.runAll(gridSpecs());
    ASSERT_EQ(records.size(), 24u);
    // 3 distinct workloads at one (len, seed) each -> 3 generations,
    // no matter how many of the 24 runs raced for them.
    EXPECT_EQ(runner.traceCache().generatedCount(), 3u);
    EXPECT_GE(runner.traceCache().requestCount(), 24u);
    // One Fast-Only baseline per (config, trace): 2 x 3.
    EXPECT_EQ(runner.baselineCount(), 6u);
}

TEST(ParallelRunner, RunKeyStableAndSaltsIndependent)
{
    RunSpec a;
    a.policy = "CDE";
    a.workload = "hm_1";
    a.hssConfig = "H&M";
    a.traceLen = 2000;

    RunSpec same = a;
    EXPECT_EQ(ParallelRunner::runKey(a), ParallelRunner::runKey(same));

    RunSpec otherPolicy = a;
    otherPolicy.policy = "HPS";
    RunSpec otherSeed = a;
    otherSeed.seed = 43;
    RunSpec otherConfig = a;
    otherConfig.hssConfig = "H&L";
    RunSpec otherQd = a;
    otherQd.sim.queueDepth = 8;
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherPolicy));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherSeed));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherConfig));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherQd));

    const std::uint64_t key = ParallelRunner::runKey(a);
    EXPECT_NE(ParallelRunner::deriveStream(key, kDeviceJitterSalt),
              ParallelRunner::deriveStream(key, kAgentSalt));
    EXPECT_EQ(ParallelRunner::deriveStream(key, kAgentSalt),
              ParallelRunner::deriveStream(key, kAgentSalt));
}

TEST(ParallelRunner, MatchesHandBuiltSerialRunBitForBit)
{
    // The cross-engine check: a runner run is exactly the serial
    // harness fed the run-key-derived seeds and the derived baseline.
    RunSpec s;
    s.policy = "Sibyl";
    s.workload = "usr_0";
    s.hssConfig = "H&M";
    s.traceLen = 2000;

    ParallelConfig pcfg;
    pcfg.numThreads = 4;
    ParallelRunner runner(pcfg);
    const auto records = runner.runAll({s, s, s});

    const std::uint64_t key = ParallelRunner::runKey(s);
    const trace::Trace t = trace::makeWorkload(s.workload, s.traceLen);

    // The Fast-Only baseline's device seed derives from the key of a
    // pseudo-run whose capacity is pinned to 1.6.
    RunSpec baseSpec = s;
    baseSpec.policy = "Fast-Only-baseline";
    baseSpec.fastCapacityFrac = 1.6;
    const RunMetrics baseline = computeFastOnlyBaseline(
        s, t,
        ParallelRunner::deriveStream(ParallelRunner::runKey(baseSpec),
                                     kDeviceJitterSalt));

    core::SibylConfig sibylCfg;
    sibylCfg.seed = ParallelRunner::deriveStream(key, kAgentSalt);
    auto policy = makePolicy(
        s.policy, numHssDevices(s.hssConfig, s.fastCapacityFrac),
        sibylCfg);
    RunRecord expected;
    expected.spec = s;
    expected.runKey = key;
    expected.result = runPolicyExperiment(
        s, t, *policy, baseline,
        ParallelRunner::deriveStream(key, kDeviceJitterSalt));

    ASSERT_EQ(records.size(), 3u);
    std::ostringstream want;
    writeResultsJson(want, {expected, expected, expected});
    std::ostringstream got;
    writeResultsJson(got, records);
    EXPECT_EQ(got.str(), want.str());
    expectIdentical(records, {expected, expected, expected});
}

TEST(ParallelRunner, ExternalTraceRunsDeterministically)
{
    auto t = std::make_shared<trace::Trace>("external");
    Pcg32 rng(7);
    for (int i = 0; i < 1500; i++)
        t->add({i * 50.0, rng.nextBounded(4000),
                1 + rng.nextBounded(4), rng.nextBool(0.4)
                    ? OpType::Write
                    : OpType::Read});
    RunSpec s;
    s.policy = "CDE";
    s.hssConfig = "H&M";
    s.externalTrace = t;

    auto runAt = [&](unsigned threads) {
        ParallelConfig cfg;
        cfg.numThreads = threads;
        ParallelRunner runner(cfg);
        return runner.runAll({s});
    };
    const auto serial = runAt(1);
    const auto parallel = runAt(4);
    expectIdentical(serial, parallel);
    EXPECT_EQ(serial[0].result.metrics.requests, 1500u);
}

TEST(ParallelRunner, UnknownPolicyBecomesStructuredFailureRecord)
{
    // Failure isolation: a run that cannot even build its policy is
    // recorded as a failure, not thrown — the rest of the batch
    // completes.
    ParallelConfig cfg;
    cfg.numThreads = 4;
    ParallelRunner runner(cfg);
    const auto records = runner.runAll(rawSpecs({"CDE", "NoSuchPolicy"}));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].failed());
    EXPECT_GT(records[0].result.metrics.requests, 0u);
    ASSERT_TRUE(records[1].failed());
    EXPECT_EQ(records[1].status, "failed");
    // The diagnostic names the phase and carries the original what().
    EXPECT_EQ(records[1].error.rfind("policy: ", 0), 0u);
    EXPECT_NE(records[1].error.find("NoSuchPolicy"), std::string::npos);
    // A configuration error (std::invalid_argument) would fail the
    // same way again, so it is not retried.
    EXPECT_EQ(records[1].attempts, 1u);
    // Failed records serialize as identity + status/error/attempts.
    std::ostringstream os;
    writeResultsJson(os, records);
    EXPECT_NE(os.str().find("\"status\": \"failed\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"error\": "), std::string::npos);
}

TEST(ParallelRunner, FailedRunLeavesOtherRunsBitExact)
{
    RunSpec proto;
    proto.workload = "usr_0";
    proto.hssConfig = "H&M";
    proto.traceLen = 500;
    RunSpec a = proto;
    a.policy = "CDE";
    RunSpec b = proto;
    b.policy = "HPS";
    RunSpec bad = proto;
    bad.policy = "Archivist";
    bad.policySetup = [](policies::PlacementPolicy &) {
        throw std::runtime_error("injected persistent fault");
    };

    ParallelConfig cfg;
    cfg.numThreads = 4;
    ParallelRunner clean(cfg);
    const auto without = clean.runAll({a, b});
    ParallelRunner mixed(cfg);
    const auto with = mixed.runAll({a, bad, b});

    ASSERT_EQ(with.size(), 3u);
    ASSERT_TRUE(with[1].failed());
    EXPECT_EQ(with[1].error, "policy: injected persistent fault");
    // Any other exception may be transient: it burns the whole retry
    // budget before it is recorded.
    EXPECT_EQ(with[1].attempts, cfg.maxAttempts);
    // The healthy runs are bit-exact to a batch without the failure.
    expectIdentical({with[0], with[2]}, without);
}

TEST(ParallelRunner, NanFaultWindowBecomesFailedRecord)
{
    // A NaN latency multiplier used to end the process from the
    // FaultModel constructor on a worker thread. Now the run that
    // installs it fails in isolation, naming the field.
    const auto healthy = rawSpecs({"CDE", "HPS"});
    RunSpec bad = healthy[0];
    bad.specTweak = [](std::vector<device::DeviceSpec> &devices) {
        devices[0].faults.windows.push_back(
            {0.0, 1e4, std::numeric_limits<double>::quiet_NaN()});
    };
    bad.variantTag = "nan-window";

    ParallelConfig cfg;
    cfg.numThreads = 2;
    ParallelRunner clean(cfg);
    const auto without = clean.runAll(healthy);
    ParallelRunner mixed(cfg);
    const auto with = mixed.runAll({healthy[0], bad, healthy[1]});

    ASSERT_EQ(with.size(), 3u);
    ASSERT_TRUE(with[1].failed());
    EXPECT_NE(with[1].error.find(
                  "FaultModel: windows[0]: latencyMultiplier"),
              std::string::npos)
        << with[1].error;
    EXPECT_EQ(with[1].attempts, 1u);
    expectIdentical({with[0], with[2]}, without);
    std::ostringstream alone, rest;
    writeResultsJson(alone, without);
    writeResultsJson(rest, {with[0], with[2]});
    EXPECT_EQ(alone.str(), rest.str());
}

TEST(ParallelRunner, ZeroCadenceSibylBecomesFailedRecord)
{
    // A zero weight-sync or training cadence used to divide by zero on
    // the first observation, and an out-of-range exploration or power
    // value used to abort; either killed the whole process. Now the
    // agent rejects each at construction and the run fails in
    // isolation, with an error naming the offending field.
    const std::pair<const char *, const char *> bad[] = {
        {"Sibyl{targetSyncEvery=0}", "targetSyncEvery"},
        {"Sibyl{agent=dqn,bufferCapacity=0,trainEvery=0}",
         "bufferCapacity"},
        {"Sibyl{epsilon=1.5}", "epsilon must"},
        {"Sibyl{explore=boltzmann,temperature=0}", "temperature"},
        {"Sibyl{epsilonStart=-1,explore=linear}", "epsilonStart"},
        {"Sibyl{explore=vdbe,vdbeDelta=2}", "vdbeDelta"},
        {"Sibyl{energyWeight=0.5,power=H:X}", "power"},
    };
    std::vector<std::string> policies = {"CDE"};
    for (const auto &[desc, field] : bad)
        policies.push_back(desc);

    ParallelConfig cfg;
    cfg.numThreads = 2;
    ParallelRunner a(cfg);
    const auto without = a.runAll(rawSpecs({"CDE"}));
    ParallelRunner b(cfg);
    const auto with = b.runAll(rawSpecs(policies));

    ASSERT_EQ(with.size(), 1 + std::size(bad));
    for (std::size_t i = 0; i < std::size(bad); i++) {
        SCOPED_TRACE(bad[i].first);
        ASSERT_TRUE(with[1 + i].failed());
        EXPECT_NE(with[1 + i].error.find(bad[i].second),
                  std::string::npos)
            << with[1 + i].error;
        EXPECT_EQ(with[1 + i].attempts, 1u);
    }
    expectIdentical({with[0]}, without);

    // The CDE record serializes exactly as in a CDE-only batch.
    std::ostringstream alone, first;
    writeResultsJson(alone, without);
    writeResultsJson(first, {with[0]});
    EXPECT_EQ(alone.str(), first.str());
}

TEST(ParallelRunner, OutOfRangeFastFracBecomesFailedRecord)
{
    // A negative, non-finite or oversized fast-device fraction cannot
    // size the fast device: the run fails on its first attempt, naming
    // the field, and leaves the rest of the batch bit-exact.
    const auto healthy = rawSpecs({"CDE"});
    std::vector<RunSpec> specs = healthy;
    for (double frac : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), 1e300}) {
        RunSpec bad = healthy[0];
        bad.fastCapacityFrac = frac;
        specs.push_back(bad);
    }

    ParallelConfig cfg;
    cfg.numThreads = 2;
    ParallelRunner a(cfg);
    const auto without = a.runAll(healthy);
    ParallelRunner b(cfg);
    const auto with = b.runAll(specs);

    ASSERT_EQ(with.size(), specs.size());
    for (std::size_t i = 1; i < with.size(); i++) {
        SCOPED_TRACE(specs[i].fastCapacityFrac);
        ASSERT_TRUE(with[i].failed());
        EXPECT_NE(with[i].error.find("fastCapacityFrac"),
                  std::string::npos)
            << with[i].error;
        EXPECT_EQ(with[i].attempts, 1u);
    }
    expectIdentical({with[0]}, without);
}

TEST(ParallelRunner, TransientFailureRetriedBitExact)
{
    RunSpec s;
    s.policy = "Sibyl";
    s.workload = "usr_0";
    s.hssConfig = "H&M";
    s.traceLen = 500;

    RunSpec flaky = s;
    auto calls = std::make_shared<std::atomic<int>>(0);
    flaky.policySetup = [calls](policies::PlacementPolicy &) {
        if (calls->fetch_add(1) == 0)
            throw std::runtime_error("transient glitch");
    };

    ParallelConfig cfg;
    cfg.numThreads = 2;
    ParallelRunner control(cfg);
    const auto expected = control.runAll({s});
    ParallelRunner runner(cfg);
    const auto records = runner.runAll({flaky});

    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].failed());
    // The retry consumed one extra attempt and is recorded as such...
    EXPECT_EQ(records[0].attempts, 2u);
    std::ostringstream os;
    writeResultsJson(os, records);
    EXPECT_NE(os.str().find("\"attempts\": 2"), std::string::npos);
    // ...and the fresh attempt replayed the identical trajectory:
    // run-key-derived streams make attempt 2 bit-exact to attempt 1.
    EXPECT_EQ(records[0].result.metrics.avgLatencyUs,
              expected[0].result.metrics.avgLatencyUs);
    EXPECT_EQ(records[0].result.metrics.placements,
              expected[0].result.metrics.placements);
    EXPECT_EQ(records[0].result.normalizedLatency,
              expected[0].result.normalizedLatency);
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SIBYL_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SIBYL_UNDER_SANITIZER 1
#endif
#endif

TEST(ParallelRunner, ParallelPathIsFasterOnMulticoreHosts)
{
    // Timing assertion: only meaningful with real cores and without
    // sanitizer instrumentation. The speedup itself is measured by the
    // repository benchmark's `grid` workload (sim.parallel_speedup).
#ifdef SIBYL_UNDER_SANITIZER
    GTEST_SKIP() << "timing under sanitizers is not meaningful";
#else
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 cores";

    auto timeAt = [&](unsigned threads) {
        ParallelConfig cfg;
        cfg.numThreads = threads;
        ParallelRunner runner(cfg);
        const auto start = std::chrono::steady_clock::now();
        runner.runAll(gridSpecs());
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const double serial = timeAt(1);
    const double parallel = timeAt(8);
    // Very lenient bound (`grid` measures the real speedup): at 4+
    // cores, 8 workers must beat the serial path by a clear margin.
    EXPECT_LT(parallel, serial * 0.85)
        << "serial " << serial << "s vs parallel " << parallel << "s";
#endif
}

} // namespace
} // namespace sibyl::sim
