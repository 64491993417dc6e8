/**
 * @file
 * Golden-run regression suite: fixed-seed end-to-end runs for each HSS
 * shorthand — dual performance-oriented ("H&M"), dual cost-oriented
 * ("H&L"), tri-hybrid ("H&M&L"), and the quad-hybrid extensibility
 * configuration ("H&M&L_SSD&L") — with key metrics snapshotted to
 * tolerance. A future perf PR that changes any simulation result
 * (device timing, eviction order, RNG derivation, run-key format)
 * fails here instead of silently shifting every figure.
 *
 * The snapshots were generated by the parallel runner (run-key ->
 * stream derivation as documented in sim/parallel_runner.hh), workload
 * prxy_1, traceLen 4000, seed 42. Regenerate by printing the listed metrics at %.17g
 * and updating kGolden — deliberately a manual step: a golden change
 * must be a conscious, reviewed decision.
 *
 * Tolerances: deterministic heuristic policies get 0.1% (their
 * decisions are integer-threshold based; only device-jitter libm ULP
 * drift across platforms can move them). The RL policy gets 5%: a
 * one-ULP platform difference anywhere in its reward stream can flip
 * an exploration or argmax decision and perturb the trajectory, so
 * only material regressions should trip it. Native (-march=native) and
 * portable builds of this repository produce bit-identical metrics,
 * so in CI the observed slack is zero.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::sim
{
namespace
{

struct GoldenRun
{
    const char *hssConfig;
    const char *policy;
    double normalizedLatency;
    double avgLatencyUs;
    double iops;
    double evictionFraction;
    double fastPlacementPreference;
};

// clang-format off
const GoldenRun kGolden[] = {
    {"H&M", "CDE",
     2.2461954718943664, 36.957594506260278, 3382.6549907585895, 0.088499999999999995, 0.8135},
    {"H&M", "Sibyl",
     2.3878608366378797, 39.288474062952055, 3382.6549907585895, 0.23050000000000001, 0.96299999999999997},
    {"H&L", "CDE",
     51.271110843921214, 843.58505222036854, 1185.1477424022869, 0.088499999999999995, 0.8135},
    {"H&L", "Sibyl",
     58.215539624031891, 957.84464634041387, 1038.1738083401767, 0.19, 0.44374999999999998},
    {"H&M&L", "Heuristic-Tri-Hybrid",
     37.490686261095448, 616.84995715464106, 1621.13977378344, 0.22525000000000001, 0.94474999999999998},
    {"H&M&L", "Sibyl",
     60.622356963399398, 997.44501967923236, 996.75687443793606, 0.21199999999999999, 0.83850000000000002},
    {"H&M&L_SSD&L", "Heuristic-Multi-Tier",
     29.479730225885838, 485.04234358703678, 2061.6756726942563, 0.21249999999999999, 0.88475000000000004},
    {"H&M&L_SSD&L", "Sibyl",
     97.25067131309379, 1600.1060107292139, 623.98333264157031, 0.14624999999999999, 0.69899999999999995},
};
// clang-format on

constexpr std::size_t kNumGolden =
    sizeof(kGolden) / sizeof(kGolden[0]);
constexpr std::size_t kTraceLen = 4000;

bool
isRlPolicy(const std::string &policy)
{
    return policy.rfind("Sibyl", 0) == 0;
}

/** Relative tolerance per policy family (see file header). */
double
relTol(const std::string &policy)
{
    return isRlPolicy(policy) ? 0.05 : 1e-3;
}

std::vector<RunRecord>
runGoldenMatrix()
{
    std::vector<RunSpec> specs;
    for (const auto &g : kGolden) {
        RunSpec s;
        s.policy = g.policy;
        s.workload = "prxy_1";
        s.hssConfig = g.hssConfig;
        s.traceLen = kTraceLen;
        specs.push_back(std::move(s));
    }
    ParallelRunner runner;
    return runner.runAll(specs);
}

TEST(GoldenRuns, AllConfigsMatchSnapshots)
{
    const auto records = runGoldenMatrix();
    ASSERT_EQ(records.size(), kNumGolden);

    for (std::size_t i = 0; i < kNumGolden; i++) {
        const GoldenRun &g = kGolden[i];
        const RunRecord &r = records[i];
        SCOPED_TRACE(std::string(g.hssConfig) + " / " + g.policy);
        const double tol = relTol(g.policy);

        // Structural invariants are exact regardless of platform.
        EXPECT_EQ(r.result.metrics.requests, kTraceLen);
        std::uint64_t placed = 0;
        for (auto p : r.result.metrics.placements)
            placed += p;
        EXPECT_EQ(placed, kTraceLen);

        EXPECT_NEAR(r.result.normalizedLatency, g.normalizedLatency,
                    g.normalizedLatency * tol);
        EXPECT_NEAR(r.result.metrics.avgLatencyUs, g.avgLatencyUs,
                    g.avgLatencyUs * tol);
        EXPECT_NEAR(r.result.metrics.iops, g.iops, g.iops * tol);
        // Fractions snapshot to an absolute band scaled like the
        // relative one (they live in [0, 1]).
        EXPECT_NEAR(r.result.metrics.evictionFraction,
                    g.evictionFraction, 0.01 + g.evictionFraction * tol);
        EXPECT_NEAR(r.result.metrics.fastPlacementPreference,
                    g.fastPlacementPreference,
                    0.01 + g.fastPlacementPreference * tol);

        // Print the regeneration line on failure so updating the
        // snapshot (when intentional) is copy-paste.
        if (::testing::Test::HasNonfatalFailure()) {
            std::printf("actual: {\"%s\", \"%s\",\n %.17g, %.17g, %.17g, "
                        "%.17g, %.17g},\n",
                        g.hssConfig, g.policy,
                        r.result.normalizedLatency,
                        r.result.metrics.avgLatencyUs,
                        r.result.metrics.iops,
                        r.result.metrics.evictionFraction,
                        r.result.metrics.fastPlacementPreference);
        }
    }
}

TEST(GoldenRuns, SnapshotsAreThreadCountInvariant)
{
    // The golden values are defined by the run keys alone: a serial
    // re-run of the same matrix must match the (parallel) golden runs
    // bit for bit, so the two suites can never drift apart.
    ParallelConfig serialCfg;
    serialCfg.numThreads = 1;
    ParallelRunner serialRunner(serialCfg);

    std::vector<RunSpec> specs;
    for (const auto &g : kGolden) {
        RunSpec s;
        s.policy = g.policy;
        s.workload = "prxy_1";
        s.hssConfig = g.hssConfig;
        s.traceLen = kTraceLen;
        specs.push_back(std::move(s));
    }
    const auto serial = serialRunner.runAll(specs);
    const auto parallel = runGoldenMatrix();
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].result.metrics.avgLatencyUs,
                  parallel[i].result.metrics.avgLatencyUs);
        EXPECT_EQ(serial[i].result.normalizedLatency,
                  parallel[i].result.normalizedLatency);
        EXPECT_EQ(serial[i].result.metrics.placements,
                  parallel[i].result.metrics.placements);
    }
}

// ---------------------------------------------------------------------
// Second workload family (ROADMAP open item): mds_0, the write-heavy
// MSRC family, in both dual configurations. This suite is generated
// THROUGH the scenario layer — the matrix is a JSON ScenarioSpec —
// and first proves that the declarative path reproduces hand-built
// RunSpec construction bit-for-bit, so the snapshots below pin the
// same simulation the legacy code path would have produced.
// ---------------------------------------------------------------------

const char *const kMdsScenarioJson = R"({
  "name": "golden-mds_0",
  "policies": ["CDE", "Sibyl"],
  "workloads": ["mds_0"],
  "hssConfigs": ["H&M", "H&L"],
  "traceLen": 4000
})";

// clang-format off
const GoldenRun kGoldenMds[] = {
    {"H&M", "CDE",
     1.9031640186359788, 30.93897272503888, 3363.3867713610985, 0.60499999999999998, 0.89149999999999996},
    {"H&M", "Sibyl",
     1.8592762589250784, 30.225507050319056, 3363.3867713610985, 0.69925000000000004, 0.96525000000000005},
    {"H&L", "CDE",
     47.169086109761643, 766.8088794894669, 1301.4685666646003, 0.60499999999999998, 0.89149999999999996},
    {"H&L", "Sibyl",
     43.657846344750482, 709.72806550969665, 1362.8963590733467, 0.68125000000000002, 0.94499999999999995},
};
// clang-format on

TEST(GoldenRuns, ScenarioLayerReproducesHandBuiltSpecsBitForBit)
{
    const scenario::ScenarioSpec spec =
        scenario::parseScenarioJson(kMdsScenarioJson);
    ParallelRunner runner;
    const auto viaScenario = runner.runAll(spec.expand());

    // The legacy construction: RunSpecs assembled by hand, exactly as
    // the pre-scenario benches did.
    std::vector<RunSpec> hand;
    for (const char *cfg : {"H&M", "H&L"}) {
        for (const char *policy : {"CDE", "Sibyl"}) {
            RunSpec s;
            s.policy = policy;
            s.workload = "mds_0";
            s.hssConfig = cfg;
            s.traceLen = kTraceLen;
            hand.push_back(std::move(s));
        }
    }
    const auto viaHand = runner.runAll(hand);

    ASSERT_EQ(viaScenario.size(), viaHand.size());
    for (std::size_t i = 0; i < viaHand.size(); i++) {
        SCOPED_TRACE(viaHand[i].spec.hssConfig + " / " +
                     viaHand[i].spec.policy);
        EXPECT_EQ(viaScenario[i].runKey, viaHand[i].runKey);
        EXPECT_EQ(viaScenario[i].result.metrics.avgLatencyUs,
                  viaHand[i].result.metrics.avgLatencyUs);
        EXPECT_EQ(viaScenario[i].result.normalizedLatency,
                  viaHand[i].result.normalizedLatency);
        EXPECT_EQ(viaScenario[i].result.metrics.placements,
                  viaHand[i].result.metrics.placements);
    }
}

TEST(GoldenRuns, SecondWorkloadFamilyMatchesSnapshots)
{
    const scenario::ScenarioSpec spec =
        scenario::parseScenarioJson(kMdsScenarioJson);
    ParallelRunner runner;
    const auto records = runner.runAll(spec.expand());
    ASSERT_EQ(records.size(),
              sizeof(kGoldenMds) / sizeof(kGoldenMds[0]));

    for (std::size_t i = 0; i < records.size(); i++) {
        const GoldenRun &g = kGoldenMds[i];
        const RunRecord &r = records[i];
        SCOPED_TRACE(std::string(g.hssConfig) + " / " + g.policy);
        const double tol = relTol(g.policy);

        EXPECT_EQ(r.result.metrics.requests, kTraceLen);

        EXPECT_NEAR(r.result.normalizedLatency, g.normalizedLatency,
                    g.normalizedLatency * tol);
        EXPECT_NEAR(r.result.metrics.avgLatencyUs, g.avgLatencyUs,
                    g.avgLatencyUs * tol);
        EXPECT_NEAR(r.result.metrics.iops, g.iops, g.iops * tol);
        EXPECT_NEAR(r.result.metrics.evictionFraction,
                    g.evictionFraction, 0.01 + g.evictionFraction * tol);
        EXPECT_NEAR(r.result.metrics.fastPlacementPreference,
                    g.fastPlacementPreference,
                    0.01 + g.fastPlacementPreference * tol);

        if (::testing::Test::HasNonfatalFailure()) {
            std::printf("actual: {\"%s\", \"%s\",\n %.17g, %.17g, %.17g, "
                        "%.17g, %.17g},\n",
                        g.hssConfig, g.policy,
                        r.result.normalizedLatency,
                        r.result.metrics.avgLatencyUs,
                        r.result.metrics.iops,
                        r.result.metrics.evictionFraction,
                        r.result.metrics.fastPlacementPreference);
        }
    }
}

// ---------------------------------------------------------------------
// Third family (ROADMAP open item): the mixed workload prxy_1+mds_0 —
// an ad-hoc two-component mix (read-skewed proxy + write-heavy
// metadata server) at 4000 total requests (2000 per component),
// generated THROUGH a ScenarioSpec with mixedWorkloads=true. This pins
// the campaign/scenario lowering of mixed traces against real
// snapshots: the mix composition, the randomized start offsets, and
// the disjoint address-space slicing all feed the run key, so any
// change to mixed-trace synthesis or its RNG derivation fails here.
// ---------------------------------------------------------------------

const char *const kMixedScenarioJson = R"({
  "name": "golden-mixed",
  "policies": ["CDE", "Sibyl"],
  "workloads": ["prxy_1+mds_0"],
  "hssConfigs": ["H&M", "H&L"],
  "mixedWorkloads": true,
  "traceLen": 2000
})";

// clang-format off
const GoldenRun kGoldenMixed[] = {
    {"H&M", "CDE",
     1.926200154663213, 31.301227876125072, 6113.5933916027589, 0.36449999999999999, 0.88800000000000001},
    {"H&M", "Sibyl",
     2.0724493748002044, 33.677813795885811, 6113.5933916027589, 0.34849999999999998, 0.60024999999999995},
    {"H&L", "CDE",
     43.971069717760045, 714.54073444056894, 1399.3690187556058, 0.36449999999999999, 0.88800000000000001},
    {"H&L", "Sibyl",
     39.24575820713541, 637.75325624332027, 1567.8396934212005, 0.41749999999999998, 0.82174999999999998},
};
// clang-format on

TEST(GoldenRuns, MixedWorkloadFamilyMatchesSnapshots)
{
    const scenario::ScenarioSpec spec =
        scenario::parseScenarioJson(kMixedScenarioJson);
    ParallelRunner runner;
    const auto records = runner.runAll(spec.expand());
    ASSERT_EQ(records.size(),
              sizeof(kGoldenMixed) / sizeof(kGoldenMixed[0]));

    for (std::size_t i = 0; i < records.size(); i++) {
        const GoldenRun &g = kGoldenMixed[i];
        const RunRecord &r = records[i];
        SCOPED_TRACE(std::string(g.hssConfig) + " / " + g.policy);
        const double tol = relTol(g.policy);

        // 2000 requests per component, two components.
        EXPECT_EQ(r.result.metrics.requests, std::uint64_t{4000});
        std::uint64_t placed = 0;
        for (auto p : r.result.metrics.placements)
            placed += p;
        EXPECT_EQ(placed, std::uint64_t{4000});

        EXPECT_NEAR(r.result.normalizedLatency, g.normalizedLatency,
                    g.normalizedLatency * tol);
        EXPECT_NEAR(r.result.metrics.avgLatencyUs, g.avgLatencyUs,
                    g.avgLatencyUs * tol);
        EXPECT_NEAR(r.result.metrics.iops, g.iops, g.iops * tol);
        EXPECT_NEAR(r.result.metrics.evictionFraction,
                    g.evictionFraction, 0.01 + g.evictionFraction * tol);
        EXPECT_NEAR(r.result.metrics.fastPlacementPreference,
                    g.fastPlacementPreference,
                    0.01 + g.fastPlacementPreference * tol);

        if (::testing::Test::HasNonfatalFailure()) {
            std::printf("actual: {\"%s\", \"%s\",\n %.17g, %.17g, %.17g, "
                        "%.17g, %.17g},\n",
                        g.hssConfig, g.policy,
                        r.result.normalizedLatency,
                        r.result.metrics.avgLatencyUs,
                        r.result.metrics.iops,
                        r.result.metrics.evictionFraction,
                        r.result.metrics.fastPlacementPreference);
        }
    }
}

TEST(GoldenRuns, AdHocMixComposesKnownProfilesOnly)
{
    // The "a+b" grammar behind the mixed family: components must be
    // known profiles, and the merged trace really holds both slices.
    const auto t = trace::makeMixedWorkload("prxy_1+mds_0", 100);
    EXPECT_EQ(t.size(), 200u);
    EXPECT_THROW(trace::makeMixedWorkload("prxy_1+no_such", 100),
                 std::invalid_argument);
    EXPECT_THROW(trace::makeMixedWorkload("prxy_1+", 100),
                 std::invalid_argument);
}

TEST(GoldenRuns, QuadHybridUsesAllFourTiers)
{
    // Sanity floor under the quad-hybrid snapshot: the banding
    // heuristic actually spreads placements over all four devices.
    RunSpec s;
    s.policy = "Heuristic-Multi-Tier";
    s.workload = "prxy_1";
    s.hssConfig = "H&M&L_SSD&L";
    s.traceLen = kTraceLen;
    ParallelRunner runner;
    const auto rec = runner.runAll({s});
    ASSERT_EQ(rec.size(), 1u);
    const auto &placements = rec[0].result.metrics.placements;
    ASSERT_EQ(placements.size(), 4u);
    std::uint64_t nonzero = 0;
    for (auto p : placements)
        nonzero += p > 0 ? 1 : 0;
    EXPECT_GE(nonzero, 3u);
}

} // namespace
} // namespace sibyl::sim
