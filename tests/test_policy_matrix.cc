/**
 * @file
 * Cross-policy relational properties over the configuration matrix —
 * orderings that held on the paper's testbed and must hold in the
 * simulator for the reproduction to be meaningful (robust relations
 * only: each is far from the noise floor in the Fig. 9/18 data).
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

/** One spec per policy on (@p config, @p workload, @p requests). */
std::vector<sim::RunSpec>
lineup(const std::vector<std::string> &policies, const std::string &config,
       const std::string &workload, std::size_t requests)
{
    std::vector<sim::RunSpec> specs;
    for (const auto &policy : policies) {
        sim::RunSpec s;
        s.policy = policy;
        s.workload = workload;
        s.hssConfig = config;
        s.traceLen = requests;
        specs.push_back(s);
    }
    return specs;
}

/** Run @p specs on one runner (run-key-derived seeds); every run must
 *  succeed. Results are in spec order. */
std::vector<sim::PolicyResult>
runAll(const std::vector<sim::RunSpec> &specs)
{
    std::vector<sim::PolicyResult> results;
    for (const auto &rec : sim::ParallelRunner().runAll(specs)) {
        EXPECT_FALSE(rec.failed()) << rec.spec.policy << ": " << rec.error;
        results.push_back(rec.result);
    }
    return results;
}

// ---------------------------------------------------------------------
// Slow-Only is the ceiling on hot workloads: any caching policy that
// uses the fast device at all must beat it where reuse is plentiful.
// ---------------------------------------------------------------------

class HotWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(HotWorkloadTest, EveryCachingPolicyBeatsSlowOnlyInHL)
{
    const std::string wl = GetParam();
    const auto specs =
        lineup({"Slow-Only", "CDE", "Sibyl", "Oracle"}, "H&L", wl, 8000);
    const auto r = runAll(specs);
    for (std::size_t i = 1; i < r.size(); i++) {
        EXPECT_LT(r[i].normalizedLatency, r[0].normalizedLatency)
            << specs[i].policy << " on " << wl;
    }
}

INSTANTIATE_TEST_SUITE_P(HotWorkloads, HotWorkloadTest,
                         ::testing::Values("prxy_0", "rsrch_0",
                                           "wdev_2", "mds_0"));

// ---------------------------------------------------------------------
// The device gap governs the stakes: for every policy, normalized
// latency in H&L exceeds H&M on hot workloads (the HDD magnifies every
// slow-device service).
// ---------------------------------------------------------------------

TEST(ConfigGap, HlMagnifiesNormalizedLatency)
{
    const std::vector<std::string> policies = {"Slow-Only", "CDE", "Sibyl"};
    const auto hm = runAll(lineup(policies, "H&M", "rsrch_0", 8000));
    const auto hl = runAll(lineup(policies, "H&L", "rsrch_0", 8000));
    for (std::size_t i = 0; i < policies.size(); i++)
        EXPECT_GT(hl[i].normalizedLatency, hm[i].normalizedLatency)
            << policies[i];
}

// ---------------------------------------------------------------------
// Oracle sanity: future knowledge must not lose badly to any online
// policy on workloads with strong reuse (it may tie within noise).
// ---------------------------------------------------------------------

TEST(OracleSanity, NotWorseThanHeuristicsOnHotHL)
{
    for (const char *wl : {"prxy_0", "wdev_2"}) {
        const auto specs = lineup({"Oracle", "HPS", "Archivist", "RNN-HSS"},
                                  "H&L", wl, 8000);
        const auto r = runAll(specs);
        for (std::size_t i = 1; i < r.size(); i++)
            EXPECT_LT(r[0].normalizedLatency, r[i].normalizedLatency)
                << specs[i].policy << " on " << wl;
    }
}

// ---------------------------------------------------------------------
// Fast-capacity monotonicity: for the admission-based Oracle, more
// fast capacity can only help (Belady eviction + future-aware
// admission is monotone in cache size).
// ---------------------------------------------------------------------

TEST(CapacityMonotonicity, OracleImprovesWithCapacity)
{
    const double fracs[] = {0.02, 0.10, 0.40};
    auto specs = lineup({"Oracle", "Oracle", "Oracle"}, "H&L", "rsrch_0",
                        8000);
    for (std::size_t i = 0; i < specs.size(); i++)
        specs[i].fastCapacityFrac = fracs[i];
    const auto r = runAll(specs);
    for (std::size_t i = 1; i < r.size(); i++)
        EXPECT_LT(r[i].normalizedLatency, r[i - 1].normalizedLatency * 1.02)
            << "capacity " << fracs[i];
}

// ---------------------------------------------------------------------
// Tri-hybrid: Sibyl's 3-device extension must beat parking everything
// on the slowest device, and the heuristic must run on both tri
// configurations.
// ---------------------------------------------------------------------

class TriConfigTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TriConfigTest, SibylAndHeuristicFunctional)
{
    // Policy objects on the single-run core at pinned seeds: devices
    // jitter from 42, the agent from SibylConfig::seed. Sibyl's margin
    // over Slow-Only in H&M&L_SSD is thin at these seeds (ROADMAP
    // item 4).
    sim::RunSpec spec;
    spec.hssConfig = GetParam();
    spec.fastCapacityFrac = 0.05; // §8.7 restricts H to 5%
    const std::uint32_t n =
        sim::numHssDevices(spec.hssConfig, spec.fastCapacityFrac);
    ASSERT_EQ(n, 3u);
    trace::Trace t = trace::makeWorkload("rsrch_0", 6000);
    const auto baseline = sim::computeFastOnlyBaseline(spec, t, 42);
    auto run = [&](policies::PlacementPolicy &p) {
        return sim::runPolicyExperiment(spec, t, p, baseline, 42);
    };

    auto heuristic = sim::makePolicy("Heuristic-Tri-Hybrid", n);
    const auto hr = run(*heuristic);
    EXPECT_EQ(hr.metrics.placements.size(), 3u);

    core::SibylPolicy sibyl(core::SibylConfig(), n);
    const auto sr = run(sibyl);
    auto slowOnly = sim::makePolicy("Slow-Only", n);
    const auto so = run(*slowOnly);
    EXPECT_LT(sr.normalizedLatency, so.normalizedLatency);
}

INSTANTIATE_TEST_SUITE_P(TriConfigs, TriConfigTest,
                         ::testing::Values("H&M&L", "H&M&L_SSD"));

// ---------------------------------------------------------------------
// Eviction-volume structure (Fig. 18): HPS and RNN-HSS are the
// conservative baselines; CDE is aggressive.
// ---------------------------------------------------------------------

TEST(EvictionStructure, CdeEvictsMoreThanConservativeBaselines)
{
    const auto r =
        runAll(lineup({"CDE", "HPS", "RNN-HSS"}, "H&M", "rsrch_0", 8000));
    EXPECT_GT(r[0].metrics.evictionFraction, r[1].metrics.evictionFraction);
    EXPECT_GT(r[0].metrics.evictionFraction, r[2].metrics.evictionFraction);
}

} // namespace
} // namespace sibyl
