/**
 * @file
 * End-to-end tests for the extension features working together:
 * checkpointing through a simulated run, reward variants driving real
 * placement shifts, saliency on trained agents, and steady-state
 * metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/sibyl_policy.hh"
#include "explain/saliency.hh"
#include "rl/checkpoint.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

/** Run @p policy on @p t on the single-run core at the pinned device
 *  seed 42, normalized to the matching Fast-Only baseline. */
sim::PolicyResult
runOnCore(const trace::Trace &t, policies::PlacementPolicy &policy,
          const std::string &hssConfig = "H&M")
{
    sim::RunSpec spec;
    spec.hssConfig = hssConfig;
    return sim::runPolicyExperiment(
        spec, t, policy, sim::computeFastOnlyBaseline(spec, t, 42), 42);
}

// ---------------------------------------------------------------------
// Checkpoint x simulation
// ---------------------------------------------------------------------

TEST(EndToEnd, CheckpointSurvivesSimulatedRun)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 6000);

    core::SibylConfig scfg;
    core::SibylPolicy trained(scfg, 2);
    runOnCore(t, trained);
    // Checkpoints persist the *training* network (the latest learned
    // weights); align the live policy's inference copy before
    // comparing decisions.
    trained.c51().syncWeights();

    std::stringstream buf;
    rl::saveCheckpoint(trained.agent(), buf);

    core::SibylPolicy fresh(scfg, 2);
    ASSERT_EQ(rl::loadCheckpoint(fresh.agent(), buf), "");

    // Greedy decisions of the restored agent match the trained one.
    Pcg32 rng(4);
    for (int i = 0; i < 30; i++) {
        ml::Vector s(6);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble());
        EXPECT_EQ(trained.agent().greedyAction(s),
                  fresh.agent().greedyAction(s));
    }
}

TEST(EndToEnd, CheckpointAcrossAgentFamiliesInPolicies)
{
    for (core::AgentKind kind :
         {core::AgentKind::C51, core::AgentKind::Dqn,
          core::AgentKind::QTable}) {
        trace::Trace t = trace::makeWorkload("prxy_0", 3000);
        core::SibylConfig scfg;
        scfg.agentKind = kind;
        if (kind == core::AgentKind::QTable)
            scfg.learningRate = 0.2;
        core::SibylPolicy trained(scfg, 2);
        runOnCore(t, trained);

        std::stringstream buf;
        rl::saveCheckpoint(trained.agent(), buf);
        core::SibylPolicy fresh(scfg, 2);
        EXPECT_EQ(rl::loadCheckpoint(fresh.agent(), buf), "")
            << core::agentKindName(kind);
    }
}

// ---------------------------------------------------------------------
// Reward variants steer behaviour end to end
// ---------------------------------------------------------------------

TEST(EndToEnd, EvictionOnlyRewardParksDataSlow)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 8000);

    core::SibylConfig latencyCfg;
    core::SibylPolicy latencySibyl(latencyCfg, 2);
    const auto latencyRun = runOnCore(t, latencySibyl);

    core::SibylConfig evictCfg;
    evictCfg.reward.kind = core::RewardKind::EvictionOnly;
    evictCfg.vmin = -2.0;
    evictCfg.vmax = 2.0;
    core::SibylPolicy evictSibyl(evictCfg, 2);
    const auto evictRun = runOnCore(t, evictSibyl);

    // The §11 failure mode: far lower fast preference and evictions.
    EXPECT_LT(evictRun.metrics.fastPlacementPreference,
              latencyRun.metrics.fastPlacementPreference);
    EXPECT_LT(evictRun.metrics.evictionFraction,
              latencyRun.metrics.evictionFraction);
}

TEST(EndToEnd, EnduranceRewardReducesFastWrites)
{
    trace::Trace t = trace::makeWorkload("wdev_2", 8000); // write-heavy

    core::SibylConfig base;
    core::SibylPolicy baseSibyl(base, 2);
    const auto baseRun = runOnCore(t, baseSibyl);

    core::SibylConfig endu = base;
    endu.reward.kind = core::RewardKind::EnduranceAware;
    endu.reward.enduranceWeight = 1.0; // aggressive
    core::SibylPolicy enduSibyl(endu, 2);
    const auto enduRun = runOnCore(t, enduSibyl);

    EXPECT_LT(enduRun.devicePagesWritten.at(0),
              baseRun.devicePagesWritten.at(0));
}

// ---------------------------------------------------------------------
// Saliency on agents trained in-system
// ---------------------------------------------------------------------

TEST(EndToEnd, SaliencyRunsOnEveryAgentFamily)
{
    for (core::AgentKind kind :
         {core::AgentKind::C51, core::AgentKind::Dqn,
          core::AgentKind::QTable}) {
        trace::Trace t = trace::makeWorkload("rsrch_0", 2000);
        core::SibylConfig scfg;
        scfg.agentKind = kind;
        hss::HybridSystem sys(hss::makeHssConfig("H&M", t.uniquePages()),
                              42);
        core::SibylPolicy policy(scfg, 2);
        policy.prepare(t, sys);
        sim::RequestStepper stepper(sys, policy, sim::SimConfig(), t.size());
        std::vector<ml::Vector> states;
        for (std::size_t i = 0; i < t.size(); i++) {
            if (i % 200 == 0)
                states.push_back(policy.encoder().encode(sys, t[i]));
            stepper.step(t[i]);
        }
        const auto report =
            explain::featureSaliency(policy.agent(), states, 3);
        EXPECT_EQ(report.size(), 6u) << core::agentKindName(kind);
        for (const auto &f : report) {
            EXPECT_GE(f.actionFlipRate, 0.0);
            EXPECT_LE(f.actionFlipRate, 1.0);
        }
    }
}

// ---------------------------------------------------------------------
// Steady-state metric
// ---------------------------------------------------------------------

TEST(EndToEnd, SteadyStateLatencyPopulated)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 4000);
    core::SibylPolicy sibyl(core::SibylConfig(), 2);
    const auto r = runOnCore(t, sibyl);
    EXPECT_GT(r.metrics.steadyAvgLatencyUs, 0.0);
    // Second-half average is a plausible latency (same order as the
    // overall mean).
    EXPECT_LT(r.metrics.steadyAvgLatencyUs,
              r.metrics.avgLatencyUs * 10.0);
    EXPECT_GT(r.metrics.steadyAvgLatencyUs,
              r.metrics.avgLatencyUs * 0.1);
}

TEST(EndToEnd, OnlineLearnerImprovesBySecondHalf)
{
    // For a learnable hot/cold workload, Sibyl's steady-state latency
    // should not be worse than its overall average (it learned).
    trace::Trace t = trace::makeWorkload("wdev_2");
    core::SibylPolicy sibyl(core::SibylConfig(), 2);
    // H&L: big gap -> clear learning signal.
    const auto r = runOnCore(t, sibyl, "H&L");
    EXPECT_LE(r.metrics.steadyAvgLatencyUs,
              r.metrics.avgLatencyUs * 1.05);
}

// ---------------------------------------------------------------------
// CLI-shaped flows (the pieces sibyl_cli composes)
// ---------------------------------------------------------------------

TEST(EndToEnd, WarmStartedPolicyActsGreedilyFromCheckpoint)
{
    trace::Trace t = trace::makeWorkload("prxy_0", 6000);

    core::SibylConfig scfg;
    core::SibylPolicy trained(scfg, 2);
    runOnCore(t, trained);
    const std::string path = "/tmp/sibyl_e2e_ckpt.bin";
    rl::saveCheckpointFile(trained.agent(), path);

    core::SibylConfig frozen = scfg;
    frozen.exploration.epsilon = 0.0;
    core::SibylPolicy warm(frozen, 2);
    ASSERT_EQ(rl::loadCheckpointFile(warm.agent(), path), "");
    const auto r = runOnCore(t, warm);
    EXPECT_EQ(r.metrics.requests, t.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace sibyl
