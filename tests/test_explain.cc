/**
 * @file
 * Tests for the explainability module (§9/§11): saliency probing, and
 * collecting the states it probes by encoding each observation while
 * stepping a run.
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "explain/saliency.hh"
#include "rl/dqn_agent.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace sibyl::explain
{
namespace
{

// ---------------------------------------------------------------------
// Saliency
// ---------------------------------------------------------------------

TEST(Saliency, EmptyStatesGiveEmptyReport)
{
    core::SibylConfig cfg;
    core::SibylPolicy p(cfg, 2);
    const auto report = featureSaliency(p.agent(), {});
    EXPECT_TRUE(report.empty());
}

TEST(Saliency, ReportsOneEntryPerFeature)
{
    core::SibylConfig cfg;
    core::SibylPolicy p(cfg, 2);
    std::vector<ml::Vector> states = {{0.5f, 0.5f, 0.5f, 0.5f, 0.5f,
                                       0.5f}};
    const auto report = featureSaliency(p.agent(), states);
    EXPECT_EQ(report.size(), 6u);
    for (std::size_t f = 0; f < report.size(); f++) {
        EXPECT_EQ(report[f].feature, f);
        EXPECT_GE(report[f].actionFlipRate, 0.0);
        EXPECT_LE(report[f].actionFlipRate, 1.0);
        EXPECT_GE(report[f].meanAbsDeltaQ, 0.0);
    }
}

TEST(Saliency, TrainedBanditIgnoresAllFeatures)
{
    // An agent trained on a state-independent bandit should show ~zero
    // flip rates (the decision never depends on features).
    rl::AgentConfig cfg;
    cfg.stateDim = 2;
    cfg.numActions = 2;
    cfg.bufferCapacity = 64;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 16;
    cfg.targetSyncEvery = 32;
    cfg.learningRate = 1e-2;
    cfg.dedupBuffer = false;
    rl::DqnAgent agent(cfg);
    Pcg32 rng(3);
    for (int i = 0; i < 1500; i++) {
        const ml::Vector state = {static_cast<float>(rng.nextDouble()),
                                  static_cast<float>(rng.nextDouble())};
        const ml::Vector next = {static_cast<float>(rng.nextDouble()),
                                 static_cast<float>(rng.nextDouble())};
        const auto action = static_cast<std::uint32_t>(i % 2);
        agent.observe(state, action, action == 1 ? 1.0f : 0.0f, next);
    }
    agent.syncWeights();
    std::vector<ml::Vector> states;
    for (int i = 0; i < 16; i++) {
        states.push_back({static_cast<float>(rng.nextDouble()),
                          static_cast<float>(rng.nextDouble())});
    }
    const auto report = featureSaliency(agent, states, 4);
    for (const auto &f : report)
        EXPECT_LT(f.actionFlipRate, 0.25) << "feature " << f.feature;
}

// ---------------------------------------------------------------------
// Observing a run
// ---------------------------------------------------------------------

TEST(ObservedRun, EncodingBeforeEachStepLeavesTheRunUnchanged)
{
    // The explainability examples collect states by encoding each
    // request before stepping it. Encoding only reads the system, so
    // the observed run must match an unobserved twin bit for bit.
    trace::Trace t = trace::makeWorkload("rsrch_0", 2000);
    sim::SimConfig sc;
    sc.recordPerRequest = true;

    hss::HybridSystem twinSys(hss::makeHssConfig("H&M", t.uniquePages()),
                              42);
    core::SibylPolicy twin(core::SibylConfig(), 2);
    const sim::RunMetrics want = sim::runSimulation(t, twinSys, twin, sc);

    hss::HybridSystem sys(hss::makeHssConfig("H&M", t.uniquePages()), 42);
    core::SibylPolicy policy(core::SibylConfig(), 2);
    policy.prepare(t, sys);
    sim::RequestStepper stepper(sys, policy, sc, t.size());
    for (const auto &req : t) {
        const ml::Vector state = policy.encoder().encode(sys, req);
        ASSERT_EQ(state.size(), policy.encoder().dimension());
        stepper.step(req);
    }
    const sim::RunMetrics got = stepper.finish();

    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.avgLatencyUs, want.avgLatencyUs);
    EXPECT_EQ(got.steadyAvgLatencyUs, want.steadyAvgLatencyUs);
    EXPECT_EQ(got.p50LatencyUs, want.p50LatencyUs);
    EXPECT_EQ(got.p99LatencyUs, want.p99LatencyUs);
    EXPECT_EQ(got.p999LatencyUs, want.p999LatencyUs);
    EXPECT_EQ(got.maxLatencyUs, want.maxLatencyUs);
    EXPECT_EQ(got.iops, want.iops);
    EXPECT_EQ(got.makespanUs, want.makespanUs);
    EXPECT_EQ(got.evictionFraction, want.evictionFraction);
    EXPECT_EQ(got.evictedPagesPerRequest, want.evictedPagesPerRequest);
    EXPECT_EQ(got.fastPlacementPreference, want.fastPlacementPreference);
    EXPECT_EQ(got.promotions, want.promotions);
    EXPECT_EQ(got.demotions, want.demotions);
    EXPECT_EQ(got.perRequestAction, want.perRequestAction);
    EXPECT_EQ(got.perRequestAction.size(), t.size());
}

} // namespace
} // namespace sibyl::explain
