/**
 * @file
 * Tests for the explainability module (§9/§11): action logging,
 * preference aggregation, saliency probing, and the instrumented
 * policy wrapper.
 */

#include <gtest/gtest.h>

#include "explain/action_log.hh"
#include "explain/instrumented_policy.hh"
#include "explain/saliency.hh"
#include "rl/dqn_agent.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::explain
{
namespace
{

DecisionRecord
decision(std::uint32_t action, float f0 = 0.5f, float reward = 1.0f,
         bool eviction = false)
{
    DecisionRecord r;
    r.state = {f0, 0.0f};
    r.action = action;
    r.reward = reward;
    r.eviction = eviction;
    return r;
}

// ---------------------------------------------------------------------
// ActionLog
// ---------------------------------------------------------------------

TEST(ActionLog, EmptyLogHasNoPreference)
{
    ActionLog log;
    EXPECT_EQ(log.overallPreference().decisions, 0u);
    EXPECT_DOUBLE_EQ(log.overallPreference().preference(), 0.0);
    EXPECT_DOUBLE_EQ(log.evictionFraction(), 0.0);
}

TEST(ActionLog, PreferenceCountsFastPlacements)
{
    ActionLog log;
    log.record(decision(0));
    log.record(decision(0));
    log.record(decision(1));
    log.record(decision(0));
    const auto p = log.overallPreference();
    EXPECT_EQ(p.decisions, 4u);
    EXPECT_EQ(p.fastPlacements, 3u);
    EXPECT_DOUBLE_EQ(p.preference(), 0.75);
}

TEST(ActionLog, CapacityBoundDropsOldest)
{
    ActionLog log(4);
    for (int i = 0; i < 10; i++)
        log.record(decision(i < 8 ? 1 : 0)); // last two are fast
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.overallPreference().fastPlacements, 2u);
}

TEST(ActionLog, EvictionFraction)
{
    ActionLog log;
    log.record(decision(0, 0.5f, 1.0f, true));
    log.record(decision(0));
    log.record(decision(0));
    log.record(decision(0, 0.5f, 1.0f, true));
    EXPECT_DOUBLE_EQ(log.evictionFraction(), 0.5);
}

TEST(ActionLog, MeanRewardPerAction)
{
    ActionLog log;
    log.record(decision(0, 0.5f, 2.0f));
    log.record(decision(0, 0.5f, 4.0f));
    log.record(decision(1, 0.5f, 1.0f));
    const auto mean = log.meanRewardPerAction(2);
    EXPECT_DOUBLE_EQ(mean[0], 3.0);
    EXPECT_DOUBLE_EQ(mean[1], 1.0);
}

TEST(ActionLog, PreferenceByFeatureSplitsBins)
{
    ActionLog log;
    // Low feature values placed slow, high values fast.
    for (int i = 0; i < 10; i++)
        log.record(decision(1, 0.1f));
    for (int i = 0; i < 10; i++)
        log.record(decision(0, 0.9f));
    const auto bins = log.preferenceByFeature(0, 2);
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_DOUBLE_EQ(bins[0].preference(), 0.0);
    EXPECT_DOUBLE_EQ(bins[1].preference(), 1.0);
}

TEST(ActionLog, TimelineShowsPolicyShift)
{
    ActionLog log;
    for (int i = 0; i < 50; i++)
        log.record(decision(1));
    for (int i = 0; i < 50; i++)
        log.record(decision(0));
    const auto timeline = log.preferenceTimeline(2);
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_LT(timeline[0].preference(), 0.1);
    EXPECT_GT(timeline[1].preference(), 0.9);
}

TEST(ActionLog, ClearEmptiesLog)
{
    ActionLog log;
    log.record(decision(0));
    log.clear();
    EXPECT_EQ(log.size(), 0u);
}


TEST(ActionLog, RewardTimelineShowsLearning)
{
    ActionLog log;
    for (int i = 0; i < 40; i++)
        log.record(decision(0, 0.5f, 0.1f));
    for (int i = 0; i < 40; i++)
        log.record(decision(0, 0.5f, 0.9f));
    const auto curve = log.rewardTimeline(2);
    ASSERT_EQ(curve.size(), 2u);
    EXPECT_NEAR(curve[0], 0.1, 1e-6);
    EXPECT_NEAR(curve[1], 0.9, 1e-6);
}

TEST(ActionLog, RewardTimelineEmptyLogIsZero)
{
    ActionLog log;
    const auto curve = log.rewardTimeline(4);
    for (double v : curve)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

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
// InstrumentedSibyl
// ---------------------------------------------------------------------

/** Run @p policy on @p t in H&M on the single-run core (device seed
 *  42). */
sim::PolicyResult
runOnCore(const trace::Trace &t, policies::PlacementPolicy &policy)
{
    const sim::RunSpec spec;
    return sim::runPolicyExperiment(
        spec, t, policy, sim::computeFastOnlyBaseline(spec, t, 42), 42);
}

TEST(InstrumentedSibyl, RecordsEveryDecision)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", /*requests=*/2000);
    InstrumentedSibyl policy(core::SibylConfig(), 2);
    const auto r = runOnCore(t, policy);
    EXPECT_EQ(policy.log().size(), r.metrics.requests);
}

TEST(InstrumentedSibyl, LoggedPreferenceMatchesRunMetrics)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 2000);
    InstrumentedSibyl policy(core::SibylConfig(), 2);
    const auto r = runOnCore(t, policy);
    EXPECT_NEAR(policy.log().overallPreference().preference(),
                r.metrics.fastPlacementPreference, 1e-9);
}

TEST(InstrumentedSibyl, ResetClearsLog)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 500);
    InstrumentedSibyl policy(core::SibylConfig(), 2);
    runOnCore(t, policy);
    policy.reset();
    EXPECT_EQ(policy.log().size(), 0u);
}

TEST(InstrumentedSibyl, StatesHaveEncoderDimension)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 300);
    InstrumentedSibyl policy(core::SibylConfig(), 2);
    runOnCore(t, policy);
    ASSERT_GT(policy.log().size(), 0u);
    EXPECT_EQ(policy.log()[0].state.size(),
              policy.sibyl().encoder().dimension());
}

} // namespace
} // namespace sibyl::explain
