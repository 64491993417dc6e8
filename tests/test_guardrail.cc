/**
 * @file
 * Agent-health guardrail tests: the state machine in isolation, and
 * the full supervised-run contract through ParallelRunner.
 *
 * The two load-bearing claims from the run-supervision design:
 *
 *  1. Zero behavior change when not tripped — arming the guardrail on
 *     a healthy run is bit-identical to running unarmed. This is only
 *     testable because `guardrail*` descriptor params are stripped
 *     from the canonical run string, so armed and unarmed runs share
 *     one run key and therefore one set of derived RNG streams.
 *  2. A trip trajectory is deterministic — the same injection produces
 *     bit-identical results at 1 vs. N threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "rl/checkpoint.hh"
#include "rl/guardrail.hh"
#include "rl/q_table.hh"
#include "sim/parallel_runner.hh"

namespace sibyl
{
namespace
{

// ------------------------- state machine -----------------------------

/** Minimal agent whose training statistics the test scripts directly
 *  (the loss guards read nothing else). Snapshots must stay disabled
 *  (snapshotEvery = 0): agentParamsFinite() only understands the real
 *  agent families. */
class ScriptedAgent final : public rl::Agent
{
  public:
    ScriptedAgent() : rl::Agent(rl::AgentConfig(), 0) {}

    std::string name() const override { return "scripted"; }
    std::uint32_t selectAction(const ml::Vector &) override { return 0; }
    std::uint32_t greedyAction(const ml::Vector &) override { return 0; }
    std::vector<double> qValues(const ml::Vector &) override
    {
        return {};
    }
    void observe(const ml::Vector &, std::uint32_t, float,
                 const ml::Vector &) override
    {
    }
    double trainRound() override { return 0.0; }
    void setLearningRate(double) override {}
    std::size_t storageBytes() const override { return 0; }

    /** Pretend one training round finished with mean loss @p loss. */
    void pushLoss(double loss)
    {
        stats_.trainingRounds++;
        stats_.lastLoss = loss;
    }
};

rl::GuardrailConfig
unitConfig()
{
    rl::GuardrailConfig cfg;
    cfg.enabled = true;
    cfg.snapshotEvery = 0; // ScriptedAgent cannot be serialized
    cfg.lossWindow = 2;
    cfg.lossBlowupFactor = 10.0;
    cfg.lossFloor = 0.5;
    cfg.cooldownDecisions = 3;
    cfg.maxTrips = 0;
    return cfg;
}

TEST(Guardrail, HealthyLossesNeverTrip)
{
    rl::Guardrail g(unitConfig());
    ScriptedAgent a;
    for (int i = 0; i < 50; i++) {
        a.pushLoss(1.0 + 0.01 * i);
        EXPECT_EQ(g.afterDecision(a, i % 2), std::string());
    }
    EXPECT_FALSE(g.inFallback());
    EXPECT_EQ(g.stats().trips, 0u);
}

TEST(Guardrail, NonFiniteLossTripsImmediately)
{
    rl::Guardrail g(unitConfig());
    ScriptedAgent a;
    a.pushLoss(1.0);
    EXPECT_EQ(g.afterDecision(a, 0), std::string());
    a.pushLoss(std::numeric_limits<double>::quiet_NaN());
    const std::string reason = g.afterDecision(a, 0);
    EXPECT_NE(reason.find("non-finite training loss"),
              std::string::npos);
}

TEST(Guardrail, LossBlowupTripsOnlyPastFloorAndFactor)
{
    rl::Guardrail g(unitConfig());
    ScriptedAgent a;
    // Burn-in: two losses of 1.0 define the healthy reference.
    for (int i = 0; i < 2; i++) {
        a.pushLoss(1.0);
        EXPECT_EQ(g.afterDecision(a, i), std::string());
    }
    // Recent mean 0.6: above the floor but inside 10x the reference.
    for (int i = 0; i < 2; i++) {
        a.pushLoss(0.6);
        EXPECT_EQ(g.afterDecision(a, i), std::string());
    }
    // First 15 only drags the window mean to 7.8 — still inside 10x
    // the reference; a full window of 15s is past both guards.
    a.pushLoss(15.0);
    EXPECT_EQ(g.afterDecision(a, 0), std::string());
    a.pushLoss(15.0);
    const std::string reason = g.afterDecision(a, 1);
    EXPECT_NE(reason.find("loss blowup"), std::string::npos);
}

TEST(Guardrail, LossFloorSuppressesSmallRatios)
{
    rl::Guardrail g(unitConfig()); // floor 0.5
    ScriptedAgent a;
    // A tiny reference would make any later loss a huge *ratio*; the
    // absolute floor keeps sub-floor means from ever tripping.
    for (int i = 0; i < 2; i++) {
        a.pushLoss(1e-6);
        EXPECT_EQ(g.afterDecision(a, i), std::string());
    }
    for (int i = 0; i < 4; i++) {
        a.pushLoss(0.1); // 1e5x the reference, but below the floor
        EXPECT_EQ(g.afterDecision(a, i), std::string());
    }
    a.pushLoss(0.8); // window mean 0.45: still under the floor
    EXPECT_EQ(g.afterDecision(a, 0), std::string());
    a.pushLoss(1.0); // window mean 0.9: past floor and factor alike
    EXPECT_NE(g.afterDecision(a, 1).find("loss blowup"),
              std::string::npos);
}

TEST(Guardrail, StuckActionGuardCountsStreaks)
{
    rl::GuardrailConfig cfg = unitConfig();
    cfg.stuckActionWindow = 5;
    rl::Guardrail g(cfg);
    ScriptedAgent a;
    // Alternating actions never streak.
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(g.afterDecision(a, i % 2), std::string());
    // A change resets the streak; the 5th identical action trips.
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(g.afterDecision(a, 7), std::string());
    const std::string reason = g.afterDecision(a, 7);
    EXPECT_NE(reason.find("stuck on action 7"), std::string::npos);
}

TEST(Guardrail, CooldownServesFallbackThenReadmits)
{
    rl::Guardrail g(unitConfig()); // cooldown 3
    ScriptedAgent a;
    a.pushLoss(std::numeric_limits<double>::quiet_NaN());
    const std::string reason = g.afterDecision(a, 0);
    ASSERT_FALSE(reason.empty());
    g.trip(reason);
    EXPECT_EQ(g.stats().trips, 1u);
    EXPECT_EQ(g.stats().lastTripReason, reason);
    EXPECT_TRUE(g.inFallback());
    EXPECT_FALSE(g.fallbackTick());
    EXPECT_FALSE(g.fallbackTick());
    EXPECT_TRUE(g.fallbackTick()); // cool-down elapsed: re-admit
    EXPECT_FALSE(g.inFallback());
    EXPECT_EQ(g.stats().fallbackDecisions, 3u);
}

TEST(Guardrail, TripResetsLossWindowsForFreshJudgment)
{
    rl::Guardrail g(unitConfig());
    ScriptedAgent a;
    // Establish a reference, then trip on a NaN.
    for (int i = 0; i < 4; i++) {
        a.pushLoss(1.0);
        g.afterDecision(a, i);
    }
    a.pushLoss(std::numeric_limits<double>::quiet_NaN());
    g.trip(g.afterDecision(a, 0));
    while (!g.fallbackTick()) {
    }
    // Post-trip, a much larger loss scale must burn in as the new
    // reference instead of instantly re-tripping against the old one.
    ScriptedAgent fresh;
    for (int i = 0; i < 10; i++) {
        fresh.pushLoss(40.0);
        EXPECT_EQ(g.afterDecision(fresh, i % 2), std::string());
    }
    EXPECT_EQ(g.stats().trips, 1u);
}

TEST(Guardrail, MaxTripsHaltsOnFallbackForever)
{
    rl::GuardrailConfig cfg = unitConfig();
    cfg.maxTrips = 1;
    rl::Guardrail g(cfg);
    ScriptedAgent a;
    a.pushLoss(std::numeric_limits<double>::quiet_NaN());
    g.trip(g.afterDecision(a, 0));
    EXPECT_TRUE(g.halted());
    EXPECT_TRUE(g.inFallback());
    // The cool-down never re-admits a halted guardrail.
    for (int i = 0; i < 20; i++)
        EXPECT_FALSE(g.fallbackTick());
    EXPECT_TRUE(g.inFallback());
}

TEST(Guardrail, SnapshotsAreTakenAndRestorable)
{
    rl::AgentConfig acfg;
    acfg.stateDim = 3;
    acfg.numActions = 2;
    acfg.exploration.epsilon = 0.0;
    rl::QTableAgent agent(acfg);
    // Teach the table something worth snapshotting.
    ml::Vector s(3), s2(3);
    for (int i = 0; i < 8; i++) {
        s[0] = static_cast<float>(i % 4) / 4.0f;
        agent.observe(s, static_cast<std::uint32_t>(i % 2), 1.0f, s2);
    }

    rl::GuardrailConfig cfg = unitConfig();
    cfg.snapshotEvery = 2;
    rl::Guardrail g(cfg);
    EXPECT_EQ(g.afterDecision(agent, 0), std::string());
    EXPECT_EQ(g.afterDecision(agent, 1), std::string());
    EXPECT_EQ(g.stats().snapshots, 1u);

    const std::string &snap = g.trip("test trip");
    ASSERT_FALSE(snap.empty());
    rl::QTableAgent restored(acfg);
    std::istringstream in(snap, std::ios::binary);
    EXPECT_EQ(rl::loadCheckpoint(restored, in), std::string());
    EXPECT_EQ(restored.table().size(), agent.table().size());
    g.markRestored();
    EXPECT_EQ(g.stats().restores, 1u);
}

TEST(Guardrail, NonFiniteWeightsBlockSnapshotAndTrip)
{
    rl::AgentConfig acfg;
    acfg.stateDim = 2;
    acfg.numActions = 2;
    rl::QTableAgent agent(acfg);
    EXPECT_TRUE(rl::agentParamsFinite(agent));
    agent.restoreTable(
        {{42u, {1.0, std::numeric_limits<double>::quiet_NaN()}}});
    EXPECT_FALSE(rl::agentParamsFinite(agent));

    rl::GuardrailConfig cfg = unitConfig();
    cfg.snapshotEvery = 1;
    rl::Guardrail g(cfg);
    const std::string reason = g.afterDecision(agent, 0);
    EXPECT_NE(reason.find("non-finite network weights"),
              std::string::npos);
    EXPECT_EQ(g.stats().snapshots, 0u);
}

// --------------------- supervised-run contract ------------------------

/** Sibyl descriptor params shared by the armed and unarmed arms —
 *  train often enough on a short trace for the loss guards to see
 *  real rounds. */
const char *kTrain = "trainEvery=250";

sim::RunSpec
sibylSpec(const std::string &policy)
{
    sim::RunSpec s;
    s.policy = policy;
    s.workload = "usr_0";
    s.hssConfig = "H&M";
    s.traceLen = 1500;
    return s;
}

void
expectSameMetrics(const sim::RunRecord &a, const sim::RunRecord &b)
{
    const sim::RunMetrics &ma = a.result.metrics;
    const sim::RunMetrics &mb = b.result.metrics;
    EXPECT_EQ(ma.requests, mb.requests);
    EXPECT_EQ(ma.avgLatencyUs, mb.avgLatencyUs);
    EXPECT_EQ(ma.p99LatencyUs, mb.p99LatencyUs);
    EXPECT_EQ(ma.iops, mb.iops);
    EXPECT_EQ(ma.placements, mb.placements);
    EXPECT_EQ(ma.promotions, mb.promotions);
    EXPECT_EQ(ma.demotions, mb.demotions);
    EXPECT_EQ(a.result.normalizedLatency, b.result.normalizedLatency);
    EXPECT_EQ(a.result.totalEnergyMj, b.result.totalEnergyMj);
}

TEST(GuardrailRuns, ArmedButUntrippedIsBitIdenticalToUnarmed)
{
    // The zero-behavior-change acceptance claim: supervision knobs are
    // stripped from the run key, so both arms share derived RNG
    // streams, and an untripped guardrail reads but never steers.
    sim::ParallelRunner runner;
    const auto recs = runner.runAll({
        sibylSpec(std::string("Sibyl{") + kTrain + "}"),
        sibylSpec(std::string("Sibyl{") + kTrain +
                  ",guardrail=1,guardrailSnapshotEvery=100}"),
    });
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].runKey, recs[1].runKey);
    expectSameMetrics(recs[0], recs[1]);

    EXPECT_FALSE(recs[0].result.guardrailEnabled);
    ASSERT_TRUE(recs[1].result.guardrailEnabled);
    EXPECT_EQ(recs[1].result.guardrail.trips, 0u);
    EXPECT_GT(recs[1].result.guardrail.snapshots, 0u);
    EXPECT_EQ(recs[1].result.guardrail.fallbackDecisions, 0u);
}

std::string
tripDescriptor()
{
    return std::string("Sibyl{") + kTrain +
           ",guardrail=1,guardrailSnapshotEvery=100"
           ",guardrailCooldown=200,guardrailInjectNanAt=400}";
}

TEST(GuardrailRuns, InjectedNanTripsFallsBackAndRestores)
{
    sim::ParallelRunner runner;
    const auto recs = runner.runAll({sibylSpec(tripDescriptor())});
    ASSERT_EQ(recs.size(), 1u);
    ASSERT_FALSE(recs[0].failed());
    ASSERT_TRUE(recs[0].result.guardrailEnabled);
    const rl::GuardrailStats &g = recs[0].result.guardrail;
    EXPECT_GE(g.trips, 1u);
    EXPECT_GT(g.fallbackDecisions, 0u);
    // The poisoned round lands well after the first snapshot, so the
    // trip restores a last-good snapshot instead of cold-restarting.
    EXPECT_GE(g.restores, 1u);
    EXPECT_NE(g.lastTripReason.find("non-finite"), std::string::npos);

    // Trip accounting reaches the results JSON.
    std::ostringstream os;
    sim::writeResultsJson(os, recs);
    EXPECT_NE(os.str().find("\"guardrailTrips\": "), std::string::npos);
    EXPECT_NE(os.str().find("\"guardrailLastTrip\": "),
              std::string::npos);
}

TEST(GuardrailRuns, TripTrajectoryBitIdenticalAtOneVsManyThreads)
{
    // Pad the batch with other policies so the 4-thread run genuinely
    // interleaves work around the tripping arm.
    const std::vector<sim::RunSpec> specs = {
        sibylSpec("CDE"),
        sibylSpec(tripDescriptor()),
        sibylSpec("HPS"),
        sibylSpec(std::string("Sibyl{") + kTrain + "}"),
    };
    sim::ParallelConfig serialCfg;
    serialCfg.numThreads = 1;
    sim::ParallelRunner serial(serialCfg);
    sim::ParallelConfig parCfg;
    parCfg.numThreads = 4;
    sim::ParallelRunner parallel(parCfg);

    const auto a = serial.runAll(specs);
    const auto b = parallel.runAll(specs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        SCOPED_TRACE("spec " + std::to_string(i));
        EXPECT_EQ(a[i].runKey, b[i].runKey);
        expectSameMetrics(a[i], b[i]);
        EXPECT_EQ(a[i].result.guardrail.trips,
                  b[i].result.guardrail.trips);
        EXPECT_EQ(a[i].result.guardrail.fallbackDecisions,
                  b[i].result.guardrail.fallbackDecisions);
        EXPECT_EQ(a[i].result.guardrail.lastTripDecision,
                  b[i].result.guardrail.lastTripDecision);
    }
    EXPECT_GE(a[1].result.guardrail.trips, 1u);
}

} // namespace
} // namespace sibyl
