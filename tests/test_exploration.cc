/**
 * @file
 * Tests for the exploration schedules: epsilon evaluation across kinds,
 * decay shapes and floors, Boltzmann probabilities and sampling, the
 * constant-override contract (setEpsilon), and agent integration
 * (exploration kinds drive all three agent families).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "core/sibyl_policy.hh"
#include "rl/c51_agent.hh"
#include "rl/dqn_agent.hh"
#include "rl/exploration.hh"
#include "rl/q_table.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::rl
{
namespace
{

ExplorationConfig
makeCfg(ExplorationKind kind)
{
    ExplorationConfig cfg;
    cfg.kind = kind;
    cfg.epsilon = 0.01;
    cfg.epsilonStart = 0.5;
    cfg.decaySteps = 1000;
    cfg.halfLifeSteps = 100;
    cfg.temperature = 0.1;
    return cfg;
}

TEST(ExplorationSchedule, ConstantIsFlat)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::ConstantEpsilon));
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.01);
    EXPECT_DOUBLE_EQ(s.epsilonAt(1000), 0.01);
    EXPECT_DOUBLE_EQ(s.epsilonAt(1000000), 0.01);
}

TEST(ExplorationSchedule, LinearDecayEndpoints)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::LinearDecay));
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.5);
    EXPECT_NEAR(s.epsilonAt(500), (0.5 + 0.01) / 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.epsilonAt(1000), 0.01);
    EXPECT_DOUBLE_EQ(s.epsilonAt(99999), 0.01);
}

TEST(ExplorationSchedule, LinearDecayMonotonic)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::LinearDecay));
    double prev = s.epsilonAt(0);
    for (std::uint64_t step = 1; step <= 1200; step += 7) {
        const double eps = s.epsilonAt(step);
        EXPECT_LE(eps, prev) << "step " << step;
        EXPECT_GE(eps, 0.01);
        EXPECT_LE(eps, 0.5);
        prev = eps;
    }
}

TEST(ExplorationSchedule, ExponentialDecayHalfLife)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::ExponentialDecay));
    // Excess over the floor halves every halfLifeSteps decisions.
    const double excess0 = s.epsilonAt(0) - 0.01;
    EXPECT_NEAR(excess0, 0.49, 1e-12);
    EXPECT_NEAR(s.epsilonAt(100) - 0.01, excess0 / 2.0, 1e-12);
    EXPECT_NEAR(s.epsilonAt(200) - 0.01, excess0 / 4.0, 1e-12);
    EXPECT_NEAR(s.epsilonAt(1000) - 0.01, excess0 / 1024.0, 1e-12);
}

TEST(ExplorationSchedule, ExponentialDecayApproachesFloor)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::ExponentialDecay));
    EXPECT_NEAR(s.epsilonAt(10000), 0.01, 1e-9);
    EXPECT_GE(s.epsilonAt(10000), 0.01);
}

TEST(ExplorationSchedule, DegenerateDecayStepsFallBackToFloor)
{
    auto cfg = makeCfg(ExplorationKind::LinearDecay);
    cfg.decaySteps = 0;
    ExplorationSchedule lin(cfg);
    EXPECT_DOUBLE_EQ(lin.epsilonAt(0), 0.01);

    auto cfg2 = makeCfg(ExplorationKind::ExponentialDecay);
    cfg2.halfLifeSteps = 0;
    ExplorationSchedule ex(cfg2);
    EXPECT_DOUBLE_EQ(ex.epsilonAt(0), 0.01);
}

TEST(ExplorationSchedule, BoltzmannEpsilonIsZero)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    EXPECT_TRUE(s.isBoltzmann());
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.0);
    EXPECT_DOUBLE_EQ(s.epsilonAt(12345), 0.0);
}

TEST(ExplorationSchedule, BoltzmannProbabilitiesSumToOne)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    std::vector<double> p;
    s.boltzmannProbabilities({1.0, 2.0, 0.5, 2.0}, p);
    ASSERT_EQ(p.size(), 4u);
    double sum = 0.0;
    for (double v : p) {
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ExplorationSchedule, BoltzmannPrefersHigherQ)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    std::vector<double> p;
    s.boltzmannProbabilities({0.2, 0.9}, p);
    EXPECT_GT(p[1], p[0]);
}

TEST(ExplorationSchedule, BoltzmannEqualQIsUniform)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    std::vector<double> p;
    s.boltzmannProbabilities({3.0, 3.0, 3.0}, p);
    for (double v : p)
        EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(ExplorationSchedule, BoltzmannLowTemperatureIsNearGreedy)
{
    auto cfg = makeCfg(ExplorationKind::Boltzmann);
    cfg.temperature = 1e-3;
    ExplorationSchedule s(cfg);
    std::vector<double> p;
    s.boltzmannProbabilities({0.2, 0.9, 0.5}, p);
    EXPECT_GT(p[1], 0.999);
}

TEST(ExplorationSchedule, BoltzmannHighTemperatureIsNearUniform)
{
    auto cfg = makeCfg(ExplorationKind::Boltzmann);
    cfg.temperature = 1e3;
    ExplorationSchedule s(cfg);
    std::vector<double> p;
    s.boltzmannProbabilities({0.2, 0.9, 0.5}, p);
    for (double v : p)
        EXPECT_NEAR(v, 1.0 / 3.0, 1e-3);
}

TEST(ExplorationSchedule, BoltzmannLargeQValuesAreStable)
{
    // The stable-softmax shift must keep huge Q-values finite.
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    std::vector<double> p;
    s.boltzmannProbabilities({1e8, 1e8 + 0.05}, p);
    EXPECT_TRUE(std::isfinite(p[0]));
    EXPECT_TRUE(std::isfinite(p[1]));
    EXPECT_GT(p[1], p[0]);
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(ExplorationSchedule, BoltzmannSampleMatchesProbabilities)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::Boltzmann));
    const std::vector<double> q = {0.3, 0.8};
    std::vector<double> p;
    s.boltzmannProbabilities(q, p);
    Pcg32 rng(99);
    std::vector<double> scratch;
    const int n = 20000;
    int hits = 0;
    for (int i = 0; i < n; i++)
        hits += s.sampleBoltzmann(q, scratch, rng) == 1 ? 1 : 0;
    const double freq = static_cast<double>(hits) / n;
    EXPECT_NEAR(freq, p[1], 0.02);
}

TEST(ExplorationSchedule, VdbeStartsAtEpsilonStart)
{
    auto cfg = makeCfg(ExplorationKind::Vdbe);
    ExplorationSchedule s(cfg);
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.5);
    EXPECT_DOUBLE_EQ(s.epsilonAt(99999), 0.5); // step-independent
}

TEST(ExplorationSchedule, VdbeAnnealsWhenUpdatesVanish)
{
    auto cfg = makeCfg(ExplorationKind::Vdbe);
    ExplorationSchedule s(cfg);
    for (int i = 0; i < 200; i++)
        s.observeValueDelta(0.0);
    // f(0) = 0, so epsilon decays geometrically toward the floor.
    EXPECT_NEAR(s.epsilonAt(0), cfg.epsilon, 1e-6);
    EXPECT_GE(s.epsilonAt(0), cfg.epsilon);
}

TEST(ExplorationSchedule, VdbeRisesUnderLargeUpdates)
{
    auto cfg = makeCfg(ExplorationKind::Vdbe);
    cfg.epsilonStart = 0.0; // converged agent...
    ExplorationSchedule s(cfg);
    const double before = s.epsilonAt(0);
    for (int i = 0; i < 50; i++)
        s.observeValueDelta(100.0); // ...hit by a workload shift
    EXPECT_GT(s.epsilonAt(0), before);
    EXPECT_GT(s.epsilonAt(0), 0.9); // f(100) ~ 1 at sigma 0.5
}

TEST(ExplorationSchedule, VdbeStaysWithinBounds)
{
    auto cfg = makeCfg(ExplorationKind::Vdbe);
    Pcg32 rng(5);
    ExplorationSchedule s(cfg);
    for (int i = 0; i < 500; i++) {
        s.observeValueDelta(rng.nextDouble(0.0, 10.0));
        const double eps = s.epsilonAt(0);
        EXPECT_GE(eps, cfg.epsilon);
        EXPECT_LE(eps, 1.0);
    }
}

TEST(ExplorationSchedule, VdbeIgnoredByOtherKinds)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::ConstantEpsilon));
    s.observeValueDelta(100.0);
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.01);
}

TEST(AgentExploration, VdbeAnnealsWithTabularConvergence)
{
    // A tabular agent on a single-state bandit: rewards are
    // deterministic, so TD errors shrink and VDBE's epsilon anneals
    // from 1.0 toward the floor as the table converges.
    AgentConfig cfg;
    cfg.stateDim = 1;
    cfg.numActions = 2;
    cfg.learningRate = 0.5;
    cfg.exploration.kind = ExplorationKind::Vdbe;
    cfg.exploration.epsilonStart = 1.0;
    cfg.exploration.epsilon = 0.001;
    QTableAgent agent(cfg);

    const ml::Vector s = {0.5f};
    for (int i = 0; i < 400; i++) {
        const std::uint32_t a = agent.selectAction(s);
        agent.observe(s, a, a == 1 ? 1.0f : 0.1f, s);
    }
    EXPECT_LT(agent.exploration().epsilonAt(0), 0.1);
    EXPECT_EQ(agent.greedyAction(s), 1u);
}

TEST(ExplorationSchedule, OverrideConstantRepins)
{
    ExplorationSchedule s(makeCfg(ExplorationKind::LinearDecay));
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.5);
    s.overrideConstant(0.2);
    EXPECT_FALSE(s.isBoltzmann());
    EXPECT_DOUBLE_EQ(s.epsilonAt(0), 0.2);
    EXPECT_DOUBLE_EQ(s.epsilonAt(5000), 0.2);
}

TEST(ExplorationSchedule, KindNamesDistinct)
{
    EXPECT_STRNE(explorationKindName(ExplorationKind::ConstantEpsilon),
                 explorationKindName(ExplorationKind::LinearDecay));
    EXPECT_STRNE(explorationKindName(ExplorationKind::LinearDecay),
                 explorationKindName(ExplorationKind::ExponentialDecay));
    EXPECT_STRNE(explorationKindName(ExplorationKind::ExponentialDecay),
                 explorationKindName(ExplorationKind::Boltzmann));
}

// --- Agent integration -------------------------------------------------

AgentConfig
agentCfg(ExplorationKind kind)
{
    AgentConfig cfg;
    cfg.stateDim = 2;
    cfg.numActions = 2;
    cfg.bufferCapacity = 64;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 1;
    cfg.exploration = makeCfg(kind);
    return cfg;
}

TEST(AgentExploration, ConstantEpsilonIsExplorationEpsilon)
{
    // ExplorationConfig::epsilon is the one exploration rate.
    auto cfg = agentCfg(ExplorationKind::ConstantEpsilon);
    cfg.exploration.epsilon = 1.0; // always explore
    C51Agent agent(cfg);
    for (int i = 0; i < 50; i++)
        agent.selectAction({0.5f, 0.5f});
    EXPECT_EQ(agent.stats().randomActions, 50u);
}

TEST(AgentExploration, LinearDecayReducesRandomActionsOverTime)
{
    auto cfg = agentCfg(ExplorationKind::LinearDecay);
    cfg.exploration.epsilonStart = 1.0;
    cfg.exploration.epsilon = 0.0;
    cfg.exploration.decaySteps = 400;
    C51Agent agent(cfg);

    std::uint64_t earlyRandom = 0;
    for (int i = 0; i < 200; i++)
        agent.selectAction({0.5f, 0.5f});
    earlyRandom = agent.stats().randomActions;
    for (int i = 0; i < 400; i++)
        agent.selectAction({0.5f, 0.5f});
    const std::uint64_t lateRandom =
        agent.stats().randomActions - earlyRandom;
    // First 200 decisions at eps in [0.5, 1.0]; the 400 decisions after
    // step 400 are fully greedy.
    EXPECT_GT(earlyRandom, 100u);
    EXPECT_LT(lateRandom, earlyRandom);
}

TEST(AgentExploration, BoltzmannDrawsBothActionsWhenUncommitted)
{
    // An untrained network has near-equal Q-values, so Boltzmann
    // sampling at moderate temperature must visit both actions.
    auto cfg = agentCfg(ExplorationKind::Boltzmann);
    cfg.exploration.temperature = 1.0;
    C51Agent agent(cfg);
    int counts[2] = {0, 0};
    for (int i = 0; i < 300; i++)
        counts[agent.selectAction({0.5f, 0.5f})]++;
    EXPECT_GT(counts[0], 30);
    EXPECT_GT(counts[1], 30);
}

TEST(AgentExploration, SetEpsilonOverridesScheduleOnAllFamilies)
{
    for (int family = 0; family < 3; family++) {
        auto cfg = agentCfg(ExplorationKind::LinearDecay);
        cfg.exploration.epsilonStart = 1.0;
        cfg.exploration.epsilon = 1.0;
        std::unique_ptr<Agent> agent;
        switch (family) {
          case 0:
            agent = std::make_unique<C51Agent>(cfg);
            break;
          case 1:
            agent = std::make_unique<DqnAgent>(cfg);
            break;
          default:
            agent = std::make_unique<QTableAgent>(cfg);
            break;
        }
        agent->setEpsilon(0.0); // greedy from now on
        for (int i = 0; i < 100; i++)
            agent->selectAction({0.5f, 0.5f});
        EXPECT_EQ(agent->stats().randomActions, 0u) << agent->name();
    }
}

TEST(AgentExploration, DqnAndQTableHonorBoltzmann)
{
    for (int family = 1; family < 3; family++) {
        auto cfg = agentCfg(ExplorationKind::Boltzmann);
        cfg.exploration.temperature = 1.0;
        std::unique_ptr<Agent> agent;
        if (family == 1)
            agent = std::make_unique<DqnAgent>(cfg);
        else
            agent = std::make_unique<QTableAgent>(cfg);
        int counts[2] = {0, 0};
        for (int i = 0; i < 300; i++)
            counts[agent->selectAction({0.5f, 0.5f})]++;
        EXPECT_GT(counts[0], 30) << agent->name();
        EXPECT_GT(counts[1], 30) << agent->name();
    }
}

/** Every exploration kind must drive the full Sibyl policy shell
 *  through a real simulated run. */
class SibylExplorationTest
    : public ::testing::TestWithParam<ExplorationKind>
{};

TEST_P(SibylExplorationTest, RunsEndToEndThroughSibylConfig)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 4000);
    sim::RunSpec spec;
    spec.hssConfig = "H&M";
    const auto baseline = sim::computeFastOnlyBaseline(spec, t, 42);

    core::SibylConfig scfg;
    scfg.exploration.kind = GetParam();
    scfg.exploration.epsilonStart = 0.5;
    scfg.exploration.epsilon = 0.001;
    scfg.exploration.decaySteps = 1000;
    scfg.exploration.halfLifeSteps = 300;
    scfg.exploration.temperature = 0.05;
    core::SibylPolicy sibyl(scfg, 2);
    const auto r = sim::runPolicyExperiment(spec, t, sibyl, baseline, 42);

    EXPECT_EQ(r.metrics.requests, t.size());
    EXPECT_GT(r.normalizedLatency, 0.0);
    EXPECT_EQ(sibyl.agent().stats().decisions, t.size());
    // The learner must still function: it beats Slow-Only on this
    // cache-friendly workload under every exploration strategy.
    auto slow = sim::makePolicy("Slow-Only", 2);
    const auto sr = sim::runPolicyExperiment(spec, t, *slow, baseline, 42);
    EXPECT_LT(r.normalizedLatency, sr.normalizedLatency);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SibylExplorationTest,
    ::testing::Values(ExplorationKind::ConstantEpsilon,
                      ExplorationKind::LinearDecay,
                      ExplorationKind::ExponentialDecay,
                      ExplorationKind::Boltzmann, ExplorationKind::Vdbe));

/** Decay schedules across a seed sweep: exploration never exceeds the
 *  configured start nor undershoots the floor. */
class ScheduleBoundsTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ScheduleBoundsTest, EpsilonStaysWithinBounds)
{
    Pcg32 rng(GetParam());
    for (int trial = 0; trial < 20; trial++) {
        ExplorationConfig cfg;
        cfg.kind = rng.nextBool(0.5) ? ExplorationKind::LinearDecay
                                     : ExplorationKind::ExponentialDecay;
        cfg.epsilon = rng.nextDouble(0.0, 0.3);
        cfg.epsilonStart = rng.nextDouble(cfg.epsilon, 1.0);
        cfg.decaySteps = 1 + rng.nextBounded(5000);
        cfg.halfLifeSteps = 1 + rng.nextBounded(2000);
        ExplorationSchedule s(cfg);
        for (int i = 0; i < 50; i++) {
            const std::uint64_t step = rng.nextBounded(20000);
            const double eps = s.epsilonAt(step);
            EXPECT_GE(eps, cfg.epsilon - 1e-12);
            EXPECT_LE(eps, cfg.epsilonStart + 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleBoundsTest,
                         ::testing::Values(1, 7, 42, 1337));

} // namespace
} // namespace sibyl::rl
