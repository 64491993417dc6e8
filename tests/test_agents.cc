/**
 * @file
 * Tests for the agent families behind the §4.1 ablation: the plain
 * DQN, tabular Q-learning, their learning behaviour on closed-form
 * problems, agent-kind selection inside SibylPolicy, and the shared
 * ValueAgent core (config validation, pinned checkpoint bytes per
 * head and variant).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "core/sibyl_policy.hh"
#include "rl/c51_agent.hh"
#include "rl/checkpoint.hh"
#include "rl/dqn_agent.hh"
#include "rl/q_table.hh"

namespace sibyl::rl
{
namespace
{

AgentConfig
smallConfig()
{
    AgentConfig cfg;
    cfg.stateDim = 2;
    cfg.numActions = 2;
    cfg.bufferCapacity = 64;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 16;
    cfg.targetSyncEvery = 32;
    cfg.learningRate = 1e-2;
    cfg.epsilon = 0.1;
    cfg.seed = 77;
    // The synthetic bandit feeds identical experiences; keep them all
    // so the buffer actually fills and training proceeds.
    cfg.dedupBuffer = false;
    return cfg;
}

/** Two-armed bandit: action 1 always pays 1.0, action 0 pays 0.1. */
Experience
banditPull(std::uint32_t action)
{
    Experience e;
    e.state = {0.5f, 0.5f};
    e.nextState = {0.5f, 0.5f};
    e.action = action;
    e.reward = action == 1 ? 1.0f : 0.1f;
    return e;
}

// ---------------------------------------------------------------------
// DqnAgent
// ---------------------------------------------------------------------

TEST(DqnAgent, QValuesHaveActionDimension)
{
    DqnAgent agent(smallConfig());
    const auto q = agent.qValues({0.1f, 0.9f});
    EXPECT_EQ(q.size(), 2u);
}

TEST(DqnAgent, LearnsBanditPreference)
{
    DqnAgent agent(smallConfig());
    for (int i = 0; i < 600; i++)
        agent.observe(banditPull(static_cast<std::uint32_t>(i % 2)));
    agent.syncWeights();
    EXPECT_EQ(agent.greedyAction({0.5f, 0.5f}), 1u);
    const auto q = agent.qValues({0.5f, 0.5f});
    EXPECT_GT(q[1], q[0]);
}

TEST(DqnAgent, QValuesApproachDiscountedReturn)
{
    // Constant reward 1 forever with gamma=0.9 has return 1/(1-0.9)=10.
    AgentConfig cfg = smallConfig();
    cfg.gamma = 0.9;
    DqnAgent agent(cfg);
    for (int i = 0; i < 3000; i++)
        agent.observe(banditPull(1));
    agent.syncWeights();
    const auto q = agent.qValues({0.5f, 0.5f});
    EXPECT_NEAR(q[1], 10.0, 3.0);
}

TEST(DqnAgent, EpsilonOneActsRandomly)
{
    DqnAgent agent(smallConfig());
    agent.setEpsilon(1.0);
    for (int i = 0; i < 100; i++)
        agent.selectAction({0.5f, 0.5f});
    EXPECT_EQ(agent.stats().randomActions, 100u);
}

TEST(DqnAgent, TrainingRoundsFollowCadence)
{
    AgentConfig cfg = smallConfig();
    DqnAgent agent(cfg);
    for (int i = 0; i < 128; i++)
        agent.observe(banditPull(1));
    // Buffer (64) fills at obs 64; training every 16 thereafter.
    EXPECT_EQ(agent.stats().trainingRounds, (128 - 64) / 16 + 1u);
}

TEST(DqnAgent, StorageSmallerThanC51)
{
    // Same topology, but a 2-neuron head instead of 2x51 atoms.
    AgentConfig cfg; // default 6-dim, 2 actions
    DqnAgent dqn(cfg);
    C51Agent c51(cfg);
    EXPECT_LT(dqn.storageBytes(), c51.storageBytes());
}

// ---------------------------------------------------------------------
// QTableAgent
// ---------------------------------------------------------------------

TEST(QTableAgent, UnvisitedStateHasZeroQ)
{
    QTableAgent agent(smallConfig());
    const auto q = agent.qValues({0.3f, 0.3f});
    EXPECT_DOUBLE_EQ(q[0], 0.0);
    EXPECT_DOUBLE_EQ(q[1], 0.0);
    EXPECT_EQ(agent.tableEntries(), 0u);
}

TEST(QTableAgent, ObserveCreatesEntry)
{
    QTableAgent agent(smallConfig());
    agent.observe(banditPull(1));
    EXPECT_EQ(agent.tableEntries(), 1u);
    EXPECT_GT(agent.qValues({0.5f, 0.5f})[1], 0.0);
}

TEST(QTableAgent, LearnsBanditPreference)
{
    AgentConfig cfg = smallConfig();
    cfg.learningRate = 0.2; // tabular rates are much higher
    QTableAgent agent(cfg);
    for (int i = 0; i < 200; i++)
        agent.observe(banditPull(static_cast<std::uint32_t>(i % 2)));
    EXPECT_EQ(agent.greedyAction({0.5f, 0.5f}), 1u);
}

TEST(QTableAgent, ConvergesToDiscountedReturn)
{
    AgentConfig cfg = smallConfig();
    cfg.learningRate = 0.5;
    cfg.gamma = 0.9;
    QTableAgent agent(cfg);
    for (int i = 0; i < 5000; i++)
        agent.observe(banditPull(1));
    EXPECT_NEAR(agent.qValues({0.5f, 0.5f})[1], 10.0, 0.5);
}

TEST(QTableAgent, DistinctStatesGetDistinctEntries)
{
    QTableAgent agent(smallConfig());
    for (int i = 0; i < 32; i++) {
        Experience e = banditPull(0);
        e.state = {static_cast<float>(i) / 32.0f, 0.0f};
        agent.observe(e);
    }
    EXPECT_GT(agent.tableEntries(), 16u);
}

TEST(QTableAgent, StorageGrowsWithVisitedStates)
{
    QTableAgent agent(smallConfig());
    EXPECT_EQ(agent.storageBytes(), 0u);
    for (int i = 0; i < 64; i++) {
        Experience e = banditPull(0);
        e.state = {static_cast<float>(i) / 64.0f,
                   static_cast<float>(i % 8) / 8.0f};
        agent.observe(e);
    }
    EXPECT_EQ(agent.storageBytes(),
              agent.tableEntries() * (8 + 2 * sizeof(double)));
}

TEST(QTableAgent, QuantizationCollapsesNearbyStates)
{
    AgentConfig cfg = smallConfig();
    cfg.tableLevels = 4; // coarse bins
    QTableAgent agent(cfg);
    Experience a = banditPull(0);
    a.state = {0.50f, 0.50f};
    Experience b = banditPull(0);
    b.state = {0.51f, 0.51f}; // same 4-level bin
    agent.observe(a);
    agent.observe(b);
    EXPECT_EQ(agent.tableEntries(), 1u);
}

// ---------------------------------------------------------------------
// SibylPolicy agent-kind selection
// ---------------------------------------------------------------------

TEST(AgentKindSelection, NamesResolve)
{
    using core::AgentKind;
    EXPECT_STREQ(core::agentKindName(AgentKind::C51), "C51");
    EXPECT_STREQ(core::agentKindName(AgentKind::Dqn), "DQN");
    EXPECT_STREQ(core::agentKindName(AgentKind::QTable), "Q-table");
}

TEST(AgentKindSelection, PolicyInstantiatesRequestedAgent)
{
    core::SibylConfig cfg;
    cfg.agentKind = core::AgentKind::Dqn;
    core::SibylPolicy p(cfg, 2, "Sibyl-DQN");
    EXPECT_EQ(p.agent().name(), "DQN");

    cfg.agentKind = core::AgentKind::QTable;
    core::SibylPolicy q(cfg, 2, "Sibyl-QT");
    EXPECT_EQ(q.agent().name(), "Q-table");

    cfg.agentKind = core::AgentKind::C51;
    core::SibylPolicy c(cfg, 2);
    EXPECT_EQ(c.agent().name(), "C51");
    EXPECT_NO_FATAL_FAILURE(c.c51());
}

TEST(AgentKindSelection, C51AccessorPanicsForOtherKinds)
{
    core::SibylConfig cfg;
    cfg.agentKind = core::AgentKind::QTable;
    core::SibylPolicy p(cfg, 2);
    EXPECT_DEATH(p.c51(), "agent kind");
}

TEST(AgentKindSelection, ResetPreservesAgentKind)
{
    core::SibylConfig cfg;
    cfg.agentKind = core::AgentKind::Dqn;
    core::SibylPolicy p(cfg, 2);
    p.reset();
    EXPECT_EQ(p.agent().name(), "DQN");
}

// ---------------------------------------------------------------------
// Cross-family storage comparison (§4.1 motivation)
// ---------------------------------------------------------------------

TEST(AgentStorage, C51MatchesPaperAccounting)
{
    // Default config: 780-weight networks (plus biases) in fp16, twice,
    // plus 1000 x 100-bit buffer = ~124.4 KiB total per §10.2.
    AgentConfig cfg;
    C51Agent agent(cfg);
    // paramCount includes biases (the paper counts only the 780 mults);
    // the total must land in the same ballpark: 20-35 KiB nets + 12.5
    // KiB buffer.
    EXPECT_GT(agent.storageBytes(), 20u * 1024u);
    EXPECT_LT(agent.storageBytes(), 40u * 1024u);
}


TEST(DqnAgent, DoubleDqnLearnsBandit)
{
    AgentConfig cfg = smallConfig();
    cfg.doubleDqn = true;
    DqnAgent agent(cfg);
    for (int i = 0; i < 600; i++)
        agent.observe(banditPull(static_cast<std::uint32_t>(i % 2)));
    agent.syncWeights();
    EXPECT_EQ(agent.greedyAction({0.5f, 0.5f}), 1u);
}

TEST(DqnAgent, PrioritizedReplayLearnsBandit)
{
    AgentConfig cfg = smallConfig();
    cfg.prioritizedReplay = true;
    DqnAgent agent(cfg);
    for (int i = 0; i < 600; i++)
        agent.observe(banditPull(static_cast<std::uint32_t>(i % 2)));
    agent.syncWeights();
    EXPECT_EQ(agent.greedyAction({0.5f, 0.5f}), 1u);
}

TEST(AgentKindSelection, PerFlagReachesC51)
{
    core::SibylConfig cfg;
    cfg.prioritizedReplay = true;
    core::SibylPolicy p(cfg, 2);
    EXPECT_TRUE(p.c51().config().prioritizedReplay);
}

// ---------------------------------------------------------------------
// Zero cadences: a zero weight-sync or training cadence would divide by
// zero on the first observation; both heads reject it at construction.
// ---------------------------------------------------------------------

template <typename AgentT>
void
expectRejectsZeroCadence()
{
    AgentConfig noSync = smallConfig();
    noSync.targetSyncEvery = 0;
    try {
        AgentT agent(noSync);
        ADD_FAILURE() << "targetSyncEvery=0 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("targetSyncEvery"),
                  std::string::npos);
    }

    AgentConfig noCadence = smallConfig();
    noCadence.bufferCapacity = 0;
    noCadence.trainEvery = 0;
    try {
        AgentT agent(noCadence);
        ADD_FAILURE() << "bufferCapacity=0 with trainEvery=0 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("bufferCapacity"),
                  std::string::npos);
    }

    // An explicit training cadence makes a zero capacity legal (the
    // buffer clamps it to one entry).
    AgentConfig explicitCadence = noCadence;
    explicitCadence.trainEvery = 4;
    AgentT agent(explicitCadence);
    for (int i = 0; i < 16; i++)
        agent.observe(banditPull(1));
    EXPECT_GT(agent.stats().trainingRounds, 0u);
}

TEST(ValueAgent, C51RejectsZeroCadence)
{
    expectRejectsZeroCadence<C51Agent>();
}

TEST(ValueAgent, DqnRejectsZeroCadence)
{
    expectRejectsZeroCadence<DqnAgent>();
}

// ---------------------------------------------------------------------
// Pinned trained-agent checkpoints. Each row trains one head x variant
// in a closed decision loop from a fixed seed and pins a digest of its
// checkpoint bytes, so any change to a head's decode, target, loss,
// exploration feedback or RNG use — or to the shared training core —
// shows up as a bit difference that tolerance bands cannot hide.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Train @p agent for @p steps decisions against a synthetic
 *  environment whose reward depends on the chosen action, so the
 *  decision path (exploration, masking) shapes what is learned. */
std::string
trainedCheckpoint(Agent &agent, std::uint32_t mask, std::size_t steps)
{
    Pcg32 env(0xD16E57);
    const std::size_t dim = 4;
    auto draw = [&](ml::Vector &s) {
        // Coarse bins, as the real encoder produces: duplicate states
        // exercise minibatch folding and replay dedup.
        for (auto &v : s)
            v = static_cast<float>(env.nextBounded(8)) / 8.0f;
    };
    ml::Vector prev(dim), cur(dim);
    draw(prev);
    if (mask)
        agent.setActionMask(mask);
    std::uint32_t action = agent.selectAction(prev);
    for (std::size_t i = 0; i < steps; i++) {
        draw(cur);
        const float reward =
            2.0f * prev[action % dim] + (action == 1 ? 0.5f : 0.0f);
        agent.observeTransition(prev, action, reward, cur);
        prev = cur;
        action = agent.selectAction(prev);
    }
    agent.finishTraining();
    std::ostringstream out(std::ios::binary);
    saveCheckpoint(agent, out);
    return out.str();
}

struct PinnedRow
{
    const char *name;
    bool c51;
    std::function<void(AgentConfig &)> tweak;
    std::uint32_t mask;  ///< 0 = unrestricted
    bool pooled;         ///< async rounds on a 2-thread pool
    std::uint64_t digest;
};

TEST(ValueAgent, TrainedCheckpointBytesArePinned)
{
    auto none = [](AgentConfig &) {};
    auto per = [](AgentConfig &c) { c.prioritizedReplay = true; };
    auto boltzmann = [](AgentConfig &c) {
        c.exploration.kind = ExplorationKind::Boltzmann;
    };
    auto vdbe = [](AgentConfig &c) {
        c.exploration.kind = ExplorationKind::Vdbe;
    };
    auto async = [](AgentConfig &c) { c.asyncTraining = true; };
    auto doubleDqn = [](AgentConfig &c) { c.doubleDqn = true; };

    const PinnedRow rows[] = {
        {"c51_plain", true, none, 0, false, 0xC5D5EF40BD474C66ULL},
        {"c51_per", true, per, 0, false, 0x748E5504566BBF9FULL},
        {"c51_boltzmann", true, boltzmann, 0, false, 0x2CC10B6960EB1F98ULL},
        {"c51_vdbe", true, vdbe, 0, false, 0x23D1FDDB84F41390ULL},
        {"c51_masked", true, none, 0b101, false, 0x81FD2DAFC7FC0512ULL},
        {"c51_async_pool", true, async, 0, true, 0xC5D5EF40BD474C66ULL},
        {"dqn_plain", false, none, 0, false, 0x2E0326A8316C0D89ULL},
        {"dqn_double", false, doubleDqn, 0, false, 0xAFA68F017D3CE242ULL},
        {"dqn_per", false, per, 0, false, 0x3A1C855CD67A00DEULL},
        {"dqn_boltzmann", false, boltzmann, 0, false, 0x5E6F671999E939D3ULL},
        {"dqn_vdbe", false, vdbe, 0, false, 0x84B3956119AE5476ULL},
        {"dqn_masked", false, none, 0b101, false, 0xE75631D3A93B14B1ULL},
        {"dqn_async_pool", false, async, 0, true, 0x2E0326A8316C0D89ULL},
    };
    for (const PinnedRow &row : rows) {
        AgentConfig cfg;
        cfg.stateDim = 4;
        cfg.numActions = 3;
        cfg.bufferCapacity = 200;
        cfg.batchSize = 32;
        cfg.batchesPerTraining = 2;
        cfg.trainEvery = 50;
        cfg.targetSyncEvery = 100;
        cfg.epsilon = 0.1;
        cfg.seed = 0x5EED;
        row.tweak(cfg);

        ThreadPool pool(2); // outlives the agent that submits to it
        std::unique_ptr<Agent> agent;
        if (row.c51)
            agent = std::make_unique<C51Agent>(cfg);
        else
            agent = std::make_unique<DqnAgent>(cfg);
        if (row.pooled) {
            agent->setTrainingExecutor([&pool](std::function<void()> job) {
                pool.submit(std::move(job));
            });
        }
        const std::uint64_t digest =
            fnv1a(trainedCheckpoint(*agent, row.mask, 1000));
        EXPECT_GT(agent->stats().trainingRounds, 10u) << row.name;
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llX",
                      static_cast<unsigned long long>(digest));
        EXPECT_EQ(digest, row.digest)
            << row.name << ": checkpoint digest is now " << hex;
    }
}

} // namespace
} // namespace sibyl::rl
