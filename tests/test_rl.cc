/**
 * @file
 * Tests for the RL substrate: replay buffer (capacity/dedup/sampling),
 * categorical support/projection (mass conservation properties), and
 * the C51 agent's learning on a contextual-bandit toy problem.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "ml/activations.hh"
#include "rl/c51_agent.hh"
#include "rl/categorical.hh"
#include "rl/replay_buffer.hh"

namespace sibyl::rl
{
namespace
{

/** Draw @p n prioritized samples into a fresh vector. */
std::vector<std::size_t>
drawPrioritized(const ReplayBuffer &buf, std::size_t n, Pcg32 &rng,
                double alpha)
{
    std::vector<std::size_t> out;
    buf.samplePrioritizedIndices(n, rng, alpha, out);
    return out;
}

/** Add the one-feature transition (s, a, r, ns) to @p buf. */
bool
add1(ReplayBuffer &buf, float s, std::uint32_t a, float r, float ns)
{
    return buf.add({s}, a, r, {ns});
}

TEST(ReplayBuffer, CapacityBounded)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 10; i++)
        add1(buf, static_cast<float>(i), 0, 0.0f, 0.0f);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.totalAdded(), 10u);
}

TEST(ReplayBuffer, RingOverwritesOldest)
{
    ReplayBuffer buf(2, false);
    add1(buf, 1, 0, 0, 0);
    add1(buf, 2, 0, 0, 0);
    add1(buf, 3, 0, 0, 0); // overwrites "1"
    bool saw1 = false;
    for (std::size_t i = 0; i < buf.size(); i++)
        saw1 |= buf[i].state[0] == 1.0f;
    EXPECT_FALSE(saw1);
}

TEST(ReplayBuffer, DedupDropsIdentical)
{
    ReplayBuffer buf(10, true);
    EXPECT_TRUE(add1(buf, 1, 0, 0.5f, 2));
    EXPECT_FALSE(add1(buf, 1, 0, 0.5f, 2));
    EXPECT_TRUE(add1(buf, 1, 1, 0.5f, 2)); // different action
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.duplicatesDropped(), 1u);
}

TEST(ReplayBuffer, DedupAllowsReinsertAfterEviction)
{
    ReplayBuffer buf(2, true);
    add1(buf, 1, 0, 0, 0);
    add1(buf, 2, 0, 0, 0);
    add1(buf, 3, 0, 0, 0); // evicts "1"
    EXPECT_TRUE(add1(buf, 1, 0, 0, 0));
}

TEST(ReplayBuffer, SampleCoversEntries)
{
    ReplayBuffer buf(8, false);
    for (int i = 0; i < 8; i++)
        add1(buf, static_cast<float>(i), 0, 0, 0);
    Pcg32 rng(3);
    std::vector<std::size_t> batch;
    buf.sampleIndices(1000, rng, batch);
    EXPECT_EQ(batch.size(), 1000u);
    std::set<float> seen;
    for (const std::size_t i : batch)
        seen.insert(buf[i].state[0]);
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayBuffer, SampleEmptyReturnsNothing)
{
    ReplayBuffer buf(8, false);
    Pcg32 rng(3);
    std::vector<std::size_t> batch = {7};
    buf.sampleIndices(10, rng, batch);
    EXPECT_TRUE(batch.empty());
}

// --------------------------- CategoricalSupport ----------------------

/** One distribution's projection: @p probs in every lane of
 *  projectLanes(), lane 0's target. */
ml::Vector
projectOne(const CategoricalSupport &s, const ml::Vector &probs,
           double reward, double gamma)
{
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t atoms = s.atoms();
    ml::Vector lanes(atoms * L), out((atoms + 1) * L);
    double rewards[L];
    std::fill_n(rewards, L, reward);
    for (std::size_t i = 0; i < atoms; i++)
        std::fill_n(lanes.data() + i * L, L, probs[i]);
    s.projectLanes(lanes.data(), rewards, gamma, out.data());
    ml::Vector target(atoms);
    for (std::size_t i = 0; i < atoms; i++)
        target[i] = out[i * L];
    return target;
}

/** The documented projection of one distribution (@p probs at stride
 *  @p stride): each atom's mass, scaled by its two neighbours' weights
 *  and rounded to float, scatter-added in ascending atom order; all NaN
 *  for a non-finite reward. */
ml::Vector
scatterProject(const CategoricalSupport &s, const float *probs,
               std::size_t stride, double reward, double gamma)
{
    const std::uint32_t atoms = s.atoms();
    if (!std::isfinite(reward))
        return ml::Vector(atoms, std::numeric_limits<float>::quiet_NaN());
    ml::Vector out(atoms, 0.0f);
    const double last = atoms - 1;
    for (std::uint32_t i = 0; i < atoms; i++) {
        const double p = probs[i * stride];
        if (p <= 0.0)
            continue;
        const double tz = std::clamp(reward + gamma * s.atomValue(i),
                                     s.vmin(), s.vmax());
        const double b = (tz - s.vmin()) / s.deltaZ();
        const double lo = std::min(std::floor(b), last);
        const double hi = std::min(std::ceil(b), last);
        if (lo == hi) {
            out[static_cast<std::size_t>(lo)] += static_cast<float>(p);
        } else {
            out[static_cast<std::size_t>(lo)] +=
                static_cast<float>(p * (hi - b));
            out[static_cast<std::size_t>(hi)] +=
                static_cast<float>(p * (b - lo));
        }
    }
    return out;
}

/** projectLanes() against the scalar scatter-add, bit for bit, lane by
 *  lane: a different distribution and reward per lane, atoms without
 *  mass, both clamps, non-finite rewards, and gammas of both signs (a
 *  negative gamma moves the landing points down the atoms). */
TEST(Categorical, ProjectLanesMatchesScalarScatterBitForBit)
{
    constexpr std::size_t L = ml::kSoftmaxLanes;
    Pcg32 rng(29);
    for (const CategoricalSupport s :
         {CategoricalSupport(0.0, 10.0, 51),
          CategoricalSupport(-10.0, 10.0, 51),
          CategoricalSupport(-1.0, 3.0, 7)}) {
        const std::size_t atoms = s.atoms();
        for (const double gamma : {-1.0, -0.5, -0.1, 0.0, 0.3, 0.99, 1.0}) {
            for (int trial = 0; trial < 20; trial++) {
                ml::Vector probs(atoms * L), got((atoms + 1) * L, -1.0f);
                for (auto &p : probs) {
                    const double u = rng.nextDouble();
                    p = u < 0.2 ? 0.0f : static_cast<float>(u);
                }
                double rewards[L];
                for (auto &r : rewards)
                    r = rng.nextDouble(-25.0, 25.0);
                rewards[1] = std::nan("");
                rewards[2] = std::numeric_limits<double>::infinity();
                s.projectLanes(probs.data(), rewards, gamma, got.data());
                for (std::size_t l = 0; l < L; l++) {
                    const ml::Vector want = scatterProject(
                        s, probs.data() + l, L, rewards[l], gamma);
                    for (std::size_t i = 0; i < atoms; i++)
                        ASSERT_EQ(std::memcmp(&got[i * L + l], &want[i],
                                              sizeof(float)),
                                  0)
                            << "gamma " << gamma << " lane " << l
                            << " atom " << i << ": " << got[i * L + l]
                            << " vs " << want[i];
                }
            }
        }
    }
}

TEST(Categorical, AtomSpacing)
{
    CategoricalSupport s(0.0, 10.0, 51);
    EXPECT_DOUBLE_EQ(s.deltaZ(), 0.2);
    EXPECT_DOUBLE_EQ(s.atomValue(0), 0.0);
    EXPECT_DOUBLE_EQ(s.atomValue(50), 10.0);
}

TEST(Categorical, RejectsBadParams)
{
    EXPECT_THROW(CategoricalSupport(0.0, 0.0, 51), std::invalid_argument);
    EXPECT_THROW(CategoricalSupport(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Categorical, ExpectationOfPointMass)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[25] = 1.0f;
    EXPECT_NEAR(s.expectation(probs), 5.0, 1e-6);
}

/** Projection property: output is a distribution (mass conserved) for
 *  random inputs, rewards, and gammas. */
TEST(Categorical, ProjectionConservesMass)
{
    CategoricalSupport s(0.0, 10.0, 51);
    Pcg32 rng(7);
    for (int trial = 0; trial < 200; trial++) {
        ml::Vector probs(51, 0.0f);
        float total = 0.0f;
        for (auto &p : probs) {
            p = static_cast<float>(rng.nextDouble());
            total += p;
        }
        for (auto &p : probs)
            p /= total;
        double reward = rng.nextDouble(-5.0, 15.0);
        double gamma = rng.nextDouble(0.0, 1.0);
        const ml::Vector target = projectOne(s, probs, reward, gamma);
        double sum = 0.0;
        for (float p : target) {
            EXPECT_GE(p, 0.0f);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Categorical, ProjectionShiftsByReward)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[0] = 1.0f; // all mass at value 0
    const ml::Vector target = projectOne(s, probs, 4.0, 0.9);
    // r + gamma*0 = 4.0 -> atom 20.
    EXPECT_NEAR(target[20], 1.0f, 1e-6);
}

TEST(Categorical, ProjectionClampsOutOfRange)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[50] = 1.0f; // value 10
    // 110 clamps to vmax, -90 to vmin.
    EXPECT_NEAR(projectOne(s, probs, 100.0, 1.0)[50], 1.0f, 1e-6);
    EXPECT_NEAR(projectOne(s, probs, -100.0, 1.0)[0], 1.0f, 1e-6);
}

TEST(Categorical, ProjectionInterpolatesBetweenAtoms)
{
    CategoricalSupport s(0.0, 10.0, 51); // delta 0.2
    ml::Vector probs(51, 0.0f);
    probs[0] = 1.0f;
    // Lands halfway between 0.2 and 0.4.
    const ml::Vector target = projectOne(s, probs, 0.3, 0.9);
    EXPECT_NEAR(target[1], 0.5f, 1e-5);
    EXPECT_NEAR(target[2], 0.5f, 1e-5);
}

// ------------------------------- Agent -------------------------------

C51Config
banditConfig()
{
    C51Config cfg;
    cfg.stateDim = 1;
    cfg.numActions = 2;
    cfg.vmin = 0.0;
    cfg.vmax = 2.0;
    cfg.gamma = 0.0; // pure bandit
    cfg.learningRate = 5e-3;
    cfg.bufferCapacity = 256;
    cfg.trainEvery = 64;
    cfg.targetSyncEvery = 64;
    cfg.batchSize = 32;
    cfg.exploration.epsilon = 0.2;
    cfg.dedupBuffer = false;
    return cfg;
}

TEST(C51Agent, LearnsContextualBandit)
{
    // State 0: action 0 pays 1.0, action 1 pays 0.1 — and vice versa
    // for state 1. The agent must learn the state-conditional policy.
    C51Agent agent(banditConfig());
    Pcg32 rng(99);
    for (int i = 0; i < 4000; i++) {
        float s = rng.nextBool(0.5) ? 1.0f : 0.0f;
        ml::Vector state = {s};
        auto a = agent.selectAction(state);
        float reward =
            (a == static_cast<std::uint32_t>(s)) ? 0.1f : 1.0f;
        // best action for state s is 1-s
        agent.observe(state, a, reward, state);
    }
    EXPECT_EQ(agent.greedyAction({0.0f}), 1u);
    EXPECT_EQ(agent.greedyAction({1.0f}), 0u);
    auto q0 = agent.qValues({0.0f});
    EXPECT_GT(q0[1], q0[0]);
}

TEST(C51Agent, EpsilonZeroIsDeterministic)
{
    auto cfg = banditConfig();
    cfg.exploration.epsilon = 0.0;
    C51Agent agent(cfg);
    auto first = agent.selectAction({0.5f});
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(agent.selectAction({0.5f}), first);
    EXPECT_EQ(agent.stats().randomActions, 0u);
}

TEST(C51Agent, EpsilonOneAlwaysExplores)
{
    auto cfg = banditConfig();
    cfg.exploration.epsilon = 1.0;
    C51Agent agent(cfg);
    for (int i = 0; i < 200; i++)
        agent.selectAction({0.5f});
    EXPECT_EQ(agent.stats().randomActions, 200u);
}

TEST(C51Agent, TrainingCadenceAndSyncs)
{
    auto cfg = banditConfig();
    cfg.bufferCapacity = 32;
    cfg.trainEvery = 32;
    cfg.targetSyncEvery = 64;
    C51Agent agent(cfg);
    Pcg32 rng(1);
    for (int i = 0; i < 128; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble())};
        agent.observe(s, 0, 0.5f, s);
    }
    EXPECT_EQ(agent.stats().trainingRounds, 4u); // at 32,64,96,128
    EXPECT_EQ(agent.stats().weightSyncs, 2u);    // at 64,128
}

TEST(C51Agent, SyncMakesInferenceMatchTraining)
{
    C51Agent agent(banditConfig());
    Pcg32 rng(1);
    for (int i = 0; i < 300; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble())};
        agent.observe(s, rng.nextBounded(2), 0.5f, s);
    }
    // Drift the training net, then sync: outputs must match.
    agent.trainRound();
    ml::Vector probe = {0.5f};
    agent.syncWeights();
    EXPECT_EQ(agent.inferenceNetwork().forward(probe),
              agent.trainingNetwork().forward(probe));
}

TEST(C51Agent, QValuesWithinSupport)
{
    C51Agent agent(banditConfig());
    auto q = agent.qValues({0.3f});
    for (double v : q) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 2.0);
    }
}

TEST(C51Agent, SetLearningRatePropagates)
{
    C51Agent agent(banditConfig());
    agent.setLearningRate(1e-5);
    EXPECT_DOUBLE_EQ(agent.config().learningRate, 1e-5);
}


// ---------------------------------------------------------------------
// Prioritized replay
// ---------------------------------------------------------------------

TEST(PrioritizedReplay, NewEntriesGetMaxPriority)
{
    ReplayBuffer buf(8, /*dedup=*/false);
    add1(buf, 0.1f, 0, 0.0f, 0.1f);
    EXPECT_FLOAT_EQ(buf.priority(0), 1.0f);
    buf.setPriority(0, 5.0f);
    add1(buf, 0.1f, 0, 0.0f, 0.1f); // inherits new max
    EXPECT_FLOAT_EQ(buf.priority(1), 5.0f);
}

TEST(PrioritizedReplay, SamplingFollowsPriorities)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++)
        add1(buf, static_cast<float>(i), 0, 0.0f, 0.0f);
    buf.setPriority(0, 100.0f);
    buf.setPriority(1, 0.001f);
    buf.setPriority(2, 0.001f);
    buf.setPriority(3, 0.001f);
    Pcg32 rng(9);
    const auto idx = drawPrioritized(buf, 2000, rng, 1.0);
    std::size_t hits = 0;
    for (auto i : idx)
        hits += i == 0 ? 1 : 0;
    EXPECT_GT(hits, 1900u); // ~99.997% expected
}

TEST(PrioritizedReplay, AlphaZeroIsUniform)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++)
        add1(buf, static_cast<float>(i), 0, 0.0f, 0.0f);
    buf.setPriority(0, 1000.0f);
    Pcg32 rng(9);
    const auto idx = drawPrioritized(buf, 4000, rng, 0.0);
    std::vector<std::size_t> counts(4, 0);
    for (auto i : idx)
        counts[i]++;
    for (auto c : counts)
        EXPECT_NEAR(static_cast<double>(c), 1000.0, 200.0);
}

TEST(PrioritizedReplay, ImportanceWeightsBounded)
{
    ReplayBuffer buf(8, /*dedup=*/false);
    std::vector<std::size_t> all;
    for (int i = 0; i < 8; i++) {
        add1(buf, static_cast<float>(i), 0, 0.0f, 0.0f);
        buf.setPriority(static_cast<std::size_t>(i),
                        0.1f * static_cast<float>(i + 1));
        all.push_back(static_cast<std::size_t>(i));
    }
    std::vector<double> w;
    buf.importanceWeights(all, 0.6, 0.4, w);
    ASSERT_EQ(w.size(), 8u);
    for (const double wi : w) {
        EXPECT_GT(wi, 0.0);
        EXPECT_LE(wi, 1.0 + 1e-9);
    }
    // The rarest (lowest-priority) entry carries the largest weight.
    EXPECT_NEAR(w[0], 1.0, 1e-9);
}

TEST(PrioritizedReplay, SetPriorityFloorsAtPositive)
{
    ReplayBuffer buf(2, false);
    add1(buf, 0.0f, 0, 0.0f, 0.0f);
    buf.setPriority(0, 0.0f);
    EXPECT_GT(buf.priority(0), 0.0f);
}

} // namespace
} // namespace sibyl::rl
