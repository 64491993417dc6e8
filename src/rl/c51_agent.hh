/**
 * @file
 * Categorical DQN (C51) head and agent — Sibyl's learner.
 *
 * The agent is the shared dual-network ValueAgent (§6, Fig. 7); the
 * C51 head makes the network predict, per action, a probability
 * distribution over a fixed support of return values. Greedy actions
 * maximize the distribution's expectation, the Bellman target is the
 * greedy next action's distribution projected under (reward, gamma),
 * and the loss is the cross-entropy against that projection.
 */

#pragma once

#include "rl/categorical.hh"
#include "rl/value_agent.hh"

namespace sibyl::rl
{

/** Hyper-parameters of the C51 agent (Table 2 defaults). */
using C51Config = AgentConfig;

/** Training/behaviour statistics (shared across agent families). */
using C51Stats = AgentStats;

/** Categorical head: numActions x atoms logits, projected
 *  distributional target, cross-entropy loss. */
class C51Head final : public ValueHead
{
  public:
    explicit C51Head(const AgentConfig &cfg);

    std::string name() const override { return "C51"; }
    FamilyTag family() const override { return FamilyTag::C51; }
    Salts salts() const override { return {0xA6E47, 0x1217, 0x1218}; }
    std::size_t
    outputWidth() const override
    {
        return static_cast<std::size_t>(numActions_) * atoms_;
    }
    std::size_t targetWidth() const override { return atoms_; }

    std::uint32_t greedy(const float *row, std::uint32_t mask,
                         bool restricted) override;
    void values(const float *row, double *q) override;
    void target(const float *eval, const float *sel, const float *rewards,
                std::size_t rows, float *out) override;
    void loss(const LossBatch &b) override;
    double valueDelta(double loss, double prevLoss) const override;

    const CategoricalSupport &support() const { return support_; }

  private:
    std::uint32_t numActions_;
    std::uint32_t atoms_;
    double gamma_;
    CategoricalSupport support_;

    // Decision-side scratch: one pair of actions' atoms interleaved
    // across two lanes, and greedy()'s Q vector.
    ml::Vector decodeBuf_;
    std::vector<double> decodeQ_;

    // Training-side scratch (target() and loss()).
    // lanes_: atom groups interleaved ml::kSoftmaxLanes rows wide;
    // dist_: one row's winning next-state distribution.
    ml::Vector lanes_, dist_;
    // loss(): the batch's distinct (output row, action) predictions —
    // pairSlot_ maps row * numActions + action to a pair, pairOf_ each
    // batch row to its pair — with their softmax and the log of each
    // probability clamped at 1e-12.
    std::vector<std::int32_t> pairSlot_;
    std::vector<std::uint32_t> pairOf_, pairKey_;
    ml::Vector probs_, logProbs_;
};

/** The C51 agent. */
class C51Agent final : public ValueAgent
{
  public:
    explicit C51Agent(const C51Config &cfg);

    const CategoricalSupport &support() const;
};

} // namespace sibyl::rl
