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
    /** @throws std::invalid_argument for a NaN gamma. */
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
    Lanes planLoss(const LossBatch &b) override;
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

    // target(): every action's atoms of kSoftmaxLanes next-state rows,
    // interleaved lane-major (targetLanes_); dist_: each lane's winning
    // next-state distribution, lane-major, and projected_ its
    // projection (CategoricalSupport::projectLanes).
    ml::Vector targetLanes_, dist_, projected_;
    // loss(): the batch's distinct (output row, action) predictions,
    // grouped by action (planLoss) with their logits lane-major in
    // lanes_ (softmaxed in place). pairSlot_ maps row * numActions +
    // action to a prediction, pairLane_ each prediction to its lane,
    // pairOf_ each batch row to its prediction; probs_ holds each
    // prediction's probabilities as a row, logProbs_ the log of each
    // clamped at 1e-12.
    ml::LaneGroups lossGroups_;
    std::vector<std::int32_t> pairSlot_;
    std::vector<std::uint32_t> pairLane_, pairOf_;
    ml::Vector lanes_, probs_, logProbs_;
};

/** The C51 agent. */
class C51Agent final : public ValueAgent
{
  public:
    explicit C51Agent(const C51Config &cfg);

    const CategoricalSupport &support() const;
};

} // namespace sibyl::rl
